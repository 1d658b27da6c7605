"""Brute-force census of all quandles of a small order, up to isomorphism.

This is the ground truth the structure-driven modules are checked against, so
it deliberately shares no machinery with them: no meshes, no coset
construction.  The search assigns whole columns (the symmetry permutation
at each point, which must fix that point), propagating the operator form of
self-distributivity

    S_{b > c} = S_c^-1 * S_b * S_c

as a forced assignment the moment both S_b and S_c are known.  Idempotence
and invertibility hold by construction of the candidate columns, so every
leaf is a quandle.

The census search pins column 0 to the largest cycle type in the table.
Cycle types are ordered as partitions of n, descending tuples compared
lexicographically, so the identity is least.  Relabeling a point of
largest type to 0 puts that type at column 0, and relabeling by a sigma
that fixes 0 turns S_0 into sigma * S_0 * sigma^-1; so every class has a
labeling whose S_0 is one chosen permutation per cycle type and no other
column has a larger type.  With S_0 of type tau pinned, every other point
is offered only candidate columns of type at most tau.  Forced columns need
no filter: S_{b > c} is a conjugate of S_b, so it has S_b's type.  The
identity pin then yields only the trivial quandle (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Each leaf is validated
and put in a bucket keyed by the sorted cycle types of its columns, an
isomorphism invariant.  A leaf is a new class unless the isomorphism
search maps a class already in its bucket onto it (isomorph rejection by
testing against the known classes); each class is reduced to canonical
form once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT_MAX_ORDER, check_order, check_type
from .quandle import Quandle, _cycle_type

__all__ = ["Census", "enumerate_all", "count_connected"]


@dataclass(frozen=True)
class Census:
    """All isomorphism classes of one order, canonical forms sorted."""

    order: int
    tables: tuple[Quandle, ...]
    connected_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.tables) != len(self.connected_flags):
            raise ValueError("tables and connected_flags must be parallel")

    def __len__(self) -> int:
        return len(self.tables)

    def connected(self) -> list[Quandle]:
        return [q for q, flag in zip(self.tables, self.connected_flags) if flag]


def count_connected(census: Census) -> int:
    check_type(census, Census)
    return sum(census.connected_flags)


def _column_candidates(n: int) -> list[list[tuple[int, ...]]]:
    """For each point y, the image tuples of all permutations fixing y."""
    out: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for images in itertools.permutations(range(n)):
        for y in range(n):
            if images[y] == y:
                out[y].append(images)
    return out


class _ColumnSearch:
    """Backtracking over symmetry columns with rack-condition propagation."""

    def __init__(self, n: int):
        self.n = n
        self.columns: list[tuple[int, ...] | None] = [None] * n
        self.candidates = _column_candidates(n)
        self.offered = self.candidates
        self.cycle_types = {c: _cycle_type(c) for c in itertools.chain(*self.candidates)}
        self.leaves: list[tuple[tuple[int, ...], ...]] = []

    def run(
        self,
        first_column: tuple[int, ...] | None = None,
        largest: tuple[int, ...] | None = None,
    ) -> list[tuple[tuple[int, ...], ...]]:
        """Collect all completed tables; optionally pin the column at point 0.

        With largest, every point is offered only the candidate columns of
        cycle type at most largest.
        """
        self.leaves = []
        self.offered = [
            [c for c in column if largest is None or self.cycle_types[c] <= largest]
            for column in self.candidates
        ]
        if first_column is None:
            self._descend(0)
        else:
            trail: list[int] = []
            if self._place(0, first_column, trail):
                self._descend(1)
            self._unwind(trail)
        return self.leaves

    # The trail records which points were assigned by one _place call
    # (directly or by propagation) so backtracking can undo exactly those.

    def _place(self, y: int, images: tuple[int, ...], trail: list[int]) -> bool:
        self.columns[y] = images
        trail.append(y)
        queue = [y]
        while queue:
            c = queue.pop()
            for b in range(self.n):
                for first, second in ((b, c), (c, b)):
                    col_second = self.columns[second]
                    col_first = self.columns[first]
                    if col_second is None or col_first is None:
                        continue
                    target = col_second[first]
                    # S_target must equal S_second^-1 * S_first * S_second;
                    # as images: required[x] = S_second(S_first(S_second^-1(x))),
                    # i.e. required[S_second(x)] = S_second(S_first(x)).
                    required = [0] * self.n
                    for x in range(self.n):
                        required[col_second[x]] = col_second[col_first[x]]
                    required_t = tuple(required)
                    existing = self.columns[target]
                    if existing is None:
                        if required_t[target] != target:
                            return False
                        self.columns[target] = required_t
                        trail.append(target)
                        queue.append(target)
                    elif existing != required_t:
                        return False
        return True

    def _unwind(self, trail: list[int]) -> None:
        for point in trail:
            self.columns[point] = None
        trail.clear()

    def _descend(self, y: int) -> None:
        while y < self.n and self.columns[y] is not None:
            y += 1
        if y == self.n:
            cols = self.columns
            table = tuple(tuple(cols[c][x] for c in range(self.n)) for x in range(self.n))
            self.leaves.append(table)
            return
        for images in self.offered[y]:
            trail: list[int] = []
            if self._place(y, images, trail):
                self._descend(y + 1)
            self._unwind(trail)


def _partitions(total: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of total into non-increasing parts no larger than largest."""
    if total == 0:
        return [()]
    return [
        (part, *rest)
        for part in range(min(total, largest), 0, -1)
        for rest in _partitions(total - part, part)
    ]


def _cycle_type_columns(n: int) -> list[tuple[int, ...]]:
    """One permutation fixing 0 per cycle type on 1..n-1, as image tuples.

    Each partition of n-1 becomes consecutive cycles on 1..n-1, largest first.
    """
    # Any one permutation per type is sound; this choice is for speed.  The
    # lex-least permutation fixing 0 of each type (cycles on the highest
    # points) gives the same 181 leaves and census at order 6, but the column
    # search takes about 20% longer (0.0080 s against 0.0066 s).
    columns = []
    for parts in _partitions(n - 1, n - 1):
        images = [0] * n
        start = 1
        for size in parts:
            for k in range(size):
                images[start + k] = start + (k + 1) % size
            start += size
        columns.append(tuple(images))
    return columns


def labeled_tables(
    n: int, first_columns: list[tuple[int, ...]] | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """Quandle tables on points 0..n-1, one per labeling, sorted.

    By default every labeling.  With first_columns (each a permutation
    fixing 0), only the tables whose column at 0 is one of them and has the
    largest cycle type of any column.
    """
    if n == 1:
        return [((0,),)]
    search = _ColumnSearch(n)
    if first_columns is None:
        tables = search.run()
    else:
        tables = [t for first in first_columns for t in search.run(first, _cycle_type(first))]
    tables.sort()
    return tables


def enumerate_all(n: int) -> Census:
    """Census of all quandles of order n up to isomorphism.

    Searches only the labelings whose column 0 is a cycle-type
    representative of the largest type in the table and validates each.
    Labelings are bucketed by the sorted cycle types of their columns, and
    one is kept unless it is isomorphic to a class already in its bucket;
    each class gets one canonical form.  The default bound of 6 follows
    QUANDLE_MAX_ORDER; order 7 searches 1405 labelings.
    """
    check_order(n, DEFAULT_MAX_ORDER)
    buckets: dict[tuple[tuple[int, ...], ...], list[Quandle]] = {}
    for table in labeled_tables(n, _cycle_type_columns(n)):
        q = Quandle(table)
        bucket = buckets.setdefault(tuple(sorted(map(_cycle_type, zip(*table)))), [])
        if not any(known.is_isomorphic(q) for known in bucket):
            bucket.append(q)
    # Each flag is read off the representative, whose orbits the canonical
    # form's twin test has already computed.
    classes = [
        (q.canonical_form(), q.is_connected()) for bucket in buckets.values() for q in bucket
    ]
    classes.sort(key=lambda pair: pair[0].table)
    return Census(n, tuple(q for q, _ in classes), tuple(flag for _, flag in classes))
