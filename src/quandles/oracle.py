"""Brute-force census of all quandles of a small order, up to isomorphism.

This is the ground truth the structure-driven modules are checked against, so
it deliberately shares no machinery with them: no meshes, no coset
construction.  The search assigns whole columns (the symmetry permutation
at each point, which must fix that point), propagating the operator form of
self-distributivity

    S_{b > c} = S_c^-1 * S_b * S_c

as a forced assignment the moment both S_b and S_c are known.  Idempotence
and invertibility hold by construction of the candidate columns, so every
leaf is a quandle; leaves are reduced to canonical form and deduped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import BoundError, resolve_bound
from .perm import Permutation
from .quandle import Quandle

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
        self.leaves: list[tuple[tuple[int, ...], ...]] = []

    def run(self, first_column: tuple[int, ...] | None = None) -> list[tuple[tuple[int, ...], ...]]:
        """Collect all completed tables; optionally pin the column at point 0."""
        self.leaves = []
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
        for images in self.candidates[y]:
            trail: list[int] = []
            if self._place(y, images, trail):
                self._descend(y + 1)
            self._unwind(trail)


def labeled_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every quandle table on points 0..n-1, one per labeling, sorted."""
    if n == 1:
        return [((0,),)]
    search = _ColumnSearch(n)
    tables = [t for first in search.candidates[0] for t in search.run(first)]
    tables.sort()
    return tables


def enumerate_all(n: int) -> Census:
    """Census of all quandles of order n up to isomorphism.

    Order 6 is the practical ceiling (tens of thousands of labeled tables);
    the default bound follows QUANDLE_MAX_ORDER.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    bound = resolve_bound(6)
    if n > bound:
        raise BoundError(f"order {n} exceeds the configured bound {bound}")
    classes: dict[tuple[tuple[int, ...], ...], Quandle] = {}
    for table in labeled_tables(n):
        q = Quandle(table)
        canon = q.canonical_form()
        if canon.table not in classes:
            classes[canon.table] = canon
    tables = tuple(classes[key] for key in sorted(classes))
    flags = tuple(q.is_connected() for q in tables)
    return Census(n, tables, flags)
