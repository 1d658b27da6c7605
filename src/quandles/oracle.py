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
largest type to 0 puts that type at column 0.  Relabeling by a sigma that
fixes 0 turns S_0 into sigma * S_0 * sigma^-1, and any two permutations
fixing 0 of one cycle type are conjugate by such a sigma.  So every class
has a labeling whose S_0 is the pin of its type, the lex-greatest
permutation fixing 0 of that type, and no other column has a larger type.
With S_0 of type tau pinned, labeled_tables offers every other point only
the candidate columns of type at most tau.  Forced columns need
no filter: S_{b > c} is a conjugate of S_b, so it has S_b's type.  The
identity pin then yields only the trivial quandle (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Each leaf is validated
and handed to quandle.isomorphism_classes, which buckets it by its sorted
point signatures (per point: the cycle type of its column and how often
its row holds itself), both read off the table.  A leaf is a new class
unless the isomorphism search maps a class already in its bucket onto it
(isomorph rejection by testing against the known classes); each class is
reduced to canonical form once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import DEFAULT_MAX_ORDER, check_int, check_order, check_type
from .quandle import Quandle, _cycle_type, isomorphism_classes

__all__ = ["Census", "enumerate_all", "count_connected"]


@dataclass(frozen=True)
class Census:
    """All isomorphism classes of one order, canonical forms sorted.

    A field of the wrong type raises TypeError and a table of another order
    ValueError.  connected_flags is derived: each table's is_connected().
    """

    order: int
    tables: tuple[Quandle, ...]
    connected_flags: tuple[bool, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_int(self.order)
        if self.order < 1:
            raise ValueError("order must be at least 1")
        for q in self.tables:
            check_type(q, Quandle)
            if q.order != self.order:
                raise ValueError(f"a table of order {q.order} in a census of order {self.order}")
        object.__setattr__(self, "connected_flags", tuple(q.is_connected() for q in self.tables))

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


def _search(n: int, offered: list[list[tuple[int, ...]]]) -> list[tuple[tuple[int, ...], ...]]:
    """Every completed table, point y taking only columns from offered[y].

    Backtracks over symmetry columns with rack-condition propagation.
    """
    columns: list[tuple[int, ...] | None] = [None] * n
    leaves: list[tuple[tuple[int, ...], ...]] = []

    def place(y: int, images: tuple[int, ...], trail: list[int]) -> bool:
        # The trail records which points this call assigned (directly or by
        # propagation), so the caller's undo clears exactly those.
        columns[y] = images
        trail.append(y)
        queue = [y]
        while queue:
            c = queue.pop()
            for b in range(n):
                for first, second in ((b, c), (c, b)):
                    col_second = columns[second]
                    col_first = columns[first]
                    if col_second is None or col_first is None:
                        continue
                    target = col_second[first]
                    # S_target must equal S_second^-1 * S_first * S_second;
                    # as images: required[x] = S_second(S_first(S_second^-1(x))),
                    # i.e. required[S_second(x)] = S_second(S_first(x)).
                    required = [0] * n
                    for x in range(n):
                        required[col_second[x]] = col_second[col_first[x]]
                    required_t = tuple(required)
                    existing = columns[target]
                    if existing is None:
                        if required_t[target] != target:
                            return False
                        columns[target] = required_t
                        trail.append(target)
                        queue.append(target)
                    elif existing != required_t:
                        return False
        return True

    def descend(y: int) -> None:
        while y < n and columns[y] is not None:
            y += 1
        if y == n:
            leaves.append(tuple(tuple(column[x] for column in columns) for x in range(n)))
            return
        for images in offered[y]:
            trail: list[int] = []
            if place(y, images, trail):
                descend(y + 1)
            for point in trail:
                columns[point] = None

    descend(0)
    return leaves


def _cycle_type_columns(n: int) -> list[tuple[int, ...]]:
    """One permutation fixing 0 per cycle type, as image tuples: the lex-greatest of each."""
    # Any one permutation per type is sound; the lex-least pins make the column
    # search about 30% slower at order 7 and 60% slower at order 8.
    return list({_cycle_type(c): c for c in itertools.permutations(range(n)) if c[0] == 0}.values())


def labeled_tables(
    n: int, first_columns: list[tuple[int, ...]] | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """Quandle tables on points 0..n-1, one per labeling, sorted.

    By default every labeling.  With first_columns (each a permutation
    fixing 0), only the tables whose column at 0 is one of them and has the
    largest cycle type of any column.
    """
    candidates = _column_candidates(n)
    if first_columns is None:
        tables = _search(n, candidates)
    else:
        types = {c: _cycle_type(c) for c in itertools.permutations(range(n))}
        tables = []
        for first in first_columns:
            pin = types[first]
            offered = [[c for c in column if types[c] <= pin] for column in candidates[1:]]
            tables += _search(n, [[first]] + offered)
    tables.sort()
    return tables


def enumerate_all(n: int) -> Census:
    """Census of all quandles of order n up to isomorphism.

    Searches only the labelings whose column 0 is the pin of the largest
    cycle type in the table, validates each, and sorts them into classes by
    isomorphism_classes: bucketed by their sorted point signatures, one kept
    unless it is isomorphic to a class already in its bucket, and each class
    reduced to canonical form once.  The default bound of 6 follows
    QUANDLE_MAX_ORDER; order 7 searches 1405 labelings.
    """
    check_order(n, DEFAULT_MAX_ORDER)
    leaves = map(Quandle, labeled_tables(n, _cycle_type_columns(n)))
    return Census(n, tuple(isomorphism_classes(leaves)))
