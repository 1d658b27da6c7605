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
fixes 0 turns S_0 into its conjugate sigma S_0 sigma^-1, and any two
permutations fixing 0 of one cycle type are conjugate by such a sigma.  So
every class has a labeling whose S_0 is the pin of its type, the
lex-greatest permutation fixing 0 of that type, and no other column has a
larger type.  With S_0 of type tau pinned, labeled_tables offers every
other point only the candidate columns of type at most tau.  Forced
columns need no filter: S_{b > c} is a conjugate of S_b, so it has S_b's
type.  The identity pin then yields only the trivial quandle.

Under one pin the search is orderly (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Let C be the relabelings sigma that
fix 0 and commute with the pin, read off the candidate columns at 0.  Each
maps a labeling of the pinned search to another one: the column at
sigma(z) becomes the conjugate sigma S_z sigma^-1, under which sigma(x)
goes to sigma(S_z(x)); it fixes sigma(z) and keeps S_z's type, and S_0
stays the pin.  Labelings are ordered by their column tuple
(S_1, ..., S_{n-1}), and the search keeps the least of each C-orbit by two
tests.  The branch test: where the search branches at y, it offers S_y
only if no sigma in C that fixes every point up to y and commutes with
every column below y gives a smaller sigma S_y sigma^-1.  Such a sigma
maps the labeling to one that agrees on columns 1..y-1 and has that
conjugate at y, so a column that fails cannot start an orbit's least
member.  Every column below y counts, forced or branched, but a sigma that
fixes b and c and commutes with S_b and S_c also fixes b > c = S_c(b) and
commutes with S_{b > c}, so the search narrows the stabilizer at the
branched points alone.  Narrowing it by the points but not their columns
is unsound: it loses one orbit at order 7, and 25 orbits and 8 of the 1581
classes at order 8.  The leaf test: a completed labeling is kept only if
no sigma in C gives a smaller column tuple.  Both tests keep each orbit's
least member, so every class keeps a leaf, and the leaf test keeps nothing
else, so the leaves under one pin are one per C-orbit.

Each leaf is validated and handed to quandle.isomorphism_classes, which
buckets it by its sorted point signatures (per point: the cycle type of
its column and how often its row holds itself), both read off the table.
A leaf is a new class unless the isomorphism search maps a class already
in its bucket onto it (isomorph rejection by testing against the known
classes); each class is reduced to canonical form once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from .config import DEFAULT_MAX_ORDER, check_order, check_type
from .quandle import Quandle, _cycle_type, isomorphism_classes

__all__ = ["Census", "enumerate_all", "count_connected"]


@dataclass(frozen=True)
class Census:
    """All isomorphism classes of one order, canonical forms sorted.

    Census(tables) refuses a table that is not a Quandle with TypeError, and
    no tables or tables of two orders with ValueError: every order has the
    trivial quandle.  Any iterable of tables is kept as a tuple, so a Census
    is hashable.  order and connected_flags are derived: the tables' order
    and each table's is_connected().
    """

    order: int = field(init=False)
    tables: tuple[Quandle, ...]
    connected_flags: tuple[bool, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        tables = tuple(self.tables)
        for q in tables:
            check_type(q, Quandle)
        if not tables:
            raise ValueError("a census needs at least one table")
        order = tables[0].order
        for q in tables:
            if q.order != order:
                raise ValueError(f"a table of order {q.order} in a census of order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "connected_flags", tuple(q.is_connected() for q in tables))

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


def _search(
    n: int, offered: list[list[tuple[int, ...]]], symmetries: Sequence[tuple[int, ...]] = ()
) -> list[tuple[tuple[int, ...], ...]]:
    """Every completed table, point y taking only columns from offered[y].

    Backtracks over symmetry columns with rack-condition propagation.  With
    symmetries (the relabelings C of the module docstring, which map the
    search space onto itself), only the least table of each orbit is kept,
    by the branch and leaf tests.
    """
    columns: list[tuple[int, ...] | None] = [None] * n
    leaves: list[tuple[tuple[int, ...], ...]] = []
    products: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    # The columns offered at y that pass the branch test, per (y, *stabilizer).
    menus: dict[tuple, list[tuple[int, ...]]] = {}

    def conjugate(outer: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
        # The conjugate of images by outer: outer(x) goes to outer(images(x)).
        # Memoized, as every pair recurs across the search.
        out = products.get((outer, images))
        if out is None:
            required = [0] * n
            for x in range(n):
                required[outer[x]] = outer[images[x]]
            out = products[outer, images] = tuple(required)
        return out

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
                    # S_target must equal S_second^-1 * S_first * S_second:
                    # as maps, S_second(x) goes to S_second(S_first(x)).
                    required = conjugate(col_second, col_first)
                    existing = columns[target]
                    if existing is None:
                        if required[target] != target:
                            return False
                        columns[target] = required
                        trail.append(target)
                        queue.append(target)
                    elif existing != required:
                        return False
        return True

    def least_in_orbit() -> bool:
        # The leaf test: no sigma gives a smaller column tuple.  The table
        # relabeled by sigma has at z the conjugate of the column at sigma^-1(z).
        for sigma in symmetries:
            for z in range(1, n):
                relabeled = conjugate(sigma, columns[sigma.index(z)])
                if relabeled != columns[z]:
                    if relabeled < columns[z]:
                        return False
                    break
        return True

    def descend(y: int, stabilizer: Sequence[tuple[int, ...]]) -> None:
        # stabilizer: the symmetries that fix every point below y and commute
        # with its column; those that do so at the branched points do so at
        # the forced ones too.
        while y < n and columns[y] is not None:
            y += 1
        if y == n:
            if least_in_orbit():
                leaves.append(tuple(tuple(column[x] for column in columns) for x in range(n)))
            return
        stabilizer = [s for s in stabilizer if s[y] == y]
        key = (y, *stabilizer)
        if key not in menus:
            # The branch test: S_y is least among its conjugates by the stabilizer.
            menus[key] = [c for c in offered[y] if all(c <= conjugate(s, c) for s in stabilizer)]
        for images in menus[key]:
            trail: list[int] = []
            if place(y, images, trail):
                descend(y + 1, [s for s in stabilizer if conjugate(s, images) == images])
            for point in trail:
                columns[point] = None

    descend(0, symmetries)
    # descend's closure refers to itself, so the memos would otherwise live
    # on until the cyclic garbage collector runs.
    products.clear()
    menus.clear()
    return leaves


def _cycle_type_columns(n: int) -> list[tuple[int, ...]]:
    """One permutation fixing 0 per cycle type, as image tuples: the lex-greatest of each."""
    # Any one permutation per type is sound; the lex-least pins make the column
    # search about 40% slower at order 7 and 75% slower at order 8.
    columns = ((0, *rest) for rest in itertools.permutations(range(1, n)))
    return list({_cycle_type(c): c for c in columns}.values())


def labeled_tables(
    n: int, first_columns: list[tuple[int, ...]] | None = None
) -> list[tuple[tuple[int, ...], ...]]:
    """Quandle tables on points 0..n-1, sorted.

    By default every labeling.  With first_columns (each a permutation
    fixing 0), only the tables whose column at 0 is one of them and has the
    largest cycle type of any column, one per orbit of the relabelings that
    fix 0 and commute with that column: the one whose column tuple is least.
    """
    candidates = _column_candidates(n)
    if first_columns is None:
        tables = _search(n, candidates)
    else:
        types = {c: _cycle_type(c) for column in candidates for c in column}
        tables = []
        for first in first_columns:
            pin = types[first]
            offered = [[c for c in column if types[c] <= pin] for column in candidates[1:]]
            centralizer = [
                s for s in candidates[0] if all(s[first[x]] == first[s[x]] for x in range(n))
            ]
            tables += _search(n, [[first]] + offered, centralizer)
    tables.sort()
    return tables


def enumerate_all(n: int) -> Census:
    """Census of all quandles of order n up to isomorphism.

    Searches only the labelings whose column 0 is the pin of the largest
    cycle type in the table, one per orbit of the pin's centralizer among
    the relabelings fixing 0, validates each, and sorts them into classes by
    isomorphism_classes: bucketed by their sorted point signatures, one kept
    unless it is isomorphic to a class already in its bucket, and each class
    reduced to canonical form once.  The default bound of 6 follows
    QUANDLE_MAX_ORDER; order 7 searches 389 labelings.
    """
    check_order(n, DEFAULT_MAX_ORDER)
    leaves = map(Quandle, labeled_tables(n, _cycle_type_columns(n)))
    return Census(isomorphism_classes(leaves))
