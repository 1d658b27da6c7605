"""Finite quandles as operation tables, with axiom checking and isomorphism.

A quandle of order n is stored as an n x n table of ints where
``table[x][y]`` is the result of acting on x by y (written x > y below).
The three axioms:

  1. idempotence:         x > x == x
  2. right invertibility: for each y, the map x -> x > y is a bijection
  3. self-distributivity: (a > b) > c == (a > c) > (b > c)

The map x -> x > y (column y read down the rows) is the symmetry at y; axiom
2 says each symmetry is a permutation and axiom 3 says symmetries conjugate
each other the way their base points act.  The group generated by all
symmetries is the inner group; its orbits partition the quandle, and the
quandle is connected when the inner group is transitive.  An orbit is the
closure of a point under the rows, so orbits() reads them off the table in
O(n^2) without building the group; is_connected builds it.

A Quandle is immutable and each structure derived from its table is a
function of the table alone, so there is one cache per table among live
quandles: the symmetries, the inner group, the orbits, the point
signatures, the automorphism group, the canonical form, the orbit
decomposition (stored there by decompose.decompose), which in turn keeps
the reassembled quandle, the canonical hom (augment.canonical_hom), and
the generator assignments out of the table proved to be homs (recorded by
augment.check_gamma_hom).  Each is built at most once while a quandle with
that table lives.  Every construction, copies and unpickled quandles
included, still validates its own entries.  A cache dies with the last
quandle of its table, or at the next gc run when a cycle runs through it.
Methods returning lists return fresh copies.

The canonical form is the least relabeled table, compared in row-major
order, found by branch and bound over lazily assigned labels.

- Constant rows come first.  A point with x > y = x for every y is a
  singleton orbit, and its row is constant.  Symmetries fix singletons,
  so x > y is a singleton only when x is.  If labels 0..i-1 belong to
  singletons, every cell of row i is therefore at least i: a singleton
  at label i makes the row all i, and any other point puts a cell above
  i.  So the s singletons take labels 0..s-1, and rows 0..s-1 are fixed.
- The search starts at row s.  Its point branches over the other points.
  Read left to right, column j's point comes from its pool (singletons
  for j < s, the others for j >= s), and only the choices that give the
  least cell value are kept.  A cell value with no label yet takes the
  next free label of its pool, the least it can take, so that label is
  forced.  Row s needs every column's point, so it fixes the labelling;
  the later rows only decide between branches.
- Row s's point is tried once per inner orbit, at its least point: every
  symmetry is an automorphism (axiom 3), and points that an automorphism
  swaps give equal tables.  The starts come from orbits(), so no group
  is built.
- Points whose transposition is an automorphism are twins.  Twins give
  equal tables, so at each later cell one per twin class is tried.  They
  add nothing at row s: a transposition (a b) that is an automorphism
  maps a's orbit onto b's and fixes the rest of it, so non-singleton
  twins share an orbit.
- A branch stops as soon as its prefix exceeds the best table so far.

Isomorphisms and automorphisms come from one backtracking search over
point images, and isomorphism_classes sorts any collection of quandles
into classes through it.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .config import check_int, check_order, check_type, ensure, is_int
from .perm import PermGroup, Permutation, _as_point, _cycle_type, generate_group

__all__ = [
    "Quandle",
    "AxiomViolation",
    "IdempotenceViolation",
    "InvertibilityViolation",
    "DistributivityViolation",
    "RangeViolation",
    "axiom_violations",
    "is_quandle_table",
    "isomorphism_classes",
    "trivial_quandle",
    "dihedral_quandle",
]


@dataclass(frozen=True)
class AxiomViolation:
    """Base class; subclasses pinpoint the first offending cell or column."""

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RangeViolation(AxiomViolation):
    row: int
    col: int
    value: object

    def describe(self) -> str:
        return f"entry at ({self.row}, {self.col}) is {self.value!r}, not a point of the quandle"


@dataclass(frozen=True)
class IdempotenceViolation(AxiomViolation):
    point: int

    def describe(self) -> str:
        return f"{self.point} acted on by itself moves away from itself"


@dataclass(frozen=True)
class InvertibilityViolation(AxiomViolation):
    column: int

    def describe(self) -> str:
        return f"acting by {self.column} is not a bijection"


@dataclass(frozen=True)
class DistributivityViolation(AxiomViolation):
    a: int
    b: int
    c: int

    def describe(self) -> str:
        return (
            f"(({self.a} > {self.b}) > {self.c}) != (({self.a} > {self.c}) > ({self.b} > {self.c}))"
        )


def _violations(table: Sequence[Sequence[int]]) -> Iterator[AxiomViolation]:
    """Every axiom failure in the table, lazily, in a fixed scan order.

    Range errors come first; structural axioms are only checked on in-range
    tables so the checks cannot raise: idempotence, then invertibility, then
    distributivity in (a, b, c) order.  An empty or ragged table is not a
    table of any order and raises ValueError.  The structural axioms are
    read off whole columns, so a valid table costs one pass over them, and
    a caller that stops at the first failure holds O(n^2) memory.
    """
    found, columns = _violations_before_distributivity(table)
    yield from found
    yield from _distributivity_violations(table, _failing_pairs(columns))


def _violation_listing(
    table: Sequence[Sequence[int]], limit: int
) -> tuple[list[AxiomViolation], int]:
    """The first limit violations of _violations(table), and how many there are in all.

    Both come from one pass over the column pairs; the rest are counted,
    not built.
    """
    found, columns = _violations_before_distributivity(table)
    failing = _failing_pairs(columns)
    every = itertools.chain(found, _distributivity_violations(table, failing))
    return list(itertools.islice(every, limit)), len(found) + sum(k for _, _, k in failing)


def _violations_before_distributivity(
    table: Sequence[Sequence[int]],
) -> tuple[list[AxiomViolation], tuple[tuple[int, ...], ...]]:
    """(range errors, ()) for a table with any, else (failures, columns).

    Column y is S_y.  The failures are those of idempotence (S_y fixes y)
    and then of invertibility (S_y is a bijection).
    """
    n = len(table)
    if not n:
        raise ValueError("a quandle needs at least one point")
    for x, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {x} has length {len(row)}, expected {n}")
    out_of_range = [
        RangeViolation(x, y, int(value) if is_int(value) else value)
        for x, row in enumerate(table)
        for y, value in enumerate(row)
        if not (is_int(value) and 0 <= value < n)
    ]
    if out_of_range:
        return out_of_range, ()
    columns = tuple(zip(*table))
    found: list[AxiomViolation] = [
        IdempotenceViolation(y) for y, col in enumerate(columns) if col[y] != y
    ]
    found += [InvertibilityViolation(y) for y, col in enumerate(columns) if len(set(col)) != n]
    return found, columns


def _failing_pairs(columns: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
    """Each (b, c, mismatches) of an in-range table whose two columns differ.

    (a > b) > c == (a > c) > (b > c) for every a at once says that S_b then
    S_c equals S_c then S_{b > c}.  The a where the two columns differ are
    the distributivity failures at (b, c), and mismatches counts them; the
    n^3 cells are compared in C.
    """
    acts = [itemgetter(*column) for column in columns]
    failing = []
    for b, act in enumerate(acts):
        for c, column in enumerate(columns):
            lhs, rhs = act(column), acts[c](columns[column[b]])
            if lhs != rhs:
                failing.append((b, c, sum(map(ne, lhs, rhs))))
    return failing


def _distributivity_violations(
    table: Sequence[Sequence[int]], failing: list[tuple[int, int, int]]
) -> Iterator[DistributivityViolation]:
    """The distributivity failures in (a, b, c) order: each a against the failing (b, c)."""
    for a, row in enumerate(table):
        for b, c, _ in failing:
            if table[row[b]][c] != table[row[c]][table[b][c]]:
                yield DistributivityViolation(a, b, c)


def axiom_violations(table: Sequence[Sequence[int]]) -> list[AxiomViolation]:
    """Every axiom failure in the table, in the order _violations finds them."""
    return list(_violations(table))


def is_quandle_table(table: Sequence[Sequence[int]]) -> bool:
    return next(_violations(table), None) is None


def _fixes(table: Sequence[Sequence[int]], s: Sequence[int]) -> bool:
    """Whether relabeling by the images s maps the table onto itself."""
    n = len(table)
    return all(s[table[x][y]] == table[s[x]][s[y]] for x in range(n) for y in range(n))


class _Cache(dict):
    """The structures derived from one table; a dict the registry can weakly reference."""

    __slots__ = ("__weakref__",)


# Normalized table -> the cache shared by the live quandles with that table.
# A Quandle looks its cache up only after validating its own raw entries.
_caches = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Quandle:
    """Immutable finite quandle over points 0..n-1.

    The constructor validates all three axioms and raises ValueError naming
    the first violation, where the scan stops; use axiom_violations directly
    to collect all of them from a raw table.  Equality and hashing use the
    table only.  The cache is a slot, not a field, and is shared by every
    live quandle with an equal table; the quandles themselves stay distinct
    objects.
    """

    __slots__ = ("table", "_cache")
    table: tuple[tuple[int, ...], ...]

    def __init__(self, table: Sequence[Sequence[int]]):
        rows = tuple(map(tuple, table))
        # The raw entries are checked, so a float, string or bool is a range
        # violation; numpy ints pass and become ints.
        bad = next(_violations(rows), None)
        if bad is not None:
            raise ValueError(f"not a quandle: {bad.describe()}")
        table = tuple(tuple(map(int, row)) for row in rows)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_cache", _caches.setdefault(table, _Cache()))

    def __reduce__(self) -> tuple:
        # Copies and unpickling go back through the axiom check in __init__
        # and share the cache of their table.
        return Quandle, (self.table,)

    @property
    def order(self) -> int:
        return len(self.table)

    def __len__(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        """x > y."""
        return self.table[_as_point(x, self.order)][_as_point(y, self.order)]

    def __repr__(self) -> str:
        return f"Quandle(order={self.order})"

    # -- symmetries and the inner group ------------------------------------

    def symmetry(self, y: int) -> Permutation:
        """The permutation x -> x > y."""
        return self._symmetries()[_as_point(y, self.order)]

    def symmetries(self) -> list[Permutation]:
        return list(self._symmetries())

    def _symmetries(self) -> tuple[Permutation, ...]:
        if "symmetries" not in self._cache:
            self._cache["symmetries"] = tuple(map(Permutation, zip(*self.table)))
        return self._cache["symmetries"]

    def inner_group(self) -> PermGroup:
        """Group generated by all symmetries."""
        if "inner" not in self._cache:
            self._cache["inner"] = generate_group(self.symmetries(), self.order)
        return self._cache["inner"]

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the inner group, each sorted, ordered by least point.

        Each is the closure of a point under the rows, x going to each
        x > y: closure under every symmetry, as each has finite order.
        Each row is read once; no group is built.
        """
        if "orbits" not in self._cache:
            seen: set[int] = set()
            out = []
            for x in range(self.order):
                if x in seen:
                    continue
                orbit, frontier = {x}, [x]
                while frontier:
                    grown = set(self.table[frontier.pop()]) - orbit
                    orbit |= grown
                    frontier += grown
                seen |= orbit
                out.append(tuple(sorted(orbit)))
            self._cache["orbits"] = out
        return list(self._cache["orbits"])

    def is_connected(self) -> bool:
        """Whether the inner group is transitive, as the paper defines it; this builds the group."""
        return self.inner_group().is_transitive()

    def is_trivial(self) -> bool:
        """Every symmetry is the identity."""
        return all(self.table[x][y] == x for x in range(self.order) for y in range(self.order))

    # -- relabeling, isomorphism, automorphisms ----------------------------

    def relabel(self, sigma: Permutation) -> "Quandle":
        """The isomorphic quandle with x renamed to sigma(x).

        The new table satisfies new[sigma(x)][sigma(y)] = sigma(old[x][y]).
        """
        check_type(sigma, Permutation)
        if sigma.degree != self.order:
            raise ValueError(f"permutation degree {sigma.degree} != order {self.order}")
        s, inv = sigma.images, sigma.inverse().images
        t = self.table
        return Quandle(tuple(tuple(s[t[a][b]] for b in inv) for a in inv))

    def subquandle(self, points: Sequence[int]) -> "Quandle":
        """Induced quandle on a closed point set, relabeled to 0..k-1 in order."""
        pts = sorted({_as_point(p, self.order) for p in points})
        index = {p: k for k, p in enumerate(pts)}
        for x in pts:
            for y in pts:
                if self.table[x][y] not in index:
                    raise ValueError(f"{x} > {y} leaves the point set")
        return Quandle(tuple(tuple(index[self.table[x][y]] for y in pts) for x in pts))

    def is_automorphism(self, sigma: Permutation) -> bool:
        check_type(sigma, Permutation)
        if sigma.degree != self.order:
            return False
        return _fixes(self.table, sigma.images)

    def automorphism_group(self) -> PermGroup:
        """All relabelings fixing the table: the isomorphism search onto itself.

        Orders above HARD_MAX_ORDER are refused; the trivial quandle of
        order n has all n! permutations as automorphisms.
        """
        check_order(self.order)
        if "aut" not in self._cache:
            group = PermGroup(tuple(self._isomorphisms(self)))
            ensure(self.inner_group().is_subgroup_of(group), "inner group is not inside Aut")
            self._cache["aut"] = group
        return self._cache["aut"]

    def canonical_form(self) -> "Quandle":
        """Least table among all relabelings; equal iff isomorphic."""
        if "canon" not in self._cache:
            starts = [orbit[0] for orbit in self.orbits() if len(orbit) > 1]
            canon = _canonical_table(self.table, self._twin_classes(), starts)
            self._cache["canon"] = Quandle(canon)
        return self._cache["canon"]

    def is_isomorphic(self, other: "Quandle") -> bool:
        return self.find_isomorphism(other) is not None

    def find_isomorphism(self, other: "Quandle") -> Permutation | None:
        """Lexicographically least sigma with other == self.relabel(sigma), or None."""
        check_type(other, Quandle)
        return next(self._isomorphisms(other), None)

    def _signatures(self) -> list[tuple]:
        """Each point's isomorphism invariants, read off the table alone.

        For x: the cycle type of its symmetry S_x, and how many y have
        x > y == x.  A relabeling sigma moves x's signature to sigma(x).
        The cycle types of S_v over the values v = x > y of row x add
        nothing: S_{x > y} = S_y^-1 S_x S_y has S_x's cycle type.
        """
        if "signatures" not in self._cache:
            self._cache["signatures"] = [
                (_cycle_type(column), row.count(x))
                for x, (row, column) in enumerate(zip(self.table, zip(*self.table)))
            ]
        return self._cache["signatures"]

    def _twin_classes(self) -> list[int]:
        """For each point x, the least point whose transposition with x is an automorphism.

        Twins form classes: if (a b) and (b c) are automorphisms, so is their
        conjugate (a c).  Only points with equal signatures can be twins.
        """
        n, sig = self.order, self._signatures()
        twin = list(range(n))
        for a, b in itertools.combinations(range(n), 2):
            if twin[a] == a and twin[b] == b and sig[a] == sig[b]:
                images = list(range(n))
                images[a], images[b] = b, a
                if _fixes(self.table, images):
                    twin[b] = a
        return twin

    def _isomorphisms(self, other: "Quandle") -> Iterator[Permutation]:
        """Every sigma with other == self.relabel(sigma), in lexicographic order.

        Backtracking over point images, pruned by matching each point's
        invariants (its signature, see _signatures).  Each cell
        (a, b) is checked once, when the last of a, b and a > b gets its
        image, so a full assignment is an isomorphism.  The cell check is a
        flat loop over the (a, b, a > b) triples of the level.
        """
        if self.order != other.order:
            return
        n = self.order
        sig_self = self._signatures()
        sig_other = other._signatures()
        if sorted(sig_self) != sorted(sig_other):
            return
        t, u = self.table, other.table
        # cells[x]: the cells (a, b, a > b) for which x is the last of a, b, a > b.
        cells: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            c = t[a][b]
            cells[max(a, b, c)].append((a, b, c))
        # candidates[x]: the images with x's invariants, in increasing order.
        candidates = [[y for y in range(n) if sig_other[y] == sig] for sig in sig_self]
        s: list[int] = []
        used = [False] * n

        def extend(x: int) -> Iterator[Permutation]:
            if x == n:
                yield Permutation(tuple(s))
                return
            checks = cells[x]
            for image in candidates[x]:
                if used[image]:
                    continue
                s.append(image)
                for a, b, c in checks:
                    if u[s[a]][s[b]] != s[c]:
                        break
                else:
                    used[image] = True
                    yield from extend(x + 1)
                    used[image] = False
                s.pop()

        try:
            yield from extend(0)
        finally:
            # extend's closure refers to itself; break the cycle once the
            # search is exhausted or dropped.
            del extend


def isomorphism_classes(quandles: Iterable[Quandle]) -> list[Quandle]:
    """The canonical forms of the isomorphism classes among the quandles, sorted by table.

    Each quandle goes into a bucket keyed by its sorted point signatures, an
    isomorphism invariant read off the table.  It is a new class unless the
    isomorphism search maps a class already in its bucket onto it; each
    class is reduced to canonical form once.  A member that is not a
    Quandle raises TypeError.
    """
    buckets: dict[tuple[tuple, ...], list[Quandle]] = {}
    for q in quandles:
        check_type(q, Quandle)
        bucket = buckets.setdefault(tuple(sorted(q._signatures())), [])
        if not any(known.is_isomorphic(q) for known in bucket):
            bucket.append(q)
    forms = [q.canonical_form() for bucket in buckets.values() for q in bucket]
    return sorted(forms, key=lambda q: q.table)


def _canonical_table(
    table: tuple[tuple[int, ...], ...], twin: Sequence[int], starts: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Least relabeled table in row-major order, by the search in the module docstring.

    The search starts once at each point of starts, the least point of
    each inner orbit of more than one point, and twin[x] names the twin
    class of x for the later cells.  label maps points to labels and
    point maps labels back; -1 is unlabelled.  Labels are handed out in
    order within each pool, so the next free label of the non-singleton
    pool is nxt, and a column j >= s without a point has j == nxt.  The
    search fills cells, row s so far, and keeps rows s..n-1 of the least
    table found in best.
    """
    n = len(table)
    singles = [x for x in range(n) if table[x].count(x) == n]
    others = [x for x in range(n) if table[x].count(x) < n]
    s = len(singles)
    label = [-1] * n
    point = [-1] * n
    cells: list[int] = []
    best: list[tuple[int, ...]] | None = None
    nxt = s

    def one_per_twin_class(points: list[int]) -> list[int]:
        firsts: dict[int, int] = {}
        for x in points:
            firsts.setdefault(twin[x], x)
        return list(firsts.values())

    def finish(tight: bool) -> None:
        # All labels are set; tight means row s equals the best's row s.
        nonlocal best
        rows = [tuple(cells)]
        for i in range(s + 1, n):
            source = table[point[i]]
            row = tuple([label[source[y]] for y in point])
            if tight:
                if row > best[i - s]:
                    return
                tight = row == best[i - s]
            rows.append(row)
        if not tight:
            best = rows

    def extend(j: int, tight: bool) -> None:
        # Cell (s, j); tight means cells equals the best's row s so far.
        nonlocal nxt
        if j == n:
            finish(tight)
            return
        source = table[point[s]]
        if point[j] >= 0:
            choices = [point[j]]
        else:
            free = [y for y in (singles if j < s else others) if label[y] < 0]
            # An unlabelled value would take a label above all given ones.
            values = [label[source[y]] if label[source[y]] >= 0 else n for y in free]
            least = min(values)
            choices = one_per_twin_class([y for y, v in zip(free, values) if v == least])
        for y in choices:
            start = nxt
            labelled = []
            for p in (y, source[y]):
                if label[p] < 0:
                    lab = j if p == y else nxt
                    label[p], point[lab] = lab, p
                    labelled.append(p)
                    if lab == nxt:
                        nxt += 1
            value = label[source[y]]
            if not (tight and value > best[0][j]):
                held = best
                cells.append(value)
                extend(j + 1, tight and value == best[0][j])
                cells.pop()
                # The choices tie at this cell, so a new best found under one
                # of them shares the prefix the later choices compare against.
                if best is not held:
                    tight = True
            for p in labelled:
                point[label[p]] = -1
                label[p] = -1
            nxt = start

    for x in starts:
        label[x], point[s] = s, x
        nxt = s + 1
        extend(0, best is not None)
        label[x] = point[s] = -1
    # extend's closure refers to itself; without it the search's state
    # would live on until the cyclic garbage collector runs.
    del extend
    return tuple((i,) * n for i in range(s)) + tuple(best or ())


def trivial_quandle(n: int) -> Quandle:
    """Order n with x > y = x for all x, y."""
    check_int(n)
    return Quandle(tuple(tuple(x for _ in range(n)) for x in range(n)))


def dihedral_quandle(n: int) -> Quandle:
    """Reflections of a regular n-gon: x > y = (2y - x) mod n."""
    check_int(n)
    if n < 1:
        raise ValueError("order must be at least 1")
    return Quandle(tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n)))
