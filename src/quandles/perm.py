"""Permutations and small materialized permutation groups.

Composition is left-to-right everywhere in this package: ``p * q`` means
"apply p, then q", so permutations act on points on the right and
``(x * p) * q`` is the action of ``p * q`` on ``x``.  Every element list
returned here is sorted by image array, which keeps derived results
reproducible from run to run.

Groups carry their full element sets.  That is deliberate: the library
targets degrees up to about 7 (|S_7| = 5040), where exhaustive
representations are simpler to audit than stabilizer chains and still fast.
The conjugacy-class search over subgroups is the one genuinely heavy
operation; it runs on a vectorized index of S_n (see _SymmetricIndex),
the same cached index that quandle relabels tables by.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import HARD_MAX_ORDER, BoundError, ensure, resolve_bound

__all__ = [
    "Permutation",
    "PermGroup",
    "compose",
    "generate_group",
    "transitive_subgroups_up_to_conjugacy",
]


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {0..n-1}, stored as the tuple of images of 0, 1, ..., n-1."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = tuple(self.images)
        if bool in map(type, raw):
            raise TypeError(f"permutation images must be ints, not bools: {list(raw)}")
        images = tuple(map(operator.index, raw))
        object.__setattr__(self, "images", images)
        if not images:
            raise ValueError("degree 0 permutations are not supported")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {list(images)}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Permutation sending a -> b for consecutive entries of each cycle."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, exponent: int) -> "Permutation":
        result = Permutation.identity(self.degree)
        for _ in range(exponent % math.lcm(*self.cycle_type())):
            result = result * self
        return result

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for k, v in enumerate(self.images):
            images[v] = k
        return Permutation(tuple(images))

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(k == v for k, v in enumerate(self.images))

    def is_even(self) -> bool:
        return sum(length - 1 for length in self.cycle_type()) % 2 == 0

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of all cycles, fixed points included."""
        lengths = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = self.images[k]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = []
            k = start
            while not seen[k]:
                seen[k] = True
                cycle.append(k)
                k = self.images[k]
            out.append(tuple(cycle))
        return tuple(out)

    def __str__(self) -> str:
        parts = self.cycles()
        if not parts:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in parts)


def _as_point(point: object, degree: int) -> int:
    """The point as an int; ValueError unless it is a non-bool int in 0..degree-1."""
    is_int = isinstance(point, (int, np.integer)) and not isinstance(point, bool)
    if not (is_int and 0 <= point < degree):
        raise ValueError(f"point {point!r} is not an int in 0..{degree - 1}")
    return int(point)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right composition: apply p, then q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(q.images[v] for v in p.images))


def _close(generators: Sequence[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """Image tuples of the group the generators' image tuples generate (breadth-first)."""
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    cap = math.factorial(degree)
    while frontier:
        step = []
        for x in frontier:
            for g in generators:
                y = tuple([g[v] for v in x])  # x * g
                if y not in elements:
                    elements.add(y)
                    step.append(y)
        if len(elements) > cap:
            raise RuntimeError("closure exceeded |S_n|; corrupt permutation state")
        frontier = step
    return elements


def generate_group(generators: Iterable[Permutation], degree: int) -> "PermGroup":
    """The subgroup of S_degree generated; the trivial group for no generators."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    gens = sorted(set(generators))
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != group degree {degree}")
    elements = sorted(_close([g.images for g in gens], degree))
    return PermGroup(degree, tuple(gens), tuple(map(Permutation, elements)))


class PermGroup:
    """A subgroup of S_n with its element list fully materialized and sorted.

    Build instances with generate_group or PermGroup.from_elements; the
    constructor itself trusts its arguments.
    """

    __slots__ = ("degree", "generators", "elements", "_members")

    def __init__(
        self,
        degree: int,
        generators: tuple[Permutation, ...],
        elements: tuple[Permutation, ...],
    ):
        self.degree = int(degree)
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._members = frozenset(self.elements)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return generate_group((), degree)

    @classmethod
    def from_elements(cls, elements: Iterable[Permutation], degree: int) -> "PermGroup":
        """Group from a closed element set, with generators chosen greedily.

        The set is re-closed as a sanity check; a non-closed set raises.
        """
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group needs at least the identity")
        for e in elems:
            if e.degree != degree:
                raise ValueError(f"element degree {e.degree} != group degree {degree}")
        gens: list[Permutation] = []
        current = {tuple(range(degree))}
        for e in elems:
            if e.images not in current:
                gens.append(e)
                current = _close([g.images for g in gens], degree)
        if sorted(current) != [e.images for e in elems]:
            raise ValueError("element set is not closed under composition")
        return cls(degree, tuple(gens), tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={len(self.elements)})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self._members <= other._members

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a, b in itertools.combinations(self.generators, 2))

    def orbit(self, point: int) -> tuple[int, ...]:
        point = _as_point(point, self.degree)
        return tuple(sorted({p.images[point] for p in self.elements}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def center(self) -> list[Permutation]:
        """Elements commuting with the whole group, sorted."""
        return [x for x in self.elements if all(x * g == g * x for g in self.generators)]

    def stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing the point."""
        point = _as_point(point, self.degree)
        members = [p for p in self.elements if p(point) == point]
        stab = PermGroup.from_elements(members, self.degree)
        ensure(len(self) == len(stab) * len(self.orbit(point)), "orbit-stabilizer count fails")
        return stab


# ---------------------------------------------------------------------------
# Vectorized index of S_n and the subgroup-class search.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sym_index(n: int) -> "_SymmetricIndex":
    """The shared index of S_n; degrees above HARD_MAX_ORDER are refused."""
    if n > HARD_MAX_ORDER:
        raise BoundError(f"order {n} exceeds the hard bound {HARD_MAX_ORDER}")
    return _SymmetricIndex(n)


class _SymmetricIndex:
    """All of S_n in lexicographic order, with vectorized composition.

    Permutations are identified with their index into the lexicographic
    enumeration of image arrays; subgroups are sorted index arrays.  Image
    rows compose by fancy indexing and are mapped back to indices through
    the dense table rank, indexed by the row read as a base-n number, so no
    n! x n! multiplication table is ever materialized.  arr holds the image
    rows and inverse_rows the image rows of their inverses, both int8 and in
    lexicographic order of arr; the identity is index 0.
    """

    def __init__(self, n: int):
        self.n = n
        self.size = math.factorial(n)
        flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
        self.arr = np.fromiter(flat, dtype=np.int8, count=self.size * n).reshape(self.size, n)
        self.weights = np.array([n**k for k in range(n - 1, -1, -1)], dtype=np.int64)
        self.inverse_rows = np.argsort(self.arr, axis=1).astype(np.int8)
        self.identity = 0

    @cached_property
    def rank(self) -> np.ndarray:
        """rank[code] = index, n**n entries; built on first lookup only."""
        rank = np.zeros(self.n**self.n, dtype=np.int32)
        rank[self.arr.astype(np.int64) @ self.weights] = np.arange(self.size, dtype=np.int32)
        return rank

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the permutations whose image rows are given."""
        return self.rank[images.astype(np.int64) @ self.weights]

    def permutation(self, index: int) -> Permutation:
        return Permutation(tuple(int(v) for v in self.arr[index]))

    def closure(self, generators: Iterable[int], start: np.ndarray | None = None) -> np.ndarray:
        """Sorted element indices of the subgroup generated.

        start, when given, holds elements of the group generated, the
        identity among them (say the parent of a cyclic extension); the
        search then grows from all of them instead of the identity alone.
        """
        gens = sorted({int(g) for g in generators})
        frontier = np.array([self.identity], dtype=np.int64) if start is None else start
        seen = np.zeros(self.size, dtype=bool)
        seen[frontier] = True
        if not gens:
            return np.flatnonzero(seen)
        # compose(f, g)(x) = g(f(x)), so the composed row is g_row[f_row];
        # offsets pick generator j's row out of the flattened rows.
        gen_flat = self.arr[gens].reshape(-1)
        offsets = (np.arange(len(gens)) * self.n)[:, None, None]
        while frontier.size:
            fresh = np.zeros(self.size, dtype=bool)
            fresh[self.lookup(gen_flat[offsets + self.arr[frontier]])] = True
            fresh &= ~seen
            seen |= fresh
            frontier = fresh.nonzero()[0]
        return np.flatnonzero(seen)

    def orbit_minima(self, maps: Sequence[np.ndarray]) -> np.ndarray:
        """Least element of each orbit of the group the index maps generate, sorted.

        Min-label propagation: each label only falls, to the label of an
        element in the same orbit, until no map lowers any label.
        """
        label = np.arange(self.size)
        while True:
            before = label
            for m in maps:
                label = np.minimum(label, label[m])
            label = label[label]
            if np.array_equal(label, before):
                return np.flatnonzero(label == np.arange(self.size))

    def extension_reps(self, subgroup_gens: Sequence[int], normalizer: np.ndarray) -> np.ndarray:
        """One element g per class of cyclic extensions <H, g>, H left out.

        <H, g> depends only on the double coset H g H, and conjugating g by
        c in the normalizer N(H) conjugates <H, g> by c.  So the least
        element of each orbit of x -> h x and x -> c x c^-1 (h in H, c in
        N(H)) is enough; H itself is the orbit of the identity.
        """
        maps = [self.lookup(self.arr[h][self.arr]) for h in subgroup_gens]
        for c in self.greedy_generators(normalizer):
            maps.append(self.lookup(self.arr[c][self.arr[:, self.inverse_rows[c]]]))
        return self.orbit_minima(maps)[1:]

    def canonical_subgroup(
        self, elements: np.ndarray, generators: Sequence[int]
    ) -> tuple[tuple[int, ...], set[bytes], np.ndarray]:
        """Lexicographically least conjugate of the subgroup, over all of S_n.

        Returns (least, keys, normalizer): the sorted element indices of the
        least conjugate, the _subgroup_key of every conjugate g H g^-1 (the
        subgroup itself included), and the sorted normalizer of the least
        conjugate.  g H g^-1 depends only on the coset g H, so one g per
        coset is conjugated.  Big-endian keys of equal width order as their
        index lists do, so the least key is the least conjugate.
        """
        m = int(elements.size)
        rows = self.arr[elements]
        reps = self.orbit_minima([self.lookup(self.arr[:, self.arr[h]]) for h in generators])
        width = _KEY_DTYPE.itemsize * m
        conjugates: list[bytes] = []  # conjugates[i] is the key of g H g^-1, g = reps[i]
        chunk = max(1, (1 << 21) // (m * self.n))
        for start in range(0, reps.size, chunk):
            gs = reps[start : start + chunk]
            inv_rows = self.inverse_rows[gs]
            mid = rows[:, inv_rows].transpose(1, 0, 2)  # [B, m, n]: s(g^-1(x))
            out = self.arr[gs][np.arange(gs.size)[:, None, None], mid]  # g(s(g^-1(x)))
            idx = self.lookup(out)
            idx.sort(axis=1)
            raw = _subgroup_key(idx)
            conjugates.extend(raw[b : b + width] for b in range(0, len(raw), width))
        least = min(conjugates)
        # The g with g H g^-1 least form N c for any one of them, c; they
        # are the cosets g H of the hits.
        hits = reps[[i for i, key in enumerate(conjugates) if key == least]]
        cosets = self.arr[hits][:, rows[:, self.inverse_rows[hits[0]]]]  # g(h(c^-1(x)))
        normalizer = np.sort(self.lookup(cosets).reshape(-1))
        canon = tuple(int(v) for v in np.frombuffer(least, dtype=_KEY_DTYPE))
        return canon, set(conjugates), normalizer

    def greedy_generators(self, elements: np.ndarray) -> tuple[int, ...]:
        """Small generating set: scan sorted elements, keep what extends."""
        gens: list[int] = []
        closed = np.array([self.identity], dtype=np.int64)
        current = np.zeros(self.size, dtype=bool)
        current[closed] = True
        for e in elements:
            e = int(e)
            if current[e]:
                continue
            gens.append(e)
            closed = self.closure(gens, start=closed)
            current[closed] = True
            if closed.size == elements.size:
                break
        return tuple(gens)


# Indices below 65536 cover S_n up to HARD_MAX_ORDER = 8 (8! = 40320).
_KEY_DTYPE = np.dtype(">u2")


def _subgroup_key(elements: np.ndarray) -> bytes:
    """Fixed-width big-endian bytes of sorted index arrays (row-major if 2-D)."""
    return np.ascontiguousarray(elements, dtype=_KEY_DTYPE).tobytes()


@lru_cache(maxsize=None)
def _subgroup_classes(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Conjugacy-class representatives of all subgroups of S_n.

    Entries are (elements, generators) index tuples, elements being the
    lexicographically least conjugate in the class, sorted by (order,
    elements).  Search (cyclic extension): extend each class
    representative H by one new element g, one per N(H)-orbit of H-double
    cosets (extension_reps), and close, growing the closure from H.  The
    keys of every conjugate of every class found so far form one set, so a
    closure outside it is a new class, and each class is canonicalized
    exactly once.
    """
    idx = _sym_index(n)
    classes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    pending: list[tuple[np.ndarray, tuple[int, ...], np.ndarray]] = []
    known: set[bytes] = set()

    def add_class(elements: np.ndarray, generators: tuple[int, ...]) -> None:
        canon, conjugates, normalizer = idx.canonical_subgroup(elements, generators)
        ensure(known.isdisjoint(conjugates), "a closure was neither known nor a new class")
        known.update(conjugates)
        canon_arr = np.array(canon, dtype=np.int64)
        gens = idx.greedy_generators(canon_arr)
        classes.append((canon, gens))
        pending.append((canon_arr, gens, normalizer))

    add_class(np.array([idx.identity], dtype=np.int64), ())
    while pending:
        rep_arr, gens, normalizer = pending.pop()
        for g in idx.extension_reps(gens, normalizer):
            extended = gens + (int(g),)
            new = idx.closure(extended, start=rep_arr)
            if _subgroup_key(new) not in known:
                add_class(new, extended)
    return tuple(sorted(classes, key=lambda entry: (len(entry[0]), entry[0])))


@lru_cache(maxsize=None)
def _transitive_class_groups(n: int) -> tuple[PermGroup, ...]:
    idx = _sym_index(n)
    groups = []
    for elements, gens in _subgroup_classes(n):
        element_arr = np.array(elements, dtype=np.int64)
        if len(set(int(v) for v in idx.arr[element_arr, 0])) != n:
            continue
        # The search closed the elements and chose the generators greedily
        # in index order, which is Permutation order: what from_elements
        # would recompute.
        perms = tuple(idx.permutation(e) for e in elements)
        groups.append(PermGroup(n, tuple(idx.permutation(g) for g in gens), perms))
    return tuple(groups)


def transitive_subgroups_up_to_conjugacy(n: int) -> list[PermGroup]:
    """One representative per conjugacy class of transitive subgroups of S_n.

    Each representative is the lexicographically least conjugate of its
    class and the list is sorted by (order, element list), so the result is
    fully deterministic.  The first call for a degree runs the subgroup-class
    search (about 0.2 s at degree 6 and 2 s at degree 7 on 2 vCPUs); later
    calls reuse its cached result.
    The degree bound defaults to 7 and follows QUANDLE_MAX_ORDER.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    bound = resolve_bound(7)
    if n > bound:
        raise BoundError(f"degree {n} exceeds the configured bound {bound}")
    return list(_transitive_class_groups(n))
