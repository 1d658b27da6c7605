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

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import HARD_MAX_ORDER, BoundError, resolve_bound

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
        images = tuple(int(v) for v in self.images)
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
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Permutation.identity(self.degree)
        for _ in range(exponent):
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


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right composition: apply p, then q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(q.images[v] for v in p.images))


def _close(generators: Sequence[Permutation], degree: int) -> set[Permutation]:
    """Closure of the generators under composition (breadth-first)."""
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    cap = math.factorial(degree)
    while frontier:
        step = []
        for x in frontier:
            for g in generators:
                y = x * g
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
    elements = _close(gens, degree)
    return PermGroup(degree, tuple(gens), tuple(sorted(elements)))


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
        current: set[Permutation] = {Permutation.identity(degree)}
        for e in elems:
            if e not in current:
                gens.append(e)
                current = _close(gens, degree)
        if sorted(current) != elems:
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
        return tuple(sorted({p(point) for p in self.elements}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def center(self) -> list[Permutation]:
        """Elements commuting with the whole group, sorted."""
        return [x for x in self.elements if all(x * g == g * x for g in self.generators)]

    def stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing the point."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        members = [p for p in self.elements if p(point) == point]
        stab = PermGroup.from_elements(members, self.degree)
        assert len(self) == len(stab) * len(self.orbit(point))
        return stab

    def right_cosets(self, subgroup: "PermGroup") -> list[tuple[Permutation, list[Permutation]]]:
        """Right cosets H*x as (representative, sorted members), ordered by least member.

        The representative is the least member, so the coset of H itself is
        represented by the identity.
        """
        if not subgroup.is_subgroup_of(self):
            raise ValueError("argument is not a subgroup of this group")
        assigned: set[Permutation] = set()
        cosets = []
        for x in self.elements:
            if x in assigned:
                continue
            members = sorted(h * x for h in subgroup.elements)
            assigned.update(members)
            cosets.append((members[0], members))
        return cosets


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
    rows compose by fancy indexing and are mapped back to indices through a
    base-n code, so no n! x n! multiplication table is ever materialized.
    arr holds the image rows and inverse_rows the image rows of their
    inverses, both int8 and in lexicographic order of arr.
    """

    def __init__(self, n: int):
        self.n = n
        self.size = math.factorial(n)
        flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
        self.arr = np.fromiter(flat, dtype=np.int8, count=self.size * n).reshape(self.size, n)
        self.weights = np.array([n**k for k in range(n - 1, -1, -1)], dtype=np.int64)
        self.codes = self.arr.astype(np.int64) @ self.weights
        self.inverse_rows = np.argsort(self.arr, axis=1).astype(np.int8)
        self.identity = int(self.lookup(np.arange(n, dtype=np.int8).reshape(1, n))[0])

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the permutations whose image rows are given."""
        return np.searchsorted(self.codes, images.astype(np.int64) @ self.weights)

    def permutation(self, index: int) -> Permutation:
        return Permutation(tuple(int(v) for v in self.arr[index]))

    def closure(self, generators: Iterable[int]) -> np.ndarray:
        """Sorted element indices of the subgroup generated."""
        gens = sorted({int(g) for g in generators})
        seen = np.zeros(self.size, dtype=bool)
        seen[self.identity] = True
        if not gens:
            return np.flatnonzero(seen)
        gen_rows = [self.arr[g] for g in gens]
        frontier = np.array([self.identity], dtype=np.int64)
        while frontier.size:
            rows = self.arr[frontier]
            # compose(f, g)(x) = g(f(x)), so the composed row is g_row[f_row].
            step = np.unique(np.concatenate([self.lookup(row[rows]) for row in gen_rows]))
            new = step[~seen[step]]
            seen[new] = True
            frontier = new
        return np.flatnonzero(seen)

    def double_coset(self, subgroup_rows: np.ndarray, g: int) -> np.ndarray:
        """Element indices of the double coset H g H, H given by its image rows."""
        hg = self.lookup(self.arr[g][subgroup_rows])
        hgh = subgroup_rows[:, self.arr[hg]]  # [|H|, |Hg|, n]: h' applied after hg
        return np.unique(self.lookup(hgh.reshape(-1, self.n)))

    def canonical_subgroup(self, elements: np.ndarray) -> tuple[bytes, tuple[int, ...]]:
        """Lexicographically least conjugate of the subgroup, over all of S_n.

        Returns (key, elements) where key is a fixed-width byte encoding of
        the least conjugate's sorted index list.  The key is independent of
        how the class was discovered, which makes class dedup deterministic.
        """
        m = int(elements.size)
        rows = self.arr[elements]
        best_key: bytes | None = None
        best: tuple[int, ...] | None = None
        width = 4 * m
        chunk = max(1, min(self.size, (1 << 21) // max(1, m * self.n)))
        for start in range(0, self.size, chunk):
            gs = np.arange(start, min(start + chunk, self.size))
            inv_rows = self.inverse_rows[gs]
            mid = rows[:, inv_rows].transpose(1, 0, 2)  # [B, m, n]: s(g^-1(x))
            out = self.arr[gs][np.arange(gs.size)[:, None, None], mid]  # g(s(g^-1(x)))
            idx = np.searchsorted(self.codes, out.astype(np.int64) @ self.weights)
            idx.sort(axis=1)
            raw = np.ascontiguousarray(idx.astype(">i4")).tobytes()
            for b in range(gs.size):
                row = raw[b * width : (b + 1) * width]
                if best_key is None or row < best_key:
                    best_key = row
                    best = tuple(int(v) for v in idx[b])
        assert best_key is not None and best is not None
        return best_key, best

    def greedy_generators(self, elements: np.ndarray) -> tuple[int, ...]:
        """Small generating set: scan sorted elements, keep what extends."""
        gens: list[int] = []
        current = np.zeros(self.size, dtype=bool)
        current[self.identity] = True
        for e in elements:
            e = int(e)
            if current[e]:
                continue
            gens.append(e)
            closed = self.closure(gens)
            current[:] = False
            current[closed] = True
            if closed.size == elements.size:
                break
        return tuple(gens)


@lru_cache(maxsize=None)
def _subgroup_classes(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Conjugacy-class representatives of all subgroups of S_n.

    Entries are (elements, generators) index tuples, elements being the
    lexicographically least conjugate in the class, sorted by (order,
    elements).  Search: breadth-first by order, extending each class
    representative by one new element (one per H-double coset) and closing;
    every new subgroup is deduped by element set and reduced to its
    canonical conjugate.
    """
    idx = _sym_index(n)
    start = np.array([idx.identity], dtype=np.int64)
    key0, canon0 = idx.canonical_subgroup(start)
    classes: dict[bytes, tuple[tuple[int, ...], tuple[int, ...]]] = {key0: (canon0, ())}
    heap: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(1, canon0, ())]
    canonical_key: dict[tuple[int, ...], bytes] = {canon0: key0}
    processed: set[tuple[int, ...]] = set()
    while heap:
        _, rep, gens = heapq.heappop(heap)
        if rep in processed:
            continue
        processed.add(rep)
        rep_arr = np.array(rep, dtype=np.int64)
        rep_rows = idx.arr[rep_arr]
        visited = np.zeros(idx.size, dtype=bool)
        visited[rep_arr] = True
        for g in range(idx.size):
            if visited[g]:
                continue
            visited[idx.double_coset(rep_rows, g)] = True
            new = idx.closure(gens + (g,))
            new_t = tuple(int(v) for v in new)
            key = canonical_key.get(new_t)
            if key is None:
                key, canon = idx.canonical_subgroup(new)
                canonical_key[new_t] = key
                if key not in classes:
                    canon_arr = np.array(canon, dtype=np.int64)
                    canon_gens = idx.greedy_generators(canon_arr)
                    classes[key] = (canon, canon_gens)
                    heapq.heappush(heap, (len(canon), canon, canon_gens))
    return tuple(sorted(classes.values(), key=lambda entry: (len(entry[0]), entry[0])))


@lru_cache(maxsize=None)
def _transitive_class_groups(n: int) -> tuple[PermGroup, ...]:
    idx = _sym_index(n)
    groups = []
    for elements, _ in _subgroup_classes(n):
        element_arr = np.array(elements, dtype=np.int64)
        if len(set(int(v) for v in idx.arr[element_arr, 0])) != n:
            continue
        perms = [idx.permutation(e) for e in elements]
        groups.append(PermGroup.from_elements(perms, n))
    return tuple(groups)


def transitive_subgroups_up_to_conjugacy(n: int) -> list[PermGroup]:
    """One representative per conjugacy class of transitive subgroups of S_n.

    Each representative is the lexicographically least conjugate of its
    class and the list is sorted by (order, element list), so the result is
    fully deterministic.  Degree 6 takes a few seconds; degree 7 minutes.
    The degree bound defaults to 7 and follows QUANDLE_MAX_ORDER.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    bound = resolve_bound(7)
    if n > bound:
        raise BoundError(f"degree {n} exceeds the configured bound {bound}")
    return list(_transitive_class_groups(n))
