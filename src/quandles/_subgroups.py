"""The subgroup-class search of S_n, on a numpy index of S_n.

The conjugacy-class search over subgroups is the one genuinely heavy
operation; it runs on a vectorized index of S_n (see _SymmetricIndex) that
each search builds for itself and drops when it returns, and nothing else
in the package reads it.  It derives each new class's generators from its
parent's by conjugation, so it never scans a class representative for them.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import check_order, ensure


class _SymmetricIndex:
    """All of S_n in lexicographic order, with vectorized composition.

    Permutations are identified with their index into the lexicographic
    enumeration of image arrays; subgroups are sorted index arrays.  Image
    rows compose by fancy indexing and are mapped back to indices through
    the dense table rank, indexed by the row's first n-1 images read as a
    base-n number (they fix the last), so no n! x n! multiplication table
    is ever materialized.  arr holds the image rows and inverse_rows the
    image rows of their inverses, both int8 and in lexicographic order of
    arr; the identity is index 0.  Degrees above HARD_MAX_ORDER are refused
    before anything is allocated.
    """

    def __init__(self, n: int):
        check_order(n)
        self.n = n
        self.size = math.factorial(n)
        flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
        self.arr = np.fromiter(flat, dtype=np.int8, count=self.size * n).reshape(self.size, n)
        self.weights = np.array([n**k for k in range(n - 2, -1, -1)] + [0], dtype=np.int64)
        self.inverse_rows = np.argsort(self.arr, axis=1).astype(np.int8)
        self.identity = 0
        self.rank = np.zeros(n ** (n - 1), dtype=np.int32)  # rank[code] = index
        self.rank[self.arr.astype(np.int64) @ self.weights] = np.arange(self.size, dtype=np.int32)
        self._maps: dict[tuple[str, int], np.ndarray] = {}

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the permutations whose image rows are given."""
        return self.rank[images.astype(np.int64) @ self.weights]

    def closure(self, generators: Iterable[int], start: np.ndarray) -> np.ndarray:
        """Sorted element indices of the subgroup generated.

        start holds distinct elements of the group generated, the identity
        among them (say the parent of a cyclic extension); the search grows
        from all of them.
        For n >= 5 a subgroup G of index below n contains A_n: S_n acts on
        the cosets of G with kernel 1, A_n or S_n, and the kernel is not 1
        because S_n does not embed in S_k for k < n.  So once more than
        (n-1)! elements are seen the search stops, with A_n if every
        generator is even and S_n otherwise.  For n <= 4 (D_4 has index 3
        in S_4) it stops only past n!/2, where by Lagrange only S_n is left.
        """
        gens = sorted({int(g) for g in generators})
        frontier = start
        seen = np.zeros(self.size, dtype=bool)
        seen[frontier] = True
        # compose(f, g)(x) = g(f(x)), so the composed row is g_row[f_row];
        # offsets pick generator j's row out of the flattened rows.
        gen_flat = self.arr[gens].reshape(-1)
        offsets = (np.arange(len(gens)) * self.n)[:, None, None]
        bound = self.size // self.n if self.n >= 5 else self.size // 2
        count = frontier.size
        while frontier.size:
            if count > bound:
                return np.flatnonzero(self.even) if self.even[gens].all() else np.arange(self.size)
            fresh = np.zeros(self.size, dtype=bool)
            fresh[self.lookup(gen_flat[offsets + self.arr[frontier]])] = True
            fresh &= ~seen
            seen |= fresh
            frontier = fresh.nonzero()[0]
            count += frontier.size
        return np.flatnonzero(seen)

    @cached_property
    def even(self) -> np.ndarray:
        """Whether each permutation is even, by the parity of its inversion count."""
        i, j = np.triu_indices(self.n, k=1)
        even = (self.arr[:, i] > self.arr[:, j]).sum(axis=1) % 2 == 0
        return _read_only(even)

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

    @cached_property
    def power_maps(self) -> tuple[np.ndarray, ...]:
        """Index maps x -> x^k, one per k in a generating set of the units mod e.

        e = lcm(1..n) is the exponent of S_n, so each k is prime to the
        order of every x and x -> x^k is a bijection of S_n.  x^k comes from
        square-and-multiply on the image rows.
        """
        identity = np.broadcast_to(np.arange(self.n, dtype=np.int8), self.arr.shape)
        maps = []
        for k in _unit_generators(math.lcm(*range(1, self.n + 1))):
            power, square = identity, self.arr
            while k:
                if k & 1:
                    power = np.take_along_axis(square, power, axis=1)
                k >>= 1
                if k:
                    square = np.take_along_axis(square, square, axis=1)
            maps.append(self.lookup(power))
        return tuple(maps)

    def extension_reps(
        self, subgroup: np.ndarray, subgroup_gens: Sequence[int], normalizer: np.ndarray
    ) -> np.ndarray:
        """One element g per class of cyclic extensions <H, g>, H left out.

        <H, g> depends only on the double coset H g H, and conjugating g by
        c in the normalizer N(H) conjugates <H, g> by c.  It also depends
        only on the cyclic subgroup <g>: for k prime to the exponent of S_n,
        k is prime to the order of g, so <g^k> = <g> and <H, g^k> = <H, g>.
        So the least element of each orbit of x -> h x, x -> c x c^-1 and
        x -> x^k (h in H, c in N(H), k from power_maps) is enough.  Each map
        is a bijection of S_n that maps H onto H, so H itself is still
        exactly the orbit of the identity; g and g^-1 share one orbit.
        x -> x^-1 is a power map, and with it x -> h x gives x -> x h^-1
        and conjugation by h.  So only N(H)'s generators beyond H's get a
        conjugation map, and only N(H)/H costs closures.
        """
        maps = [self.product_map(h) for h in subgroup_gens]
        normalizer_gens = self.greedy_generators(normalizer, subgroup, subgroup_gens)
        maps.extend(self.conjugation_map(c) for c in normalizer_gens)
        maps.extend(self.power_maps)
        return self.orbit_minima(maps)[1:]

    # Each index map below is built once per (kind, element) and kept, as
    # read-only uint16 (n! <= 40320): one search asks for the same few maps
    # across many classes.

    def product_map(self, h: int) -> np.ndarray:
        """Index map x -> h x (h after x)."""
        return self._memo("product", h, lambda: self.arr[h][self.arr])

    def conjugation_map(self, c: int) -> np.ndarray:
        """Index map x -> c x c^-1."""
        return self._memo("conjugation", c, lambda: self.arr[c][self.arr[:, self.inverse_rows[c]]])

    def coset_map(self, h: int) -> np.ndarray:
        """Index map x -> x h (x after h); under H's generators its orbits are the cosets x H."""
        return self._memo("coset", h, lambda: self.arr[:, self.arr[h]])

    def _memo(self, kind: str, element: int, rows: Callable[[], np.ndarray]) -> np.ndarray:
        key = (kind, element)
        if key not in self._maps:
            self._maps[key] = _read_only(self.lookup(rows()).astype(np.uint16))
        return self._maps[key]

    def canonical_subgroup(
        self, elements: np.ndarray, generators: Sequence[int]
    ) -> tuple[tuple[int, ...], set[bytes], np.ndarray, int]:
        """Lexicographically least conjugate of the subgroup, over all of S_n.

        Returns (least, keys, normalizer, g0): the sorted element indices of
        the least conjugate, the _subgroup_key of every conjugate g H g^-1
        (the subgroup itself included), the sorted normalizer of the least
        conjugate, and one g0 with g0 H g0^-1 least.  g H g^-1 depends only
        on the coset g H, so one g per coset is conjugated.  Big-endian keys
        of equal width order as their index lists do, so the least key is
        the least conjugate.
        """
        m = int(elements.size)
        rows = self.arr[elements]
        reps = self.orbit_minima([self.coset_map(h) for h in generators])
        # One batch: n!/m cosets of m elements on n points is n! * n
        # entries, at most 322560 (n = 8), so it is not chunked.
        mid = rows[:, self.inverse_rows[reps]].transpose(1, 0, 2)  # [reps, m, n]: s(g^-1(x))
        out = self.arr[reps][np.arange(reps.size)[:, None, None], mid]  # g(s(g^-1(x)))
        idx = self.lookup(out)
        idx.sort(axis=1)
        raw = _subgroup_key(idx)
        width = _KEY_DTYPE.itemsize * m
        # conjugates[i] is the key of g H g^-1, g = reps[i]
        conjugates = [raw[b : b + width] for b in range(0, len(raw), width)]
        least = min(conjugates)
        # The g with g H g^-1 least form N c for any one of them, c; they
        # are the cosets g H of the hits.
        hits = reps[[i for i, key in enumerate(conjugates) if key == least]]
        cosets = self.arr[hits][:, rows[:, self.inverse_rows[hits[0]]]]  # g(h(c^-1(x)))
        normalizer = np.sort(self.lookup(cosets).reshape(-1))
        canon = tuple(np.frombuffer(least, dtype=_KEY_DTYPE).tolist())
        return canon, set(conjugates), normalizer, int(hits[0])

    def greedy_generators(
        self, elements: np.ndarray, subgroup: np.ndarray, subgroup_gens: Sequence[int]
    ) -> tuple[int, ...]:
        """Elements that, with subgroup_gens, generate the group: scan, keep what extends.

        subgroup holds the sorted elements that subgroup_gens generate.  The
        scan of the group's sorted elements keeps each one not yet generated,
        growing the closure from the subgroup, and returns those it kept.
        """
        gens = list(subgroup_gens)
        closed = subgroup
        current = np.zeros(self.size, dtype=bool)
        current[closed] = True
        for e in elements.tolist():
            if closed.size == elements.size:
                break
            if not current[e]:
                gens.append(e)
                closed = self.closure(gens, start=closed)
                current[closed] = True
        return tuple(gens[len(subgroup_gens) :])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _unit_generators(modulus: int) -> list[int]:
    """Generators of the units mod modulus: scan upward, keep what extends."""
    gens: list[int] = []
    reached = {1}
    for k in range(2, modulus):
        if math.gcd(k, modulus) == 1 and k not in reached:
            gens.append(k)
            grown, power = set(reached), k
            while power != 1:  # the units commute: <reached, k> = reached * <k>
                grown |= {r * power % modulus for r in reached}
                power = power * k % modulus
            reached = grown
    return gens


# Indices below 65536 cover S_n up to HARD_MAX_ORDER = 8 (8! = 40320).
_KEY_DTYPE = np.dtype(">u2")


def _subgroup_key(elements: np.ndarray) -> bytes:
    """Fixed-width big-endian bytes of sorted index arrays (row-major if 2-D)."""
    return np.ascontiguousarray(elements, dtype=_KEY_DTYPE).tobytes()


@lru_cache(maxsize=None)
def _subgroup_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Conjugacy-class representatives of all subgroups of S_n.

    Each is the sorted element index tuple of the lexicographically least
    conjugate in its class, and they are sorted by (order, elements).
    Search (cyclic extension, Neubueser 1960): extend each class
    representative H by one new element g, one per orbit of H-double cosets
    under N(H) and the power maps (extension_reps), and close, growing the
    closure from H.  The keys of every conjugate of every class found so
    far form one set, so a closure outside it is a new class, and each
    class is canonicalized exactly once.  The new class's generators are
    H's and g, carried onto its least conjugate by the g0 that
    canonical_subgroup found, so no representative is scanned for them.
    The index is local to the call, so it and its maps are freed on return.
    """
    idx = _SymmetricIndex(n)
    classes: list[tuple[int, ...]] = []
    pending: list[tuple[np.ndarray, tuple[int, ...], np.ndarray]] = []
    known: set[bytes] = set()

    def add_class(elements: np.ndarray, generators: tuple[int, ...]) -> None:
        canon, conjugates, normalizer, g0 = idx.canonical_subgroup(elements, generators)
        ensure(known.isdisjoint(conjugates), "a closure was neither known nor a new class")
        known.update(conjugates)
        canon_arr = np.array(canon, dtype=np.int64)
        rows = idx.arr[list(generators)].reshape(-1, n)
        gens = idx.lookup(idx.arr[g0][rows[:, idx.inverse_rows[g0]]])  # g0 x g0^-1, as canon's
        at = np.minimum(np.searchsorted(canon_arr, gens), canon_arr.size - 1)
        ensure(np.array_equal(canon_arr[at], gens), "a conjugated generator left its class")
        classes.append(canon)
        pending.append((canon_arr, tuple(gens.tolist()), normalizer))

    add_class(np.array([idx.identity], dtype=np.int64), ())
    while pending:
        rep_arr, gens, normalizer = pending.pop()
        for g in idx.extension_reps(rep_arr, gens, normalizer).tolist():
            extended = gens + (g,)
            new = idx.closure(extended, start=rep_arr)
            if _subgroup_key(new) not in known:
                add_class(new, extended)
    return tuple(sorted(classes, key=lambda elements: (len(elements), elements)))


def _transitive_class_rows(n: int) -> list[list[tuple[int, ...]]]:
    """The image rows of each transitive class in _subgroup_classes(n), in its order."""
    found = _subgroup_classes(n)
    # The lexicographic order the index numbers S_n in, listed after the
    # search so that its n! rows are not alive at the search's peak.
    perms = list(itertools.permutations(range(n)))
    classes = ([perms[e] for e in elements] for elements in found)
    return [rows for rows in classes if len({row[0] for row in rows}) == n]
