"""Permutations and small materialized permutation groups.

Composition is left-to-right everywhere in this package: ``p * q`` means
"apply p, then q", so permutations act on points on the right and
``(x * p) * q`` is the action of ``p * q`` on ``x``.  Every element list
returned here is sorted by image array, which keeps derived results
reproducible from run to run.

Groups carry their full element sets, and one closure routine (_generate)
both builds a group from generators and checks a given element set for
closure.  Exhaustive element sets are deliberate: the library stops at
degree HARD_MAX_ORDER = 8 (|S_8| = 40320), where exhaustive
representations are simpler to audit than stabilizer chains and still fast.
Centers and conjugates are read off image tuples and build one Permutation
per result, not one per product.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._subgroups import _transitive_class_rows
from .config import DEFAULT_MAX_DEGREE, check_int, check_order, check_type, ensure, is_int

__all__ = [
    "Permutation",
    "PermGroup",
    "compose",
    "generate_group",
    "transitive_subgroups_up_to_conjugacy",
]


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {0..n-1}, stored as the tuple of images of 0, 1, ..., n-1.

    Immutable; equality, ordering and hashing are those of the 1-tuple
    (images,), and comparisons with anything but a Permutation are refused.
    The hash fixes the iteration order of every set of permutations.
    """

    # Declared by hand, not with slots=True, which makes assigning an unknown
    # attribute a TypeError.  Frozen slots need __reduce__ to copy or unpickle.
    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        raw = tuple(images)
        # One bulk check, not is_int per image: that made a construction 0.7 -> 1.7 us
        # (2 vCPUs), and one mesh round-trip pass builds about 23k permutations.
        if bool in map(type, raw):
            raise TypeError(f"permutation images must be ints, not bools: {list(raw)}")
        images = tuple(map(operator.index, raw))
        if not images:
            raise ValueError("degree 0 permutations are not supported")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {list(images)}")
        object.__setattr__(self, "images", images)

    def __reduce__(self) -> tuple:
        # Copies and unpickling go back through the checks in __init__.
        return Permutation, (self.images,)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(_check_degree(degree))))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Permutation sending a -> b for consecutive entries of each cycle.

        The cycles are disjoint: a point written twice, within one cycle or
        across two, raises ValueError.  A 1-cycle such as (1,) fixes its point.
        """
        degree = _check_degree(degree)
        images = list(range(degree))
        written: list[int] = []
        for cycle in cycles:
            points = [_as_point(point, degree) for point in cycle]
            written += points
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
        if len(set(written)) != len(written):
            twice = next(x for k, x in enumerate(written) if x in written[:k])
            raise ValueError(f"point {twice} appears twice in the cycles")
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[_as_point(point, len(self.images))]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, exponent: int) -> "Permutation":
        check_int(exponent, "exponent")
        result = Permutation.identity(self.degree)
        for _ in range(exponent % math.lcm(*self.cycle_type())):
            result = result * self
        return result

    def inverse(self) -> "Permutation":
        return Permutation(_inverse_images(self.images))

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g: apply g^-1, then self, then g."""
        check_type(g, Permutation)
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} != {self.degree}")
        return Permutation(tuple(g.images[self.images[x]] for x in _inverse_images(g.images)))

    def is_identity(self) -> bool:
        return all(k == v for k, v in enumerate(self.images))

    def is_even(self) -> bool:
        return sum(length - 1 for length in self.cycle_type()) % 2 == 0

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of all cycles, fixed points included."""
        return _cycle_type(self.images)[::-1]

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


def _cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with these images, largest first."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _inverse_images(images: Sequence[int]) -> tuple[int, ...]:
    """Images of the inverse of the permutation with these images."""
    inverse = [0] * len(images)
    for k, v in enumerate(images):
        inverse[v] = k
    return tuple(inverse)


def _commute(p: Permutation, q: Permutation) -> bool:
    """Whether p * q == q * p, read off the images: q[p[i]] == p[q[i]] for every i."""
    return [q.images[v] for v in p.images] == [p.images[v] for v in q.images]


def _as_point(point: object, degree: int) -> int:
    """The point as an int; ValueError unless it is a non-bool int in 0..degree-1."""
    if not (is_int(point) and 0 <= point < degree):
        raise ValueError(f"point {point!r} is not an int in 0..{degree - 1}")
    return int(point)


def _check_degree(degree: object, noun: str = "degree") -> int:
    """The degree as an int; TypeError unless is_int(degree), ValueError below 1."""
    degree = check_int(degree, noun)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return degree


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right composition: apply p, then q."""
    check_type(p, Permutation)
    check_type(q, Permutation)
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(q.images[v] for v in p.images))


def _generate(
    image_tuples: Iterable[tuple[int, ...]], degree: int
) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """(kept, elements): the tuples that extend the group, in input order, and its elements.

    Dimino's algorithm.  A tuple already in the group is skipped.  A new one
    g extends the group S of the tuples kept so far to a union of right
    cosets S * r: first S * g, then, for each representative r in turn and
    each kept tuple t, the coset S * (r * t) whenever r * t is not yet an
    element.  So each element is computed once, and only the representatives
    are multiplied by the kept tuples.
    """
    kept: list[tuple[int, ...]] = []
    elements = {tuple(range(degree))}
    for g in image_tuples:
        if g in elements:
            continue
        kept.append(g)
        # x -> (r -> x * r), read as r[x[0]], r[x[1]], ..., for each x in S
        times = [operator.itemgetter(*x) for x in elements]
        elements.update(times_x(g) for times_x in times)
        reps = [g]
        for r in reps:  # reps grows while it is read
            times_r = operator.itemgetter(*r)
            for t in kept:
                y = times_r(t)
                if y not in elements:
                    reps.append(y)
                    elements.update(times_x(y) for times_x in times)
    return kept, elements


def generate_group(generators: Iterable[Permutation], degree: int) -> "PermGroup":
    """The subgroup of S_degree generated; the trivial group for no generators.

    Its generators are derived from its elements, like every PermGroup's,
    so they need not be the ones given.
    """
    degree = _check_degree(degree, "group degree")
    gens = tuple(generators)
    _check_members(gens, degree)
    _, elements = _generate([g.images for g in gens], degree)
    return PermGroup(tuple(map(Permutation, sorted(elements))))


def _check_members(perms: Iterable[object], degree: int) -> None:
    """TypeError unless each is a Permutation, ValueError unless it has this degree."""
    for p in perms:
        if not isinstance(p, Permutation):
            raise TypeError(f"group members must be Permutations, not {type(p).__name__}")
        if len(p.images) != degree:
            raise ValueError(f"permutation degree {len(p.images)} != group degree {degree}")


@dataclass(frozen=True)
class PermGroup:
    """A subgroup of S_n with its element list fully materialized and sorted.

    PermGroup(elements) sorts the elements and refuses an element that is
    not a Permutation, elements of two degrees, a repeated element, an
    element list without the identity, and one that is not closed under
    composition.  The degree and the generators are derived: the degree is
    that of the elements, and the greedy scan of the sorted elements keeps
    each one not yet generated.  So equal groups are equal element sets,
    with equal generators.
    """

    degree: int = field(init=False)
    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        # No degree is read off a non-Permutation; no elements fail the identity check.
        first = elements[0] if elements else None
        degree = first.degree if isinstance(first, Permutation) else 0
        _check_members(elements, degree)
        # Image tuples, not Permutations: their hash builds no 1-tuple per element.
        by_images = {e.images: e for e in elements}
        if len(by_images) != len(elements):
            raise ValueError("the group's elements must be distinct")
        if tuple(range(degree)) not in by_images:
            raise ValueError("a group needs at least the identity")
        images = sorted(by_images)
        kept, closure = _generate(images, degree)
        if len(closure) != len(images):
            raise ValueError("element set is not closed under composition")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "elements", tuple(by_images[x] for x in images))
        object.__setattr__(self, "generators", tuple(by_images[x] for x in kept))
        object.__setattr__(self, "_members", frozenset(images))
        object.__setattr__(self, "_stabilizers", {})

    def __reduce__(self) -> tuple:
        # Copies and unpickling go back through the checks in __post_init__.
        return PermGroup, (self.elements,)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return generate_group((), degree)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, Permutation) and p.images in self._members

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={len(self.elements)})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        check_type(other, PermGroup)
        return self.degree == other.degree and self._members <= other._members

    def is_abelian(self) -> bool:
        return all(_commute(a, b) for a, b in itertools.combinations(self.generators, 2))

    def orbit(self, point: int) -> tuple[int, ...]:
        point = _as_point(point, self.degree)
        return tuple(sorted({p.images[point] for p in self.elements}))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def center(self) -> list[Permutation]:
        """Elements commuting with the whole group, sorted."""
        return [x for x in self.elements if all(_commute(x, g) for g in self.generators)]

    def stabilizer(self, point: int) -> "PermGroup":
        """Subgroup fixing the point, computed once per point and group."""
        point = _as_point(point, self.degree)
        if point not in self._stabilizers:
            members = [p for p in self.elements if p.images[point] == point]
            stab = PermGroup(members)
            ensure(len(self) == len(stab) * len(self.orbit(point)), "orbit-stabilizer count fails")
            self._stabilizers[point] = stab
        return self._stabilizers[point]


@lru_cache(maxsize=None)
def _transitive_class_groups(n: int) -> tuple[PermGroup, ...]:
    return tuple(PermGroup(tuple(map(Permutation, rows))) for rows in _transitive_class_rows(n))


def transitive_subgroups_up_to_conjugacy(n: int) -> list[PermGroup]:
    """One representative per conjugacy class of transitive subgroups of S_n.

    Each representative is the lexicographically least conjugate of its
    class and the list is sorted by (order, element list), so the result is
    fully deterministic.  The first call for a degree runs the subgroup-class
    search (_subgroups); later calls reuse its cached result.
    The degree bound defaults to config.DEFAULT_MAX_DEGREE and follows QUANDLE_MAX_ORDER.
    """
    check_order(n, DEFAULT_MAX_DEGREE, noun="degree")
    return list(_transitive_class_groups(n))
