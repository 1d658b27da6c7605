"""Homomorphisms out of a quandle's augmentation group, as generator images.

The augmentation group of a quandle Q is generated by one symbol |x| per
element, subject to the relations |x > y| = |y|^-1 |x| |y|.  A homomorphism
out of it is pinned down by where the generators go, so this module never
builds the group itself: a GammaHom is just the assignment x -> image
permutation, validated against the relations.  Every hom targets a
quandle, and every image must additionally be an automorphism of that
target.

A check's verdict is a function of the source table, the target table and
the image tuples, all immutable and already validated.  So a success is
recorded in the cache the source's table shares among live quandles, keyed
by the target table and the image tuples, and an equal assignment is not
scanned again while a quandle with that source table lives.  A failure is
not recorded: every failing check scans afresh and raises the same first
witness.  Each table's canonical hom is built and proved once and kept in
the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .config import check_type
from .perm import Permutation, _as_point
from .quandle import Quandle

__all__ = [
    "GammaHom",
    "HomError",
    "RelationViolationError",
    "NotAnAutomorphismError",
    "validate_gamma_hom",
    "canonical_hom",
    "trivial_hom",
    "evaluate",
]


class HomError(ValueError):
    """A generator assignment that is not a homomorphism into Aut(target)."""


class RelationViolationError(HomError):
    """assignment[x > y] != assignment[y]^-1 * assignment[x] * assignment[y]."""

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y
        super().__init__(
            f"images of generators {x} and {y} break the conjugation relation "
            f"at {x} > {y}"
        )


class NotAnAutomorphismError(HomError):
    """The image of generator x does not preserve the target table."""

    def __init__(self, x: int):
        self.x = x
        super().__init__(f"image of generator {x} is not an automorphism of the target")


@dataclass(frozen=True)
class GammaHom:
    """Generator assignment x -> assignment[x], one permutation per source point.

    target is the quandle the images act on, so every image has degree
    target.order.  A source, target or image of the wrong type raises
    TypeError.  Beyond types and shapes the assignment is unchecked: a
    GammaHom may break the relations or send a generator to a non-
    automorphism, and is_valid, validate_gamma_hom and Mesh judge that.
    Build through validate_gamma_hom unless the data is known-good.
    """

    source: Quandle
    target: Quandle
    assignment: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        check_type(self.source, Quandle)
        check_type(self.target, Quandle)
        object.__setattr__(self, "assignment", tuple(self.assignment))
        for p in self.assignment:
            check_type(p, Permutation)
        if len(self.assignment) != self.source.order:
            raise ValueError(
                f"assignment length {len(self.assignment)} != source order {self.source.order}"
            )
        degrees = {p.degree for p in self.assignment}
        if len(degrees) != 1:
            raise ValueError("assigned permutations have mixed degrees")
        if self.target.order != self.target_order:
            raise ValueError(
                f"assignment degree {self.target_order} != target order {self.target.order}"
            )

    @property
    def source_order(self) -> int:
        return self.source.order

    @property
    def target_order(self) -> int:
        return self.assignment[0].degree

    def __call__(self, x: int) -> Permutation:
        return self.assignment[_as_point(x, self.source_order)]

    def is_valid(self) -> bool:
        try:
            check_gamma_hom(self)
        except HomError:
            return False
        return True


def check_gamma_hom(hom: GammaHom) -> None:
    """Raise the first violation in scan order: relations (x, y), then images.

    A success is recorded with the source's table, so a later check of an
    equal assignment into an equal target returns at once; a failure is not,
    so it is scanned and raised afresh every time.
    """
    img = tuple(p.images for p in hom.assignment)
    proved = hom.source._cache.setdefault("proved homs", set())
    key = (hom.target.table, img)
    if key in proved:
        return
    # |x > y| = |y|^-1 |x| |y| on image tuples: img[x > y][img[y][p]] == img[y][img[x][p]],
    # where acts[y](t) reads t at img[y]'s images.
    acts = [itemgetter(*p) for p in img]
    for x, row in enumerate(hom.source.table):
        for y, xy in enumerate(row):
            if acts[y](img[xy]) != acts[x](img[y]):
                raise RelationViolationError(x, y)
    # Generators often share an image (the identity most of all), so each
    # distinct image is tested once and its verdict reused in x order.
    verdicts: dict[tuple[int, ...], bool] = {}
    for x, p in enumerate(hom.assignment):
        if p.images not in verdicts:
            verdicts[p.images] = hom.target.is_automorphism(p)
        if not verdicts[p.images]:
            raise NotAnAutomorphismError(x)
    proved.add(key)


def validate_gamma_hom(
    source: Quandle, target: Quandle, assignment: Sequence[Permutation]
) -> GammaHom:
    """Build and fully validate a GammaHom; raises HomError subclasses."""
    hom = GammaHom(source, target, tuple(assignment))
    check_gamma_hom(hom)
    return hom


def canonical_hom(q: Quandle) -> GammaHom:
    """The hom from q's own augmentation group sending each generator to its symmetry.

    It is built and proved once per table and kept in the cache that every
    live quandle with that table shares, so equal quandles get one object.
    """
    check_type(q, Quandle)
    if "canonical hom" not in q._cache:
        q._cache["canonical hom"] = validate_gamma_hom(q, q, q._symmetries())
    return q._cache["canonical hom"]


def trivial_hom(source: Quandle, target: Quandle) -> GammaHom:
    """All generators to the identity; valid for any source and target."""
    check_type(source, Quandle)
    check_type(target, Quandle)
    identity = Permutation.identity(target.order)
    return GammaHom(source, target, tuple(identity for _ in range(source.order)))


def evaluate(hom: GammaHom, word: Sequence[tuple[int, int]]) -> Permutation:
    """Image of a word in the generators, e.g. [(x, 1), (y, -1)] for |x||y|^-1.

    Factors multiply left-to-right; the empty word maps to the identity.
    """
    check_type(hom, GammaHom)
    result = Permutation.identity(hom.target_order)
    for point, exponent in word:
        result = result * hom(point) ** exponent
    return result
