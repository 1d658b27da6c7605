"""Generator-assignment homomorphism tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.augment import (
    GammaHom,
    NotAnAutomorphismError,
    RelationViolationError,
    canonical_hom,
    check_gamma_hom,
    evaluate,
    trivial_hom,
    validate_gamma_hom,
)
from quandles.oracle import enumerate_all
from quandles.perm import Permutation
from quandles.quandle import Quandle, trivial_quandle

SMALL = [q for n in range(1, 5) for q in enumerate_all(n).tables]


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def reference_violation(hom):
    """The first violation by the textbook formula, conjugated_by on Permutations."""
    table = hom.source.table
    n = hom.source.order
    for x in range(n):
        for y in range(n):
            if hom.assignment[table[x][y]] != hom.assignment[x].conjugated_by(hom.assignment[y]):
                return RelationViolationError, (x, y)
    for x in range(n):
        if not hom.target.is_automorphism(hom.assignment[x]):
            return NotAnAutomorphismError, (x,)
    return None


@st.composite
def assignments(draw):
    """A source of order <= 4, a target of order <= 3 and any images in S_m.

    Half the draws take their images from at most two permutations, so the
    relations often hold and the automorphism half is reached.
    """
    source = draw(st.sampled_from(SMALL))
    target = draw(st.sampled_from([q for q in SMALL if q.order <= 3]))
    perms = [Permutation(p) for p in itertools.permutations(range(target.order))]
    if draw(st.booleans()):
        perms = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=2))
    images = draw(st.lists(st.sampled_from(perms), min_size=source.order, max_size=source.order))
    return GammaHom(source, target, tuple(images))


class TestValidation:
    def test_trivial_hom_always_valid(self, t3, q3):
        for source, target in itertools.product([t3, q3, trivial_quandle(2)], repeat=2):
            hom = trivial_hom(source, target)
            assert hom.is_valid()
            assert validate_gamma_hom(source, target, hom.assignment) == hom

    def test_canonical_hom_of_tait(self, t3):
        hom = canonical_hom(t3)
        assert hom.assignment == (
            perm((1, 2), degree=3),
            perm((0, 2), degree=3),
            perm((0, 1), degree=3),
        )

    def test_canonical_hom_of_trivial_is_identity(self):
        hom = canonical_hom(trivial_quandle(4))
        assert all(p.is_identity() for p in hom.assignment)

    def test_canonical_hom_of_two_orbit(self, q3):
        hom = canonical_hom(q3)
        assert hom.assignment == (
            Permutation.identity(3),
            Permutation.identity(3),
            perm((0, 1), degree=3),
        )

    def test_canonical_hom_valid_on_census(self, censuses):
        for n in range(1, 5):
            for q in censuses.brute(n).tables:
                assert canonical_hom(q).is_valid()

    def test_commuting_images_on_trivial_source(self):
        t2 = trivial_quandle(2)
        hom = validate_gamma_hom(t2, t2, (perm((0, 1), degree=2), Permutation.identity(2)))
        assert hom.is_valid()

    def test_relation_violation(self, t3):
        assignment = (Permutation.identity(3), Permutation.identity(3), perm((0, 1), degree=3))
        with pytest.raises(RelationViolationError) as info:
            validate_gamma_hom(t3, t3, assignment)
        assert (info.value.x, info.value.y) == (0, 1)

    def test_not_an_automorphism(self, q3):
        # (0 2) swaps points of different orbits, so it cannot preserve q3;
        # a constant assignment satisfies the trivial source's relations.
        bad = perm((0, 2), degree=3)
        with pytest.raises(NotAnAutomorphismError) as info:
            validate_gamma_hom(trivial_quandle(2), q3, (bad, bad))
        assert info.value.x == 0

    def test_each_distinct_image_tested_once(self, q3, monkeypatch):
        # Images that commute satisfy a trivial source's relations, so only
        # the automorphism scan can fail, at the first x with the bad image.
        tested = []
        original = Quandle.is_automorphism
        monkeypatch.setattr(
            Quandle, "is_automorphism", lambda q, p: tested.append(p) or original(q, p)
        )
        identity, bad = Permutation.identity(3), perm((0, 2), degree=3)
        hom = GammaHom(trivial_quandle(5), q3, (identity, identity, bad, identity, bad))
        with pytest.raises(NotAnAutomorphismError) as info:
            check_gamma_hom(hom)
        assert info.value.x == 2
        assert tested == [identity, bad]

    def test_relations_checked_before_images(self, t3, q3):
        # this assignment breaks both; the relation must win the race
        assignment = (perm((0, 2), degree=3), Permutation.identity(3), Permutation.identity(3))
        with pytest.raises(RelationViolationError):
            validate_gamma_hom(t3, q3, assignment)

    @settings(max_examples=300, deadline=None)
    @given(assignments())
    def test_matches_conjugation_reference(self, hom):
        try:
            check_gamma_hom(hom)
            found = None
        except RelationViolationError as exc:
            found = (RelationViolationError, (exc.x, exc.y))
        except NotAnAutomorphismError as exc:
            found = (NotAnAutomorphismError, (exc.x,))
        assert found == reference_violation(hom)

    def test_shape_errors(self, t3):
        with pytest.raises(ValueError):
            GammaHom(t3, t3, (Permutation.identity(3),))
        with pytest.raises(ValueError):
            GammaHom(t3, t3, (Permutation.identity(3),) * 2 + (Permutation.identity(2),))
        with pytest.raises(ValueError):
            GammaHom(t3, trivial_quandle(2), (Permutation.identity(3),) * 3)

    def test_source_and_target_orders(self, t3):
        hom = trivial_hom(t3, trivial_quandle(2))
        assert hom.source_order == 3
        assert hom.target_order == 2

    def test_call_returns_assignment(self, t3):
        hom = canonical_hom(t3)
        assert hom(0) == t3.symmetry(0)
        assert hom(np.int64(2)) == t3.symmetry(2)

    def test_call_refuses_what_is_not_a_point(self, t3):
        hom = canonical_hom(t3)
        for point in (-1, 3, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                hom(point)


class TestEvaluate:
    def test_empty_word(self, t3):
        assert evaluate(canonical_hom(t3), []) == Permutation.identity(3)

    def test_single_generator(self, t3):
        hom = canonical_hom(t3)
        for x in range(3):
            assert evaluate(hom, [(x, 1)]) == hom.assignment[x]

    def test_two_letter_word(self, t3):
        # S_0 then S_1: (1 2) then (0 2) sends 0,1,2 to 2,0,1
        got = evaluate(canonical_hom(t3), [(0, 1), (1, 1)])
        assert got.images == (2, 0, 1)
        assert evaluate(canonical_hom(t3), [(np.int64(0), 1), (np.int32(1), 1)]) == got

    def test_inverse_exponents_cancel(self, t3):
        hom = canonical_hom(t3)
        assert evaluate(hom, [(0, 1), (0, -1)]) == Permutation.identity(3)
        assert evaluate(hom, [(1, -1), (2, 1), (2, -1), (1, 1)]) == Permutation.identity(3)

    def test_out_of_range_generator(self, t3):
        # -1 would read the last generator, and True would read generator 1.
        hom = canonical_hom(t3)
        for point in (-1, 3, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                evaluate(hom, [(0, 1), (point, 1)])

    def test_augmentation_law(self, t3, q3):
        # acting on x by its own assigned symmetry fixes x
        for q in (t3, q3):
            hom = canonical_hom(q)
            for x in range(q.order):
                assert hom.assignment[x](x) == x

    def test_conjugation_law(self, t3, q3):
        # moving the base point through a word conjugates its image
        for q in (t3, q3):
            hom = canonical_hom(q)
            letters = [(y, e) for y in range(q.order) for e in (1, -1)]
            words = [[]] + [[l] for l in letters] + [
                [a, b] for a in letters for b in letters
            ]
            for word in words:
                g = evaluate(hom, word)
                for x in range(q.order):
                    assert hom.assignment[g(x)] == hom.assignment[x].conjugated_by(g)
