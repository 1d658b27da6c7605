"""Generator-assignment homomorphism tests."""

from __future__ import annotations

import gc
import itertools
import weakref
from operator import itemgetter

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
from quandles.quandle import Quandle, dihedral_quandle, trivial_quandle

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


def _spy_automorphism_tests(monkeypatch):
    """The permutations Quandle.is_automorphism is asked about from here on, in call order."""
    tested = []
    original = Quandle.is_automorphism
    monkeypatch.setattr(Quandle, "is_automorphism", lambda q, p: tested.append(p) or original(q, p))
    return tested


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

    def test_relation_violation(self, t3, monkeypatch):
        # A failure is not recorded, so each check runs the relation scan,
        # which reads each image through an itemgetter, and raises afresh.
        getters = []
        monkeypatch.setattr(
            "quandles.augment.itemgetter", lambda *p: getters.append(p) or itemgetter(*p)
        )
        assignment = (Permutation.identity(3), Permutation.identity(3), perm((0, 1), degree=3))
        for _ in range(2):
            getters.clear()
            with pytest.raises(RelationViolationError) as info:
                validate_gamma_hom(t3, t3, assignment)
            assert (info.value.x, info.value.y) == (0, 1)
            assert len(getters) == 3

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
        tested = _spy_automorphism_tests(monkeypatch)
        identity, bad = Permutation.identity(3), perm((0, 2), degree=3)
        hom = GammaHom(trivial_quandle(5), q3, (identity, identity, bad, identity, bad))
        # A failure is not recorded, so a second check scans and raises again.
        for _ in range(2):
            tested.clear()
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


class TestProofRecord:
    """A proved hom is recorded in the cache its source table shares among live quandles."""

    def test_a_proved_hom_is_proved_once_per_table(self, t3, monkeypatch):
        # gc frees what earlier tests dropped, and no test keeps a quandle of
        # order 9 alive, so no record of this source table is left.
        gc.collect()
        source = dihedral_quandle(9)
        tested = _spy_automorphism_tests(monkeypatch)
        swap = perm((1, 2), degree=3)
        check_gamma_hom(GammaHom(source, t3, (swap,) * 9))
        assert tested == [swap]
        # An equal hom over distinct quandles with equal tables is not scanned.
        tested.clear()
        twin, twin_target = Quandle(source.table), Quandle(t3.table)
        assert twin is not source and twin_target is not t3
        check_gamma_hom(GammaHom(twin, twin_target, (Permutation(swap.images),) * 9))
        assert tested == []
        # The same images into another target table are proved on their own.
        identity = Permutation.identity(3)
        for target in (t3, trivial_quandle(3)):
            check_gamma_hom(GammaHom(source, target, (identity,) * 9))
        assert tested == [identity, identity]

    def test_the_record_goes_with_the_last_quandle_of_its_table(self, monkeypatch):
        # No test keeps a quandle of order 9 or 10 alive.
        gc.collect()
        source = dihedral_quandle(9)
        target = dihedral_quandle(10)
        check_gamma_hom(trivial_hom(source, target))
        # The record keeps the target's table, not the target's cache.
        target_cache = weakref.ref(target._cache)
        del target
        gc.collect()
        assert target_cache() is None
        source_cache = weakref.ref(source._cache)
        table = source.table
        del source
        gc.collect()
        assert source_cache() is None
        # A new quandle of the table starts with no record, so it proves again.
        tested = _spy_automorphism_tests(monkeypatch)
        check_gamma_hom(trivial_hom(Quandle(table), dihedral_quandle(10)))
        assert tested == [Permutation.identity(10)]

    def test_canonical_hom_is_one_object_per_table(self, t3, monkeypatch):
        twin = Quandle(t3.table)
        hom = canonical_hom(t3)
        tested = _spy_automorphism_tests(monkeypatch)
        assert canonical_hom(twin) is hom
        assert tested == []
        assert hom.source == twin and hom.assignment == tuple(twin.symmetries())


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
