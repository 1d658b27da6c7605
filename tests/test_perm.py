"""Permutation kernel tests.

Derived expectations here were frozen against throwaway oracles that
recompute the same facts by cruder means (pointwise application loops,
pairwise commutation scans, closure by repeated multiplication); the
oracles live in this file so the main implementation never checks itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandles.config import HARD_MAX_ORDER, BoundError
from quandles.perm import (
    PermGroup,
    Permutation,
    compose,
    generate_group,
    transitive_subgroups_up_to_conjugacy,
)
from quandles.perm import _subgroup_classes, _sym_index, _SymmetricIndex


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(3).images == (0, 1, 2)
        assert Permutation.identity(1).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation((1, 2, 3))
        # Images must be ints: floats, strings and bools are refused, not converted.
        for images in ((1.0, 0.0), ("1", "0"), (True, False), (1, False)):
            with pytest.raises(TypeError):
                Permutation(images)
        assert Permutation(np.array([1, 0], dtype=np.int8)).images == (1, 0)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            Permutation(())

    def test_from_cycles(self):
        assert perm((0, 1), degree=3).images == (1, 0, 2)
        assert perm((0, 1, 2), degree=4).images == (1, 2, 0, 3)
        assert perm((0, 1), (2, 3), degree=4).images == (1, 0, 3, 2)

    def test_call_applies(self):
        p = perm((0, 2, 1), degree=3)
        assert [p(x) for x in range(3)] == [2, 0, 1]

    def test_compose_identity_cases(self):
        ident = Permutation.identity(3)
        swap = perm((0, 1), degree=3)
        assert compose(ident, swap) == swap
        assert compose(swap, swap) == ident

    def test_compose_is_left_to_right(self):
        # apply (0 1) first, then (1 2): 0 -> 1 -> 2, 1 -> 0 -> 0, 2 -> 2 -> 1
        result = compose(perm((0, 1), degree=3), perm((1, 2), degree=3))
        assert result.images == (2, 0, 1)

    def test_compose_matches_pointwise_oracle(self):
        for p, q in itertools.product(all_perms(3), repeat=2):
            expect = tuple(q(p(x)) for x in range(3))
            assert compose(p, q).images == expect

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))

    def test_mul_operator(self):
        p, q = perm((0, 1), degree=3), perm((1, 2), degree=3)
        assert p * q == compose(p, q)

    def test_inverse(self):
        for p in all_perms(4):
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_pow(self):
        c = perm((0, 1, 2), degree=3)
        assert c**0 == Permutation.identity(3)
        assert c**1 == c
        assert c**3 == Permutation.identity(3)
        assert c**-1 == c.inverse()
        assert c**-2 == (c * c).inverse()
        # The exponent is reduced modulo the order, lcm(2, 3) = 6 here.
        p = perm((0, 1), (2, 3, 4), degree=5)
        assert p**3_000_001 == p**1
        assert p**-3_000_001 == p.inverse()
        assert p**-7 == p**5

    def test_conjugated_by(self):
        p = perm((0, 1), degree=3)
        g = perm((1, 2), degree=3)
        # g^-1 p g moves the transposition's points through g
        assert p.conjugated_by(g) == perm((0, 2), degree=3)

    def test_cycle_type_and_parity(self):
        assert perm((0, 1), degree=4).cycle_type() == (1, 1, 2)
        assert perm((0, 1, 2), degree=3).cycle_type() == (3,)
        assert Permutation.identity(2).is_even()
        assert not perm((0, 1), degree=2).is_even()
        assert perm((0, 1, 2), degree=3).is_even()

    def test_str_cycles(self):
        assert str(Permutation.identity(3)) == "()"
        assert str(perm((0, 2), degree=3)) == "(0 2)"
        assert str(perm((0, 1), (2, 3), degree=4)) == "(0 1)(2 3)"

    def test_ordering_is_by_images(self):
        ps = sorted(all_perms(3))
        assert ps[0].is_identity()
        assert ps == sorted(ps, key=lambda p: p.images)

    @given(st.permutations(list(range(5))), st.permutations(list(range(5))),
           st.permutations(list(range(5))))
    def test_group_laws(self, a, b, c):
        p, q, r = Permutation(tuple(a)), Permutation(tuple(b)), Permutation(tuple(c))
        assert (p * q) * r == p * (q * r)
        assert (p * q).inverse() == q.inverse() * p.inverse()
        assert p.conjugated_by(q) == q.inverse() * p * q


def closure_oracle(gens, degree):
    """Multiply all pairs until nothing new appears."""
    elements = set(gens) | {Permutation.identity(degree)}
    while True:
        fresh = {a * b for a, b in itertools.product(elements, repeat=2)} - elements
        if not fresh:
            return elements
        elements |= fresh


class TestGenerateGroup:
    def test_empty_generators(self):
        g = generate_group((), 3)
        assert len(g) == 1
        assert g.elements == (Permutation.identity(3),)

    def test_single_involution(self):
        g = generate_group([perm((0, 1), degree=3)], 3)
        assert len(g) == 2

    def test_two_transpositions_close_to_six(self):
        gens = [perm((0, 1), degree=3), perm((1, 2), degree=3)]
        g = generate_group(gens, 3)
        assert len(g) == 6
        assert set(g.elements) == closure_oracle(gens, 3)

    def test_elements_sorted_and_deduped(self):
        g = generate_group([perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)], 4)
        assert len(g) == 24
        assert list(g.elements) == sorted(set(g.elements))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            generate_group([Permutation.identity(2)], 3)

    def test_lagrange(self):
        for gens, degree in [
            ([perm((0, 1), degree=4)], 4),
            ([perm((0, 1, 2), degree=5), perm((3, 4), degree=5)], 5),
        ]:
            g = generate_group(gens, degree)
            assert math.factorial(degree) % len(g) == 0

    def test_regeneration_is_stable(self):
        g = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        again = PermGroup.from_elements(g.elements, 3)
        assert again.elements == g.elements

    def test_from_elements_rejects_non_closed(self):
        with pytest.raises(ValueError):
            PermGroup.from_elements(
                [Permutation.identity(3), perm((0, 1, 2), degree=3)], 3
            )

    def test_membership_and_subgroup(self):
        s3 = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        h = generate_group([perm((1, 2), degree=3)], 3)
        assert perm((0, 1), degree=3) in s3
        assert h.is_subgroup_of(s3)
        assert not s3.is_subgroup_of(h)


class TestGroupStructure:
    def s3(self):
        return generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)

    def test_center_trivial_group(self):
        assert PermGroup.trivial(3).center() == [Permutation.identity(3)]

    def test_center_abelian_group_is_itself(self):
        g = generate_group([perm((0, 1), degree=3)], 3)
        assert g.center() == list(g.elements)

    def test_center_s3_is_trivial(self):
        assert self.s3().center() == [Permutation.identity(3)]

    def test_center_matches_pairwise_scan(self):
        for g in [self.s3(), generate_group([perm((0, 1, 2, 3), degree=4)], 4)]:
            scan = [x for x in g.elements if all(x * y == y * x for y in g.elements)]
            assert g.center() == scan

    def test_is_abelian(self):
        assert generate_group([perm((0, 1, 2, 3), degree=4)], 4).is_abelian()
        assert not self.s3().is_abelian()

    def test_stabilizer_examples(self):
        assert len(PermGroup.trivial(3).stabilizer(0)) == 1
        assert len(self.s3().stabilizer(0)) == 2
        cyclic = generate_group([perm((0, 1, 2), degree=3)], 3)
        assert len(cyclic.stabilizer(0)) == 1

    def test_stabilizer_point_out_of_range(self):
        for point in (3, -1, True, 1.0):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                self.s3().stabilizer(point)

    def test_orbit_and_transitivity(self):
        g = generate_group([perm((0, 1), degree=4)], 4)
        assert g.orbit(0) == (0, 1)
        assert g.orbit(3) == (3,)
        assert g.orbit(np.int64(1)) == (0, 1)
        assert not g.is_transitive()
        assert self.s3().is_transitive()
        # Negative points do not wrap around to the last point.
        for point in (4, -1, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..3"):
                g.orbit(point)


def transitive_classes_oracle(n):
    """All transitive subgroups of S_n up to conjugacy, by exhaustive closure.

    Every subgroup of S_n for n <= 4 is generated by at most two elements,
    so closing every pair finds them all.
    """
    perms = all_perms(n)
    subgroups = set()
    for a, b in itertools.product(perms, repeat=2):
        subgroups.add(tuple(sorted(closure_oracle([a, b], n))))
    transitive = [
        s for s in subgroups if {p(0) for p in s} == set(range(n))
    ]
    classes = set()
    for s in transitive:
        conjugates = []
        for g in perms:
            conjugates.append(tuple(sorted(p.conjugated_by(g) for p in s)))
        classes.add(min(conjugates))
    return classes


class TestTransitiveSubgroups:
    def test_degree_1(self):
        groups = transitive_subgroups_up_to_conjugacy(1)
        assert len(groups) == 1
        assert len(groups[0]) == 1

    def test_degree_2(self):
        groups = transitive_subgroups_up_to_conjugacy(2)
        assert len(groups) == 1
        assert groups[0].elements == tuple(sorted(all_perms(2)))

    def test_degree_3(self):
        groups = transitive_subgroups_up_to_conjugacy(3)
        assert sorted(len(g) for g in groups) == [3, 6]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exhaustive_oracle(self, n):
        got = {tuple(g.elements) for g in transitive_subgroups_up_to_conjugacy(n)}
        assert got == transitive_classes_oracle(n)

    def test_degree_5_and_6_class_counts(self):
        assert len(transitive_subgroups_up_to_conjugacy(5)) == 5
        assert len(transitive_subgroups_up_to_conjugacy(6)) == 16

    def test_all_transitive_and_deterministic(self):
        groups = transitive_subgroups_up_to_conjugacy(4)
        assert sorted(len(g) for g in groups) == [4, 4, 8, 12, 24]
        assert all(g.is_transitive() for g in groups)
        again = transitive_subgroups_up_to_conjugacy(4)
        assert [g.elements for g in groups] == [g.elements for g in again]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_generators_are_those_from_elements_picks(self, n):
        for g in transitive_subgroups_up_to_conjugacy(n):
            rebuilt = PermGroup.from_elements(g.elements, n)
            assert g.generators == rebuilt.generators
            assert g.elements == rebuilt.elements

    def test_orbit_stabilizer_product(self):
        for g in transitive_subgroups_up_to_conjugacy(4):
            assert len(g) == 4 * len(g.stabilizer(0))

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            transitive_subgroups_up_to_conjugacy(8)

    def test_subgroup_class_counts_small(self):
        # classes of ALL subgroups, not only transitive ones
        assert len(_subgroup_classes(1)) == 1
        assert len(_subgroup_classes(2)) == 2
        assert len(_subgroup_classes(3)) == 4
        assert len(_subgroup_classes(4)) == 11
        assert len(_subgroup_classes(5)) == 19

    @pytest.mark.parametrize("n, digest", [
        (5, "d3fc4cd6a628e096ccc82125e9f1d54f13aad70cc8ab6d000e9ddaed809f4482"),
        (6, "09c5cc6aacd3edc9c482c91b554a0494c865b65c6e9b54e6575fbab1dd33f245"),
    ])
    def test_subgroup_classes_frozen(self, n, digest):
        # Representatives, generators and their order, frozen from the
        # search that canonicalized every new subgroup.
        assert hashlib.sha256(repr(_subgroup_classes(n)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_one_canonicalization_per_class(self, n, monkeypatch):
        calls = []
        original = _SymmetricIndex.canonical_subgroup

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(_SymmetricIndex, "canonical_subgroup", counted)
        _subgroup_classes.cache_clear()
        try:
            classes = _subgroup_classes(n)
        finally:
            _subgroup_classes.cache_clear()
        assert len(calls) == len(classes)

    @pytest.mark.slow
    def test_degree_7_subgroup_class_count(self):
        assert len(_subgroup_classes(7)) == 96

    @pytest.mark.slow
    def test_degree_7_transitive_classes(self):
        groups = transitive_subgroups_up_to_conjugacy(7)
        assert sorted(len(g) for g in groups) == [7, 14, 21, 42, 168, 2520, 5040]


class TestSymmetricIndex:
    def test_composition_table_matches(self):
        idx = _sym_index(3)
        perms = [idx.permutation(k) for k in range(6)]
        for a in range(6):
            for b in range(6):
                row = idx.arr[b][idx.arr[a]].reshape(1, 3)
                assert idx.permutation(int(idx.lookup(row)[0])) == perms[a] * perms[b]

    def test_inverse_and_identity(self):
        idx = _sym_index(4)
        assert idx.permutation(idx.identity).is_identity()
        for k in [0, 5, 17, 23]:
            p = idx.permutation(k)
            assert Permutation(tuple(idx.inverse_rows[k])) == p.inverse()

    def test_refuses_orders_above_the_hard_bound(self):
        with pytest.raises(BoundError, match="exceeds the hard bound"):
            _sym_index(HARD_MAX_ORDER + 1)

    def test_closure_matches_generate_group(self):
        idx = _sym_index(4)
        gens = [perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)]
        gen_idx = idx.lookup(np.array([g.images for g in gens], dtype=np.int8))
        closed = idx.closure(int(v) for v in gen_idx)
        got = sorted(idx.permutation(int(e)) for e in closed)
        assert got == list(generate_group(gens, 4).elements)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lookup_inverts_the_rows(self, n):
        idx = _sym_index(n)
        assert np.array_equal(idx.lookup(idx.arr), np.arange(math.factorial(n)))

    def test_closure_grown_from_a_subgroup(self):
        idx = _sym_index(5)
        rows = np.array([perm((0, 1), degree=5).images, perm((2, 3, 4), degree=5).images])
        a, b = (int(v) for v in idx.lookup(rows.astype(np.int8)))
        parent = idx.closure([a])
        assert np.array_equal(idx.closure([a, b], start=parent), idx.closure([a, b]))
        assert np.array_equal(idx.closure([a], start=parent), parent)
