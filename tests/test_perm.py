"""Permutation kernel tests.

Derived expectations here were frozen against throwaway oracles that
recompute the same facts by cruder means (pointwise application loops,
pairwise commutation scans, closure by repeated multiplication); the
oracles live in this file so the main implementation never checks itself.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandles import _subgroups
from quandles._subgroups import _subgroup_classes, _SymmetricIndex, _unit_generators
from quandles.config import HARD_MAX_ORDER, BoundError
from quandles.perm import (
    PermGroup,
    Permutation,
    compose,
    generate_group,
    transitive_subgroups_up_to_conjugacy,
)
from quandles.perm import _cycle_type, _generate


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(n))]


def from_elements(elements, degree):
    """The group on these elements, in generate_group's argument order.

    PermGroup derives its degree from the elements, so the one given is only
    compared with it.
    """
    group = PermGroup(elements)
    assert group.degree == degree
    return group


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

    @pytest.mark.parametrize("degree", [-1, 0])
    @pytest.mark.parametrize("build", [
        Permutation.identity,
        Permutation.from_cycles,
        lambda degree: generate_group([], degree),
    ], ids=["identity", "from_cycles", "generate_group"])
    def test_a_degree_below_1_gets_generate_groups_message(self, build, degree):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            build(degree)

    def test_from_cycles(self):
        assert perm((0, 1), degree=3).images == (1, 0, 2)
        assert perm((0, 1, 2), degree=4).images == (1, 2, 0, 3)
        assert perm((0, 1), (2, 3), degree=4).images == (1, 0, 3, 2)

    def test_from_cycles_refuses_what_is_not_a_point(self):
        # 5 used to raise IndexError, and -1 a message about images [-1, 1, 0].
        for point in (5, -1, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                perm((0, point), degree=3)
        assert perm((np.int64(0), np.int8(2)), degree=3).images == (2, 1, 0)

    @pytest.mark.parametrize("cycles, point", [
        (((0, 1), (0, 1)), 0),
        (((0, 1, 0),), 0),
        (((0, 1), (2, 1)), 1),
        (((2,), (0, 2)), 2),
        (((1,), (1,)), 1),
        (((0, np.int64(2)), (np.int8(2), 1)), 2),
    ])
    def test_from_cycles_refuses_a_point_written_twice(self, cycles, point):
        # (0 1)(0 1) used to give (0 1), and (0 1 0) a message about images.
        with pytest.raises(ValueError, match=f"^point {point} appears twice in the cycles$"):
            perm(*cycles, degree=3)

    def test_from_cycles_keeps_1_cycles(self):
        assert perm((1,), degree=3) == Permutation.identity(3)
        assert perm((1,), (0, 2), degree=3).images == (2, 1, 0)
        assert perm(degree=2) == Permutation.identity(2)

    def test_call_applies(self):
        p = perm((0, 2, 1), degree=3)
        assert [p(x) for x in range(3)] == [2, 0, 1]

    def test_call_refuses_what_is_not_a_point(self):
        # -1 would read the last image, and True would read image 1.
        p = Permutation((1, 0, 2))
        for point in (-1, 3, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                p(point)
        assert p(np.int64(0)) == 1
        assert p(np.int8(2)) == 2

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
        assert p ** np.int64(2) == p * p

    @pytest.mark.parametrize("exponent", ["a", True, 2.0, None])
    def test_pow_needs_an_int_exponent(self, exponent):
        with pytest.raises(TypeError) as info:
            perm((0, 1, 2), degree=3) ** exponent
        assert str(info.value) == f"exponent must be an int, not {type(exponent).__name__}"

    def test_conjugated_by(self):
        p = perm((0, 1), degree=3)
        g = perm((1, 2), degree=3)
        # g^-1 p g moves the transposition's points through g
        assert p.conjugated_by(g) == perm((0, 2), degree=3)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_conjugated_by_is_the_product_of_three(self, n):
        for p, g in itertools.product(all_perms(n), repeat=2):
            assert p.conjugated_by(g) == g.inverse() * p * g

    def test_conjugated_by_refuses_another_degree(self):
        for p, g in ((Permutation.identity(2), Permutation.identity(3)),
                     (Permutation.identity(3), Permutation((1, 0)))):
            with pytest.raises(ValueError) as info:
                p.conjugated_by(g)
            assert str(info.value) == f"degree mismatch: {g.degree} != {p.degree}"

    def test_cycle_type_and_parity(self):
        assert perm((0, 1), degree=4).cycle_type() == (1, 1, 2)
        assert perm((0, 1, 2), degree=3).cycle_type() == (3,)
        assert Permutation.identity(2).is_even()
        assert not perm((0, 1), degree=2).is_even()
        assert perm((0, 1, 2), degree=3).is_even()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_type_is_the_image_tuple_cycle_type_reversed(self, n):
        for images in itertools.permutations(range(n)):
            assert Permutation(images).cycle_type() == _cycle_type(images)[::-1]

    def test_str_cycles(self):
        assert str(Permutation.identity(3)) == "()"
        assert str(perm((0, 2), degree=3)) == "(0 2)"
        assert str(perm((0, 1), (2, 3), degree=4)) == "(0 1)(2 3)"

    def test_ordering_is_by_images(self):
        ps = sorted(all_perms(3))
        assert ps[0].is_identity()
        assert ps == sorted(ps, key=lambda p: p.images)

    def test_comparisons_are_those_of_the_image_tuples(self):
        perms = all_perms(3)
        for p, q in itertools.product(perms, repeat=2):
            a, b = p.images, q.images
            assert (p == q, p != q, p < q, p <= q, p > q, p >= q) == (
                a == b, a != b, a < b, a <= b, a > b, a >= b
            )
        # Permutations of different degrees compare as their tuples do.
        assert Permutation((0,)) < Permutation((1, 0)) < Permutation((1, 0, 2))

    def test_no_comparison_with_a_plain_tuple(self):
        p = Permutation((0, 1))
        assert not p == (0, 1)
        assert p != (0, 1)
        for compare in (
            lambda: p < (0, 1),
            lambda: p <= (0, 1),
            lambda: p > (0, 1),
            lambda: p >= (0, 1),
            lambda: (0, 1) < p,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_hash_repr_and_keyword(self):
        p = Permutation((1, 0, 2))
        assert hash(p) == hash((p.images,))
        assert repr(p) == "Permutation(images=(1, 0, 2))"
        assert Permutation(images=(1, 0, 2)) == p
        assert eval(repr(p)) == p

    def test_immutable(self):
        p = Permutation((1, 0))
        with pytest.raises(AttributeError):
            p.images = (0, 1)
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            del p.images
        assert p.images == (1, 0)

    def test_replace_reruns_the_checks(self):
        p = Permutation((1, 0))
        assert dataclasses.replace(p, images=[0, 1]) == Permutation.identity(2)
        with pytest.raises(ValueError, match="not a permutation"):
            dataclasses.replace(p, images=(0, 0))
        with pytest.raises(TypeError, match="not bools"):
            dataclasses.replace(p, images=(True, False))

    def test_sorting_and_set_membership(self):
        perms = all_perms(4)
        backwards = perms[::-1]
        assert sorted(backwards) == perms  # itertools order is lexicographic
        assert min(backwards) == Permutation.identity(4)
        members = set(backwards)
        assert len(members) == 24
        assert all(Permutation(p.images) in members for p in perms)
        assert Permutation((0, 1, 2, 3, 4)) not in members
        assert (0, 1, 2, 3) not in members

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
        again = PermGroup(g.elements)
        assert again.elements == g.elements

    def test_from_elements_rejects_non_closed(self):
        # The identity and one 3-cycle, without its square.
        with pytest.raises(ValueError, match="not closed under composition"):
            PermGroup([Permutation.identity(3), perm((0, 1, 2), degree=3)])

    def test_membership_and_subgroup(self):
        s3 = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        h = generate_group([perm((1, 2), degree=3)], 3)
        assert perm((0, 1), degree=3) in s3
        assert h.is_subgroup_of(s3)
        assert not s3.is_subgroup_of(h)

    def test_membership_needs_a_permutation_of_the_degree(self):
        s3 = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        assert Permutation.identity(3) in s3
        for outsider in ((0, 1, 2), [0, 1, 2], Permutation.identity(2), Permutation.identity(4)):
            assert outsider not in s3

    def test_equality_and_hash_ignore_the_generators(self):
        s3 = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        other = generate_group([perm((0, 1, 2), degree=3), perm((0, 2), degree=3)], 3)
        assert other == s3 and hash(other) == hash(s3)
        assert other.generators == s3.generators
        assert len({s3, other}) == 1
        assert s3 != generate_group([perm((0, 1), degree=3)], 3)

    def test_equality_is_by_element_set(self):
        e, t = Permutation.identity(3), perm((0, 1), degree=3)
        first, second = PermGroup((e, t)), PermGroup((t, e))
        assert first == second and hash(first) == hash(second)
        assert first.elements == second.elements == (e, t)
        assert first.generators == second.generators == (t,)

    def test_generators_are_derived_from_the_elements(self):
        s3 = generate_group([perm((0, 1), degree=3), perm((1, 2), degree=3)], 3)
        built = PermGroup(s3.elements[::-1])
        assert built.generators == s3.generators == (perm((1, 2), degree=3), perm((0, 1), degree=3))
        assert built.center() == [Permutation.identity(3)]
        assert not built.is_abelian()

    def test_immutable(self):
        g = generate_group([perm((0, 1), degree=3)], 3)
        for name in ("degree", "generators", "elements", "_members", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, name, ())
        for name in ("degree", "generators", "elements", "_members"):
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert len(g) == 2 and g in {g}
        assert repr(g) == "PermGroup(degree=3, order=2)"

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)), dataclasses.replace],
    )
    def test_copy_and_pickle(self, duplicate):
        g = generate_group([perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)], 4)
        twin = duplicate(g)
        assert type(twin) is PermGroup
        assert twin == g and hash(twin) == hash(g)
        assert twin.degree == g.degree == 4 and type(twin.degree) is int
        assert twin.generators == g.generators
        assert all(p in twin for p in g)


class TestPermGroupRefusals:
    """The constructor's checks, closure included, and generate_group's."""

    def group(self):
        return generate_group([perm((0, 1), degree=3)], 3)

    def test_degree_is_derived_not_an_argument(self):
        g = self.group()
        assert g.degree == 3
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(g, degree=4)

    def test_element_that_is_not_a_permutation(self):
        class Impostor:
            @property
            def degree(self):
                raise AssertionError("the degree of a non-Permutation was read")

            images = degree

        with pytest.raises(TypeError, match="must be Permutations, not tuple"):
            PermGroup(((0, 1, 2),))
        with pytest.raises(TypeError, match="must be Permutations, not tuple"):
            PermGroup((Permutation.identity(3), (0, 1, 2)))
        # The type is checked before any degree is read.
        with pytest.raises(TypeError, match="must be Permutations, not Impostor"):
            PermGroup((Impostor(), Permutation.identity(3)))

    def test_generator_that_is_not_a_permutation(self):
        with pytest.raises(TypeError, match="must be Permutations, not int"):
            generate_group((1,), 3)

    def test_element_of_another_degree(self):
        with pytest.raises(ValueError, match="permutation degree 2 != group degree 3"):
            PermGroup((Permutation.identity(3), Permutation.identity(2)))
        # The first element sets the degree the others are held to.
        with pytest.raises(ValueError, match="permutation degree 3 != group degree 2"):
            PermGroup((Permutation.identity(2), Permutation.identity(3)))

    def test_generator_of_another_degree(self):
        with pytest.raises(ValueError, match="permutation degree 4 != group degree 3"):
            generate_group((Permutation.identity(4),), 3)

    def test_empty_element_list(self):
        with pytest.raises(ValueError, match="at least the identity"):
            PermGroup(())
        with pytest.raises(ValueError, match="at least the identity"):
            dataclasses.replace(self.group(), elements=())

    def test_element_list_without_the_identity(self):
        with pytest.raises(ValueError, match="at least the identity"):
            PermGroup((perm((0, 1), degree=3),))

    def test_generators_are_not_an_argument(self):
        g = self.group()
        with pytest.raises(TypeError):
            PermGroup(g.generators, g.elements)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(g, generators=g.generators)

    # The builders that take a degree: PermGroup derives its own.
    @pytest.mark.parametrize("build", [
        lambda degree: generate_group([Permutation.identity(3)], degree),
        PermGroup.trivial,
    ], ids=["generate_group", "trivial"])
    @pytest.mark.parametrize("degree", [3.0, "3", True, None])
    def test_builders_refuse_a_degree_that_is_not_an_int(self, build, degree):
        with pytest.raises(TypeError) as info:
            build(degree)
        assert str(info.value) == f"group degree must be an int, not {type(degree).__name__}"

    @pytest.mark.parametrize("build", [generate_group, from_elements])
    def test_builders_check_each_member(self, build):
        with pytest.raises(TypeError, match="must be Permutations, not tuple"):
            build([(0, 1)], 2)
        with pytest.raises(ValueError, match="permutation degree 2 != group degree 3"):
            build([Permutation.identity(3), Permutation.identity(2)], 3)

    def test_from_no_elements(self):
        with pytest.raises(ValueError, match="at least the identity"):
            from_elements([], 3)

    def test_replace_keeps_a_valid_group(self):
        g = self.group()
        assert dataclasses.replace(g) == g
        assert dataclasses.replace(g, elements=g.elements[::-1]) == g
        assert dataclasses.replace(g, elements=(Permutation.identity(4),)).degree == 4
        with pytest.raises(ValueError, match="not closed under composition"):
            dataclasses.replace(g, elements=(Permutation.identity(3), perm((0, 1, 2), degree=3)))


def breadth_first_closure(gens, degree):
    """The group generated, by multiplying on the right by generators until nothing is new."""
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        fresh = {x * g for x in frontier for g in gens} - elements
        elements |= fresh
        frontier = list(fresh)
    return elements


def reference_from_elements(elements, degree):
    """(generators, elements) by the greedy scan over sorted(set(elements))."""
    elems = sorted(set(elements))
    gens, reached = [], {Permutation.identity(degree)}
    for e in elems:
        if e not in reached:
            gens.append(e)
            reached = breadth_first_closure(gens, degree)
    return tuple(gens), tuple(elems)


class TestImageTupleOrder:
    """generate_group and the constructor sort and scan on image tuples.

    They must give what sorted(set(...)) of the Permutations gives: the
    elements in that order, and the generators the greedy scan keeps.
    """

    def assert_matches_references(self, perms, degree):
        g = generate_group(perms, degree)
        expected = reference_from_elements(breadth_first_closure(set(perms), degree), degree)
        assert (g.generators, g.elements) == expected
        h = PermGroup(g.elements[::-1])
        assert (h.generators, h.elements) == expected

    def test_inner_and_automorphism_groups_of_the_census(self, censuses):
        for n in range(1, 6):
            for q in censuses.brute(n).tables:
                self.assert_matches_references(q.symmetries(), n)
                self.assert_matches_references(q.automorphism_group().generators, n)

    def test_random_generator_lists_on_s5(self):
        rng = random.Random(1805)
        perms = all_perms(5)
        for _ in range(40):
            gens = rng.sample(perms, rng.randint(1, 3))
            gens += rng.choices(gens, k=rng.randint(1, 3))  # duplicates, out of order
            rng.shuffle(gens)
            self.assert_matches_references(gens, 5)


class TestDerivedGenerators:
    """Every group's derived generators generate it, and any element order derives them."""

    def assert_generated_by_its_generators(self, g):
        assert generate_group(g.generators, g.degree) == g
        assert PermGroup(g.elements[::-1]).generators == g.generators

    def test_census_groups(self, censuses):
        for n in range(1, 6):
            for q in censuses.brute(n).tables:
                inner = generate_group(q.symmetries(), n)
                for g in (inner, inner.stabilizer(0), q.automorphism_group()):
                    self.assert_generated_by_its_generators(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_transitive_class_representatives(self, n):
        for g in transitive_subgroups_up_to_conjugacy(n):
            self.assert_generated_by_its_generators(g)
            self.assert_generated_by_its_generators(g.stabilizer(0))


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
        groups = [self.s3(), generate_group([perm((0, 1, 2, 3), degree=4)], 4)]
        for n in range(1, 7):
            for g in transitive_subgroups_up_to_conjugacy(n):
                groups += [g, g.stabilizer(0)]
        for g in groups:
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

    def test_stabilizer_is_computed_once_per_point(self):
        s3 = self.s3()
        assert s3.stabilizer(0) is s3.stabilizer(np.int64(0))
        assert s3.stabilizer(1) is not s3.stabilizer(0)
        assert s3.stabilizer(1) == generate_group([perm((0, 2), degree=3)], 3)
        assert copy.copy(s3).stabilizer(0) == s3.stabilizer(0)

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

    @pytest.mark.parametrize("n", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_subgroup_classes_frozen(self, n):
        # The representatives' element tuples and their order, frozen from
        # the search that scanned each representative for its generators.
        digest = {
            5: "89a3f40ef7c1c875dfaebb2ad61a574a52e4c84d13084977fbc1170c246a2851",
            6: "31e54cff0410eb5465972a10c8268282962938707f7a4e042d8bd075a5a04d83",
            7: "4dbfec0d078d662caaf995a3a6c55bc1cb9950e44372db39c6295f35a68673df",
        }[n]
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

    def test_one_extension_per_cyclic_subgroup(self, monkeypatch):
        # The orbits of x -> h x, x -> c x c^-1 and x -> x^k do not depend
        # on which generators of the units mod lcm(1..n) give the k.
        counts = []
        original = _SymmetricIndex.extension_reps

        def counted(self, *args):
            reps = original(self, *args)
            counts.append(reps.size)
            return reps

        monkeypatch.setattr(_SymmetricIndex, "extension_reps", counted)
        _subgroup_classes.cache_clear()
        try:
            _subgroup_classes(6)
        finally:
            _subgroup_classes.cache_clear()
        assert sum(counts) == 456

    def test_closures_at_degree_6(self, monkeypatch):
        # Each class's generators are its parent's and g, conjugated onto
        # the representative, and N(H)'s extend H's.  Scanning each
        # representative and each N(H) from the identity took 840.
        calls = []
        original = _SymmetricIndex.closure

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_SymmetricIndex, "closure", counted)
        _subgroup_classes.cache_clear()
        try:
            _subgroup_classes(6)
        finally:
            _subgroup_classes.cache_clear()
        assert len(calls) == 535

    def test_the_index_dies_with_its_search(self, monkeypatch):
        # No cache and no reference cycle may keep the index alive: at degree
        # 8 its maps hold about 30 MB.  So no gc.collect() before the check.
        refs = []
        original = _SymmetricIndex.canonical_subgroup

        def recorded(self, *args):
            refs.append(weakref.ref(self))
            return original(self, *args)

        monkeypatch.setattr(_SymmetricIndex, "canonical_subgroup", recorded)
        _subgroup_classes.cache_clear()
        try:
            _subgroup_classes(5)
        finally:
            _subgroup_classes.cache_clear()
        assert refs and all(ref() is None for ref in refs)

    def test_the_rows_of_s_n_are_listed_after_the_search(self, monkeypatch):
        # At degree 8 the n! rows are about 5 MB; listed before the search,
        # they were alive at its peak and raised the peak RSS 94 -> 99 MB.
        classes = _subgroup_classes(4)
        expected = _subgroups._transitive_class_rows(4)
        log = []
        permutations = itertools.permutations

        def listed(*args):
            log.append("list")
            return permutations(*args)

        monkeypatch.setattr(
            _subgroups, "_subgroup_classes", lambda n: log.append("search") or classes
        )
        monkeypatch.setattr(itertools, "permutations", listed)
        assert _subgroups._transitive_class_rows(4) == expected
        assert log == ["search", "list"]

    @pytest.mark.slow
    def test_degree_7_subgroup_class_count(self):
        assert len(_subgroup_classes(7)) == 96

    @pytest.mark.slow
    def test_degree_7_transitive_classes(self):
        groups = transitive_subgroups_up_to_conjugacy(7)
        assert sorted(len(g) for g in groups) == [7, 14, 21, 42, 168, 2520, 5040]


def trivial(idx):
    """The trivial group's index array, where a closure from the identity starts."""
    return np.array([idx.identity], dtype=np.int64)


class TestSymmetricIndex:
    def test_composition_table_matches(self):
        idx = _SymmetricIndex(3)
        perms = [Permutation(idx.arr[k]) for k in range(6)]
        for a in range(6):
            for b in range(6):
                row = idx.arr[b][idx.arr[a]].reshape(1, 3)
                assert Permutation(idx.arr[idx.lookup(row)[0]]) == perms[a] * perms[b]

    def test_inverse_and_identity(self):
        idx = _SymmetricIndex(4)
        assert Permutation(idx.arr[idx.identity]).is_identity()
        for k in [0, 5, 17, 23]:
            p = Permutation(idx.arr[k])
            assert Permutation(tuple(idx.inverse_rows[k])) == p.inverse()

    def test_refuses_orders_above_the_hard_bound(self):
        with pytest.raises(BoundError, match="exceeds the hard bound"):
            _SymmetricIndex(HARD_MAX_ORDER + 1)

    def test_closure_matches_generate_group(self):
        idx = _SymmetricIndex(4)
        gens = [perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)]
        gen_idx = idx.lookup(np.array([g.images for g in gens], dtype=np.int8))
        closed = idx.closure((int(v) for v in gen_idx), trivial(idx))
        got = sorted(Permutation(idx.arr[e]) for e in closed)
        assert got == list(generate_group(gens, 4).elements)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lookup_inverts_the_rows(self, n):
        idx = _SymmetricIndex(n)
        assert np.array_equal(idx.lookup(idx.arr), np.arange(math.factorial(n)))

    def test_closure_grown_from_a_subgroup(self):
        idx = _SymmetricIndex(5)
        rows = np.array([perm((0, 1), degree=5).images, perm((2, 3, 4), degree=5).images])
        a, b = (int(v) for v in idx.lookup(rows.astype(np.int8)))
        parent = idx.closure([a], trivial(idx))
        assert np.array_equal(idx.closure([a, b], start=parent), idx.closure([a, b], trivial(idx)))
        assert np.array_equal(idx.closure([a], start=parent), parent)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_power_maps_are_powers_that_keep_the_order(self, n):
        idx = _SymmetricIndex(n)
        perms = [Permutation(idx.arr[x]) for x in range(idx.size)]
        orders = [math.lcm(*p.cycle_type()) for p in perms]
        exponent = math.lcm(*range(1, n + 1))
        assert len(idx.power_maps) == len(_unit_generators(exponent))
        for k, power in zip(_unit_generators(exponent), idx.power_maps):
            assert sorted(power.tolist()) == list(range(idx.size))
            assert [orders[int(y)] for y in power] == orders
            assert [perms[int(y)] for y in power] == [p**k for p in perms]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_generators_generate_every_unit(self, n):
        exponent = math.lcm(*range(1, n + 1))
        units = {k % exponent for k in range(1, exponent + 1) if math.gcd(k, exponent) == 1}
        reached = {1 % exponent}
        frontier = list(reached)
        while frontier:
            step = {r * k % exponent for r in frontier for k in _unit_generators(exponent)}
            frontier = list(step - reached)
            reached |= step
        assert reached == units

    @pytest.mark.parametrize("n", range(3, 7))
    def test_closure_of_a_transposition_and_an_n_cycle(self, n):
        idx = _SymmetricIndex(n)
        rows = np.array(
            [perm((0, 1), degree=n).images, perm(tuple(range(n)), degree=n).images],
            dtype=np.int8,
        )
        t, c = (int(v) for v in idx.lookup(rows))
        everything = np.arange(idx.size)
        assert np.array_equal(idx.closure([t, c], trivial(idx)), everything)
        assert np.array_equal(idx.closure([t, c], start=idx.closure([t], trivial(idx))), everything)
        assert np.array_equal(idx.closure([t, c], start=idx.closure([c], trivial(idx))), everything)


def closed_indices(idx, generators):
    """The closure of the generators' indices, and its index array by _generate."""
    gens = [g.images for g in generators]
    gen_idx = idx.lookup(np.array(gens, dtype=np.int8).reshape(-1, idx.n)).tolist()
    _, closure = _generate(gens, idx.n)
    expected = np.sort(idx.lookup(np.array(sorted(closure), dtype=np.int8)))
    return idx.closure(gen_idx, trivial(idx)), expected


class TestClosureExit:
    """For n >= 5 closure stops once the index falls below n (A_n or S_n)."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_three_cycles_close_to_the_even_indices(self, n):
        idx = _SymmetricIndex(n)
        three_cycles = [perm((0, 1, k), degree=n) for k in range(2, n)]
        got, expected = closed_indices(idx, three_cycles)
        even = [x for x in range(idx.size) if Permutation(idx.arr[x]).is_even()]
        assert got.tolist() == expected.tolist() == even

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_a_transposition_more_closes_to_everything(self, n):
        idx = _SymmetricIndex(n)
        gens = [perm((0, 1, k), degree=n) for k in range(2, n)] + [perm((0, 1), degree=n)]
        got, expected = closed_indices(idx, gens)
        assert got.tolist() == expected.tolist() == list(range(idx.size))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_point_stabilizer_at_index_n(self, n):
        idx = _SymmetricIndex(n)
        gens = [perm((0, 1), degree=n), perm(tuple(range(n - 1)), degree=n)]
        got, expected = closed_indices(idx, gens)
        assert got.tolist() == expected.tolist()
        assert got.size == math.factorial(n - 1)

    def test_transitive_pgl_2_5_at_index_6(self):
        # PGL(2, 5) on the projective line, infinity as point 5:
        # x -> x + 1, x -> 2x and x -> -1/x.
        idx = _SymmetricIndex(6)
        gens = [
            perm((0, 1, 2, 3, 4), degree=6),
            perm((1, 2, 4, 3), degree=6),
            perm((0, 5), (1, 4), degree=6),
        ]
        got, expected = closed_indices(idx, gens)
        assert got.tolist() == expected.tolist()
        assert got.size == 120
        assert len(set(idx.arr[got, 0].tolist())) == 6

    def test_dihedral_at_index_3_in_s4(self):
        idx = _SymmetricIndex(4)
        got, expected = closed_indices(idx, [perm((0, 1, 2, 3), degree=4), perm((0, 2), degree=4)])
        assert got.tolist() == expected.tolist()
        assert got.size == 8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_parity_vector_matches_is_even(self, n):
        idx = _SymmetricIndex(n)
        assert idx.even.tolist() == [Permutation(idx.arr[x]).is_even() for x in range(idx.size)]
        with pytest.raises(ValueError, match="read-only"):
            idx.even[0] = False


class TestIndexMaps:
    @pytest.mark.parametrize("n", [4, 5])
    def test_each_map_is_the_products_it_names(self, n):
        idx = _SymmetricIndex(n)
        perms = [Permutation(idx.arr[x]) for x in range(idx.size)]
        index = {p: x for x, p in enumerate(perms)}
        for e, g in enumerate(perms):
            # x -> g x (g after x), x -> g x g^-1 and x -> x g (x after g),
            # with p * q applying p first.
            expected = {
                idx.product_map: [index[p * g] for p in perms],
                idx.conjugation_map: [index[p.conjugated_by(g)] for p in perms],
                idx.coset_map: [index[g * p] for p in perms],
            }
            for build, images in expected.items():
                got = build(e)
                assert got.dtype == np.uint16
                assert got.tolist() == images
                assert build(e) is got
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 0
