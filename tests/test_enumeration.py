"""Connected enumeration via the coset construction.

The census fixture provides the brute-force side; these tests pin the
structure-method counts and check the realize/construct round trip on
every connected quandle in range.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import math
import pickle

import pytest

from quandles.enumeration import (
    CensusEntry,
    ConnectedSeed,
    GenerationFailureError,
    NotConnectedError,
    check_generation,
    coset_quandle,
    enumerate_connected,
    realize,
)
from quandles.perm import (
    PermGroup,
    Permutation,
    generate_group,
    transitive_subgroups_up_to_conjugacy,
)
from quandles.decompose import disjoint_union
from quandles.quandle import Quandle, dihedral_quandle, trivial_quandle

from conftest import TAIT_TABLE

CONNECTED_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 2}
INNER_ORDERS = {3: [6], 4: [12], 5: [10, 20, 20], 6: [24, 24]}


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


class TestSeeds:
    def test_trivial_seed(self):
        group = PermGroup.trivial(1)
        seed = ConnectedSeed(group, Permutation.identity(1))
        assert seed.reps == (Permutation.identity(1),)
        assert check_generation(seed)

    def test_z_must_stabilize_zero(self):
        group = generate_group([perm((0, 1, 2), degree=3)], 3)
        with pytest.raises(ValueError, match="z must lie in the stabilizer"):
            ConnectedSeed(group, perm((0, 1, 2), degree=3))

    def test_z_must_be_central_in_stabilizer(self):
        sym4 = generate_group(
            [perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)], 4
        )
        # stabilizer of 0 is the symmetric group on {1,2,3}; (1 2) is not central
        with pytest.raises(ValueError, match="z must be central in the stabilizer"):
            ConnectedSeed(sym4, perm((1, 2), degree=4))

    def test_group_must_be_transitive(self):
        flip = generate_group([perm((0, 1), degree=4)], 4)
        with pytest.raises(ValueError, match="group must be transitive"):
            ConnectedSeed(flip, Permutation.identity(4))

    def test_check_generation_examples(self, t3):
        cyclic4 = generate_group([perm((0, 1, 2, 3), degree=4)], 4)
        assert not check_generation(ConnectedSeed(cyclic4, Permutation.identity(4)))
        assert check_generation(realize(t3))


class TestCosetQuandle:
    def test_identity_z_fails_generation(self):
        sym3 = generate_group([perm((0, 1), degree=3), perm((0, 1, 2), degree=3)], 3)
        with pytest.raises(GenerationFailureError):
            coset_quandle(ConnectedSeed(sym3, Permutation.identity(3)))

    def test_tait_round_trip_is_exact(self, t3):
        assert coset_quandle(realize(t3)) == t3

    def test_single_point(self):
        q1 = trivial_quandle(1)
        assert coset_quandle(realize(q1)) == q1

    def test_realize_rejects_disconnected(self):
        with pytest.raises(NotConnectedError):
            realize(trivial_quandle(2))

    def test_realize_refuses_before_it_builds_a_group(self, monkeypatch):
        # Three orbits, R_3 and two fixed points, relabeled so that no other
        # test has cached an inner group for this table.
        q = disjoint_union([dihedral_quandle(3), trivial_quandle(2)]).relabel(
            Permutation((4, 0, 3, 1, 2))
        )
        calls = []
        for name in ("quandles.perm", "quandles.quandle", "quandles.enumeration"):
            module = importlib.import_module(name)
            real = module.generate_group
            monkeypatch.setattr(
                module, "generate_group", lambda *args, real=real: calls.append(args) or real(*args)
            )
        assert "inner" not in q._cache
        with pytest.raises(NotConnectedError, match="quandle has 3 orbits, needs exactly 1"):
            realize(q)
        assert calls == [] and "inner" not in q._cache

    def test_realize_tait(self, t3):
        seed = realize(t3)
        assert len(seed.group) == 6
        assert len(seed.stabilizer) == 2
        assert seed.z == perm((1, 2), degree=3)

    def test_realize_dihedral_5(self):
        seed = realize(dihedral_quandle(5))
        assert len(seed.group) == 10
        assert len(seed.stabilizer) == 2

    def test_round_trip_every_connected_quandle(self, censuses):
        for n in range(1, 7):
            for q in censuses.brute(n).connected():
                rebuilt = coset_quandle(realize(q))
                assert rebuilt == q

    def test_inner_group_matches_seed_group(self, censuses):
        for n in range(1, 6):
            for q in censuses.brute(n).connected():
                seed = realize(q)
                assert coset_quandle(seed).inner_group() == seed.group

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_conjugates_are_the_symmetries(self, n, censuses, request):
        # Column k of the coset quandle is conjugates[k], z conjugated by
        # reps[k], which is the symmetry S_k of the quandle realized.
        census = request.getfixturevalue("census_7") if n == 7 else censuses.brute(n)
        for q in census.connected():
            seed = realize(q)
            assert seed.conjugates == tuple(q.symmetries())
            assert coset_quandle(seed).inner_group() == q.inner_group()

    def test_rep_choice_does_not_matter(self, t3):
        seed = realize(t3)
        q = coset_quandle(seed)
        for j, rep in enumerate(seed.reps):
            for h in seed.stabilizer:
                assert (h * rep)(0) == j
                assert seed.z.conjugated_by(h * rep) == q.symmetry(j)


class TestEnumerateConnected:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, censuses, n, count):
        assert len(censuses.structure(n)) == count

    @pytest.mark.parametrize("n", sorted(INNER_ORDERS))
    def test_inner_orders(self, censuses, n):
        got = sorted(entry.inner_order for entry in censuses.structure(n))
        assert got == INNER_ORDERS[n]

    def test_order_3_is_the_tait_class(self, censuses):
        (entry,) = censuses.structure(3)
        assert entry.quandle.table == TAIT_TABLE

    def test_entries_are_valid_and_canonical(self, censuses):
        for n in range(1, 7):
            for entry in censuses.structure(n):
                q = entry.quandle
                assert q.is_connected()
                assert q.canonical_form() == q
                assert len(entry.seed.group) == entry.inner_order
                assert n * len(entry.seed.stabilizer) == entry.inner_order

    def test_filters_do_not_change_results(self):
        # Inn of a connected quandle of order n > 1 is nonabelian, is S_n
        # only for n = 3 and A_n only for n = 4 (Hulpke, Stanovsky and
        # Vojtechovsky).  The enumerator does not prune these groups; none
        # of their seeds generates, so pruning could not change the census.
        for n in range(2, 7):
            for group in transitive_subgroups_up_to_conjugacy(n):
                index = math.factorial(n) // len(group)
                alternating = index == 2 and all(g.is_even() for g in group)
                if group.is_abelian() or (index == 1 and n != 3) or (alternating and n != 4):
                    for z in group.stabilizer(0).center():
                        assert not check_generation(ConnectedSeed(group, z))

    def test_matches_brute_force(self, censuses):
        for n in range(1, 7):
            brute = {q.table for q in censuses.brute(n).connected()}
            structure = {e.quandle.table for e in censuses.structure(n)}
            assert brute == structure

    def test_bound_refusal(self):
        with pytest.raises(ValueError):
            enumerate_connected(7)

    def test_entries_share_their_groups_stabilizer(self):
        for entry in enumerate_connected(6):
            assert entry.seed.stabilizer is entry.seed.group.stabilizer(0)


class TestCensusEntry:
    def test_the_quandle_is_derived_from_the_seed(self):
        for entry in enumerate_connected(5):
            built = CensusEntry(entry.seed)
            assert built.quandle == coset_quandle(entry.seed).canonical_form() == entry.quandle
            assert built == entry

    def test_a_seed_that_does_not_generate_is_refused(self):
        sym3 = generate_group([perm((0, 1), degree=3), perm((0, 1, 2), degree=3)], 3)
        with pytest.raises(GenerationFailureError):
            CensusEntry(ConnectedSeed(sym3, Permutation.identity(3)))

    def test_the_quandle_is_not_an_argument(self):
        (entry,) = enumerate_connected(3)
        with pytest.raises(TypeError):
            CensusEntry(entry.quandle, entry.seed)


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
    )
    def test_round_trip_of_seeds_and_entries(self, duplicate):
        for entry in enumerate_connected(5):
            for value in (entry, entry.seed):
                twin = duplicate(value)
                assert type(twin) is type(value)
                assert twin == value
            assert duplicate(entry.seed).stabilizer.is_subgroup_of(entry.seed.group)
            assert duplicate(entry.seed).conjugates == entry.seed.conjugates

    def test_replace_derives_the_conjugates_again(self):
        for entry in enumerate_connected(5):
            seed = entry.seed
            assert dataclasses.replace(seed).conjugates == seed.conjugates
            identity = Permutation.identity(seed.order)
            assert dataclasses.replace(seed, z=identity).conjugates == (identity,) * seed.order
