"""Quandle core tests.

The fixture of record is the order-3 connected quandle T3 with table rows
(0,2,1), (2,1,0), (1,0,2); its symmetries, inner group, and automorphism
group are pinned by hand.  Oracles for the derived facts (orbit closure,
exhaustive automorphism filters, witness sets) are local to this file.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.perm import Permutation, generate_group
from quandles.quandle import (
    DistributivityViolation,
    IdempotenceViolation,
    InvertibilityViolation,
    Quandle,
    RangeViolation,
    axiom_violations,
    dihedral_quandle,
    is_quandle_table,
    trivial_quandle,
)
from conftest import TAIT_TABLE, TWO_ORBIT_TABLE


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


class TestValidation:
    def test_tait_table_is_valid(self):
        assert is_quandle_table(TAIT_TABLE)

    def test_trivial_tables_are_valid(self):
        for n in range(1, 6):
            assert is_quandle_table(trivial_quandle(n).table)

    def test_idempotence_violation(self):
        violations = axiom_violations([[1, 0], [0, 1]])
        assert IdempotenceViolation(0) in violations

    def test_invertibility_violation(self):
        violations = axiom_violations([[0, 1], [1, 1]])
        assert InvertibilityViolation(1) in violations

    def test_distributivity_violation_alone(self):
        # columns: identity, (0 2), (0 1); idempotence and invertibility hold
        table = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
        violations = axiom_violations(table)
        assert violations
        assert all(isinstance(v, DistributivityViolation) for v in violations)

    def test_range_violations_reported_first(self):
        violations = axiom_violations([[0, 7], [1, 1]])
        assert violations == [RangeViolation(0, 1, 7)]
        assert axiom_violations([[0, True], [0, 1]]) == [RangeViolation(0, 1, True)]

    def test_collects_every_violation(self):
        # break idempotence at 1 and invertibility in column 0
        violations = axiom_violations([[0, 0, 0], [0, 2, 1], [2, 1, 2]])
        kinds = {type(v) for v in violations}
        assert IdempotenceViolation(1) in violations
        assert InvertibilityViolation(0) in violations
        assert kinds >= {IdempotenceViolation, InvertibilityViolation}

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            axiom_violations([[0, 1], [1]])

    def test_constructor_raises_with_named_violation(self):
        with pytest.raises(ValueError, match="acted on by itself"):
            Quandle([[1, 0], [0, 1]])
        # Entries must be ints: the raw entries are checked before any conversion.
        for table in ([[0.7]], [["0"]], [[False]], [[0, 1.0], [0, 1]]):
            with pytest.raises(ValueError, match="not a point of the quandle"):
                Quandle(table)
        q = Quandle(np.array([[0, 0], [1, 1]], dtype=np.int8))
        assert q.table == ((0, 0), (1, 1)) and type(q.table[1][0]) is int

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Quandle([])

    def test_describe_is_readable(self):
        for v in axiom_violations([[0, 0, 0], [0, 2, 1], [2, 1, 2]]):
            assert v.describe()


class TestBasics:
    def test_op_and_len(self, t3):
        assert len(t3) == 3
        assert t3.op(0, 1) == 2
        assert t3.order == 3

    def test_equality_and_hash(self, t3):
        assert t3 == Quandle(TAIT_TABLE)
        assert hash(t3) == hash(Quandle(TAIT_TABLE))
        assert t3 != trivial_quandle(3)

    def test_immutable(self, t3):
        with pytest.raises(AttributeError):
            t3.table = ()

    def test_is_trivial(self, t3):
        assert trivial_quandle(4).is_trivial()
        assert not t3.is_trivial()

    def test_dihedral_3_is_tait(self, t3):
        assert dihedral_quandle(3) == t3

    def test_dihedral_axioms(self):
        for n in range(1, 8):
            assert is_quandle_table(dihedral_quandle(n).table)


class TestSymmetries:
    def test_tait_symmetries_pinned(self, t3):
        assert t3.symmetries() == [
            perm((1, 2), degree=3),
            perm((0, 2), degree=3),
            perm((0, 1), degree=3),
        ]

    def test_symmetry_fixes_its_point(self, t3, q3):
        for q in (t3, q3, trivial_quandle(5), dihedral_quandle(5)):
            for x in range(q.order):
                assert q.symmetry(x)(x) == x
        # Negative points do not wrap around to the last symmetry.
        for point in (3, -1, False):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                t3.symmetry(point)

    def test_trivial_symmetries_are_identity(self):
        q = trivial_quandle(4)
        assert all(s.is_identity() for s in q.symmetries())

    def test_every_symmetry_is_an_automorphism(self, t3, q3):
        for q in (t3, q3, dihedral_quandle(4), dihedral_quandle(5)):
            for x in range(q.order):
                assert q.is_automorphism(q.symmetry(x))

    def test_inner_group_orders(self, t3):
        assert len(trivial_quandle(3).inner_group()) == 1
        assert len(t3.inner_group()) == 6

    def test_inner_group_of_tait_plus_point(self):
        # block-diagonal table: T3 on {0,1,2}, a fixed point 3
        table = [[0, 2, 1, 0], [2, 1, 0, 1], [1, 0, 2, 2], [3, 3, 3, 3]]
        q = Quandle(table)
        inner = q.inner_group()
        assert len(inner) == 6
        assert all(g(3) == 3 for g in inner)

    def test_equivariance(self, t3, q3):
        # the symmetry at a moved point is the conjugated symmetry
        for q in (t3, q3, dihedral_quandle(5)):
            inner = q.inner_group()
            for g in inner.elements:
                for x in range(q.order):
                    assert q.symmetry(g(x)) == q.symmetry(x).conjugated_by(g)

    def test_stabilizer_centrality(self, t3):
        for q in (t3, dihedral_quandle(5)):
            inner = q.inner_group()
            for x in range(q.order):
                stab = inner.stabilizer(x)
                sx = q.symmetry(x)
                assert all(sx * h == h * sx for h in stab.elements)


def orbit_oracle(q):
    """Connected components of x -> x > y edges, ignoring the group."""
    n = q.order
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in itertools.product(range(n), repeat=2):
        ra, rb = find(x), find(q.table[x][y])
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(v)) for v in groups.values())


class TestOrbits:
    def test_trivial_orbits(self):
        assert trivial_quandle(3).orbits() == [(0,), (1,), (2,)]

    def test_tait_single_orbit(self, t3):
        assert t3.orbits() == [(0, 1, 2)]
        assert t3.is_connected()

    def test_two_orbit_example(self, q3):
        assert q3.orbits() == [(0, 1), (2,)]
        assert not q3.is_connected()

    def test_connectedness_small(self):
        assert trivial_quandle(1).is_connected()
        assert not trivial_quandle(2).is_connected()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbits_match_reachability_oracle(self, n, censuses):
        for q in censuses.brute(n).tables:
            assert q.orbits() == orbit_oracle(q)

    def test_orbits_are_subquandles(self, censuses):
        for n in range(1, 5):
            for q in censuses.brute(n).tables:
                for orbit in q.orbits():
                    assert is_quandle_table(q.subquandle(orbit).table)

    def test_connected_order_divides_inner_order(self, censuses):
        for n in range(1, 6):
            for q in censuses.brute(n).tables:
                if q.is_connected():
                    assert len(q.inner_group()) % n == 0

    def test_subquandle_rejects_open_sets(self, t3):
        with pytest.raises(ValueError):
            t3.subquandle([0, 1])
        for points in ([0, 3], [2, -1], [True], [0.0]):
            with pytest.raises(ValueError, match=f"point {points[-1]!r} is not an int in 0..2"):
                t3.subquandle(points)
        assert t3.subquandle([np.int64(1)]) == trivial_quandle(1)


def _point_invariants(q):
    orbit_size = {p: len(orbit) for orbit in q.orbits() for p in orbit}
    return sorted((q.symmetry(x).cycle_type(), orbit_size[x]) for x in range(q.order))


def automorphism_oracle(q):
    n = q.order
    out = []
    for images in itertools.permutations(range(n)):
        sigma = Permutation(images)
        if q.is_automorphism(sigma):
            out.append(sigma)
    return sorted(out)


class TestAutomorphisms:
    def test_trivial_quandle_full_symmetric(self):
        assert len(trivial_quandle(4).automorphism_group()) == 24
        assert len(trivial_quandle(1).automorphism_group()) == 1

    def test_tait_aut_order(self, t3):
        assert len(t3.automorphism_group()) == 6

    def test_two_orbit_aut(self, q3):
        assert list(q3.automorphism_group().elements) == [
            Permutation((0, 1, 2)),
            perm((0, 1), degree=3),
        ]

    def test_matches_exhaustive_filter(self, censuses):
        # The canonical tables are lex-least, so a seeded relabeling of each
        # class also exercises the constraints the search defers to its leaves.
        rng = random.Random(6)
        for n in range(1, 6):
            for canon in censuses.brute(n).tables:
                sigma = Permutation(tuple(rng.sample(range(n), n)))
                for q in (canon, canon.relabel(sigma)):
                    assert list(q.automorphism_group().elements) == automorphism_oracle(q)

    def test_inner_is_subgroup_of_aut(self, t3, q3):
        for q in (t3, q3, dihedral_quandle(6)):
            assert q.inner_group().is_subgroup_of(q.automorphism_group())


class TestRelabel:
    def test_relabel_definition(self, q3):
        sigma = perm((0, 1, 2), degree=3)
        r = q3.relabel(sigma)
        for x, y in itertools.product(range(3), repeat=2):
            assert r.table[sigma(x)][sigma(y)] == sigma(q3.table[x][y])

    def test_relabel_round_trip(self, q3):
        sigma = perm((0, 2), degree=3)
        assert q3.relabel(sigma).relabel(sigma.inverse()) == q3

    def test_relabel_degree_mismatch(self, t3):
        with pytest.raises(ValueError):
            t3.relabel(Permutation.identity(4))

    @settings(max_examples=40)
    @given(st.permutations(list(range(4))))
    def test_relabel_preserves_axioms_and_class(self, images):
        q = dihedral_quandle(4)
        sigma = Permutation(tuple(images))
        r = q.relabel(sigma)
        assert is_quandle_table(r.table)
        assert r.canonical_form() == q.canonical_form()


class TestIsomorphism:
    def test_tait_self_identity_witness(self, t3):
        assert t3.find_isomorphism(t3) == Permutation.identity(3)

    def test_tait_vs_trivial(self, t3):
        assert t3.find_isomorphism(trivial_quandle(3)) is None
        assert not t3.is_isomorphic(trivial_quandle(3))

    def test_relabeled_quandle_found(self, q3):
        target = q3.relabel(perm((1, 2), degree=3))
        sigma = q3.find_isomorphism(target)
        assert sigma is not None
        assert q3.relabel(sigma) == target

    def test_different_orders(self, t3):
        assert t3.find_isomorphism(trivial_quandle(4)) is None

    def test_witness_is_lexicographically_least(self, censuses):
        shuffle = perm((0, 1), (2, 3), degree=4)
        for q in censuses.brute(4).tables:
            target = q.relabel(shuffle)
            witnesses = [
                Permutation(images)
                for images in itertools.permutations(range(4))
                if q.relabel(Permutation(images)) == target
            ]
            assert q.find_isomorphism(target) == min(witnesses)

    def test_canonical_form_members(self, t3):
        assert trivial_quandle(3).canonical_form() == trivial_quandle(3)
        assert t3.canonical_form() == t3
        assert t3.relabel(perm((0, 2), degree=3)).canonical_form() == t3.canonical_form()

    def test_canonical_form_is_least_relabeling(self, q3):
        tables = [
            q3.relabel(Permutation(images)).table
            for images in itertools.permutations(range(3))
        ]
        assert q3.canonical_form().table == min(tables)

    def test_canonical_equality_iff_isomorphic(self, censuses):
        reps = list(censuses.brute(3).tables) + list(censuses.brute(4).tables)
        variants = []
        for q in reps:
            variants.append(q)
            shift = Permutation(tuple((k + 1) % q.order for k in range(q.order)))
            variants.append(q.relabel(shift))
        for a, b in itertools.combinations(variants, 2):
            same_canon = (
                a.order == b.order and a.canonical_form() == b.canonical_form()
            )
            assert same_canon == (a.find_isomorphism(b) is not None)

    ISO_DIGEST = "754797de615a6fa309a1ac65de7c111e3d6a0eb5958fd1a519904e28b4941403"

    def test_isomorphism_search_frozen(self, censuses):
        # Aut elements and generators, and the isomorphism witnesses both
        # ways, for every class of orders 1-6 and a seeded relabeling of it,
        # then for relabeled pairs from different classes of one order.
        rng = random.Random(1005)
        outcomes = []
        for n in range(1, 7):
            for q in censuses.brute(n).tables:
                r = q.relabel(Permutation(tuple(rng.sample(range(n), n))))
                for a in (q, r):
                    aut = a.automorphism_group()
                    outcomes.append(([p.images for p in aut], [p.images for p in aut.generators]))
                outcomes.append((q.find_isomorphism(r).images, r.find_isomorphism(q).images))
        # Pairs whose points share invariants reach the backtracking; the
        # random pairs mostly stop at the invariants.
        pairs = [
            (a, b)
            for n in (5, 6)
            for a, b in itertools.combinations(censuses.brute(n).tables, 2)
            if _point_invariants(a) == _point_invariants(b)
        ]
        assert len(pairs) == 13
        while len(pairs) < 213:
            pairs.append(rng.sample(censuses.brute(rng.randint(3, 6)).tables, 2))
        for a, b in pairs:
            q, r = (t.relabel(Permutation(tuple(rng.sample(range(t.order), t.order))))
                    for t in (a, b))
            assert q.find_isomorphism(r) is None and r.find_isomorphism(q) is None
            outcomes.append((q.table, r.table))
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == self.ISO_DIGEST

    def test_order_3_has_three_classes_by_naive_enumeration(self):
        seen = set()
        for cols in itertools.product(itertools.permutations(range(3)), repeat=3):
            if any(cols[y][y] != y for y in range(3)):
                continue
            table = tuple(tuple(cols[y][x] for y in range(3)) for x in range(3))
            if is_quandle_table(table):
                seen.add(Quandle(table).canonical_form().table)
        assert len(seen) == 3
