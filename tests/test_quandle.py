"""Quandle core tests.

The fixture of record is the order-3 connected quandle T3 with table rows
(0,2,1), (2,1,0), (1,0,2); its symmetries, inner group, and automorphism
group are pinned by hand.  Oracles for the derived facts (orbit closure,
exhaustive automorphism filters, witness sets, the least of all n!
relabeled tables) are local to this file.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import quandle as quandle_module
from quandles.decompose import disjoint_union
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
    isomorphism_classes,
    trivial_quandle,
)
from conftest import TAIT_TABLE, TWO_ORBIT_TABLE


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def _ordered_scans(table):
    """The three ordered per-cell scans of an in-range table, always all run."""
    n = len(table)
    found = [IdempotenceViolation(x) for x in range(n) if table[x][x] != x]
    found += [
        InvertibilityViolation(y) for y in range(n) if len({row[y] for row in table}) != n
    ]
    found += [
        DistributivityViolation(a, b, c)
        for a, b, c in itertools.product(range(n), repeat=3)
        if table[table[a][b]][c] != table[table[a][c]][table[b][c]]
    ]
    return found


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

    def test_a_permutation_rack_fails_idempotence_alone(self):
        # x > y = x + 1 mod n: each column is a bijection and the table is
        # self-distributive, but no symmetry fixes its own point.
        for n in range(2, 6):
            table = [[(x + 1) % n] * n for x in range(n)]
            assert axiom_violations(table) == [IdempotenceViolation(x) for x in range(n)]

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

    def test_matches_the_ordered_scans_on_perturbed_census_tables(self, censuses):
        # Every census table of orders 1-6, and seeded copies with one cell
        # changed, so valid tables and tables with each kind of failure are met.
        rng = random.Random(3141)
        failing = 0
        for n in range(1, 7):
            for q in censuses.brute(n).tables:
                assert axiom_violations(q.table) == _ordered_scans(q.table) == []
                for _ in range(4):
                    rows = [list(row) for row in q.table]
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                    expected = _ordered_scans(rows)
                    assert axiom_violations(rows) == expected
                    failing += bool(expected)
        assert failing > 300

    def test_the_count_is_the_length_of_the_list(self, censuses):
        # The invalid tables of this class and seeded one-cell perturbations
        # of the census tables: every kind of failure, alone and mixed.
        tables = [
            [[1, 0], [0, 1]], [[0, 1], [1, 1]], [[0, 2, 1], [1, 1, 0], [2, 0, 2]],
            [[0, 7], [1, 1]], [[0, True], [0, 1]], [[0, 0, 0], [0, 2, 1], [2, 1, 2]],
            [[0, 0.7], [1, 1]], *([[(x + 1) % n] * n for x in range(n)] for n in range(2, 6)),
            [[(x + y) % 12 for y in range(12)] for x in range(12)],
        ]
        rng = random.Random(2718)
        for n in range(1, 7):
            for q in censuses.brute(n).tables:
                for _ in range(4):
                    rows = [list(row) for row in q.table]
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n + 1)
                    tables.append(rows)
        counts = []
        for t in tables:
            every = axiom_violations(t)
            listed, count = quandle_module._violation_listing(t, 3)
            assert (listed, count) == (every[:3], len(every))
            counts.append(count)
        assert sum(map(bool, counts)) > 300

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

    def test_numpy_entries(self):
        # numpy ints are integers and become ints; numpy floats and bools are not.
        q = Quandle([[np.int64(0), np.int64(0)], [np.int64(1), np.int64(1)]])
        assert q.table == ((0, 0), (1, 1)) and type(q.table[0][1]) is int
        for value in (np.float64(1.0), np.bool_(True)):
            assert axiom_violations([[0, value], [1, 1]]) == [RangeViolation(0, 1, value)]

    def test_a_numpy_twin_is_validated_and_shares_the_int_tables_cache(self, monkeypatch):
        trivial2 = trivial_quandle(2)
        checked = []
        real = quandle_module._violations
        monkeypatch.setattr(
            quandle_module, "_violations", lambda rows: checked.append(rows) or real(rows)
        )
        twin = Quandle(np.array(trivial2.table, dtype=np.int8))
        assert [type(rows[1][0]) for rows in checked] == [np.int8]
        assert twin == trivial2 and twin is not trivial2 and twin._cache is trivial2._cache

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
        assert t3.op(np.int64(0), np.int8(1)) == 2
        assert t3.order == 3

    def test_op_refuses_what_is_not_a_point(self, t3):
        # -1 would read the last row, and True would read row 1.
        for point in (-1, 3, True, "0"):
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                t3.op(point, 0)
            with pytest.raises(ValueError, match=f"point {point!r} is not an int in 0..2"):
                t3.op(0, point)

    def test_equality_and_hash(self, t3):
        assert t3 == Quandle(TAIT_TABLE)
        assert hash(t3) == hash(Quandle(TAIT_TABLE))
        assert t3 != trivial_quandle(3)

    def test_immutable(self, t3):
        with pytest.raises(AttributeError):
            t3.table = ()
        with pytest.raises(AttributeError):
            del t3.table
        assert t3.table == TAIT_TABLE

    def test_replace_reruns_the_axiom_check(self, t3):
        assert dataclasses.replace(t3, table=trivial_quandle(2).table) == trivial_quandle(2)
        with pytest.raises(ValueError, match="not a quandle"):
            dataclasses.replace(t3, table=((1, 0), (1, 0)))
        assert dataclasses.replace(t3) == t3

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

    def test_symmetries_are_built_once_and_returned_as_fresh_lists(self, t3):
        first = t3.symmetries()
        pinned = list(first)
        first.clear()
        second = t3.symmetries()
        second[0] = Permutation.identity(3)
        assert t3.symmetries() == pinned
        assert second is not t3.symmetries()
        # symmetry(y) hands out the same objects as symmetries().
        assert all(t3.symmetry(y) is s for y, s in enumerate(t3.symmetries()))

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

    def test_orbits_are_the_inner_groups_orbits(self, censuses):
        # orbits() reads the table; the inner group's orbits are the definition.
        rng = random.Random(19)
        quandles = [
            Quandle(glued_table()),
            disjoint_union([dihedral_quandle(3), trivial_quandle(2), dihedral_quandle(5)]),
        ]
        for n in range(1, 7):
            for q in censuses.brute(n).tables:
                quandles += [q, _seeded_relabeling(q, rng)]
        for q in quandles:
            inner = q.inner_group()
            assert q.orbits() == sorted({inner.orbit(x) for x in range(q.order)})
            assert q.is_connected() == (len(q.orbits()) == 1)

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


def least_relabeling(table):
    """Least of the n! relabeled tables in row-major order: the exhaustive reference.

    Row p of flat holds the table relabeled by the p-th permutation of S_n
    in row-major order, new[sigma(x)][sigma(y)] = sigma(old[x][y]); columns
    are then filtered left to right down to the rows with the least value.
    """
    n = len(table)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    invs = np.argsort(perms, axis=1)
    t = np.array(table, dtype=np.int8)
    mid = t[invs[:, :, None], invs[:, None, :]]
    flat = perms[np.arange(len(perms))[:, None, None], mid].reshape(len(perms), n * n)
    live = np.arange(len(flat))
    for col in range(n * n):
        values = flat[live, col]
        live = live[values == values.min()]
    return tuple(map(tuple, flat[live[0]].reshape(n, n).tolist()))


def glued_table():
    """A dihedral block 0..3 and a trivial block 4..7; 6 and 7 act on 0..3 by x -> x + 2."""
    d4 = dihedral_quandle(4).table
    return [
        [d4[x][y] if y < 4 else x if y < 6 else (x + 2) % 4 for y in range(8)]
        for x in range(4)
    ] + [[x] * 8 for x in range(4, 8)]


def _seeded_relabeling(q, rng):
    return q.relabel(Permutation(tuple(rng.sample(range(q.order), q.order))))


def alexander_gf8():
    """x > y = t x + (1 + t) y over GF(8) = GF(2)[t] / (t^3 + t + 1): connected, order 8."""

    def times_t(x):
        x <<= 1
        return x ^ 0b1011 if x & 0b1000 else x

    return Quandle(tuple(tuple(times_t(x) ^ times_t(y) ^ y for y in range(8)) for x in range(8)))


def _orbits_joined_with_twins(q):
    """The least point of each class of the join, among the points with a non-constant row.

    The orbits are the inner group's, and the twins come from _twin_classes.
    """
    inner = q.inner_group()
    classes = [set(orbit) for orbit in {inner.orbit(x) for x in range(q.order)}]
    for x, twin in enumerate(q._twin_classes()):
        (a,) = (c for c in classes if x in c)
        (b,) = (c for c in classes if twin in c)
        if a is not b:
            classes.remove(b)
            a |= b
    n = q.order
    return sorted(min(c) for c in classes if q.table[min(c)].count(min(c)) < n)


def _spy_on_root_starts(monkeypatch):
    """The starts each _canonical_table search is given from here on, in call order."""
    starts = []
    real = quandle_module._canonical_table

    def spy(table, twin, roots):
        starts.append(list(roots))
        return real(table, twin, roots)

    monkeypatch.setattr(quandle_module, "_canonical_table", spy)
    return starts


class TestCanonicalForm:
    def test_matches_exhaustive_reference(self, censuses):
        rng = random.Random(11)
        for n in range(1, 7):
            for canon in censuses.brute(n).tables:
                for _ in range(3):
                    r = _seeded_relabeling(canon, rng)
                    assert r.canonical_form().table == least_relabeling(r.table) == canon.table

    @pytest.mark.slow
    def test_matches_exhaustive_reference_at_order_7(self, census_7):
        rng = random.Random(12)
        for canon in census_7.tables:
            r = _seeded_relabeling(canon, rng)
            assert r.canonical_form().table == least_relabeling(r.table) == canon.table

    @pytest.mark.parametrize(
        "q",
        [
            trivial_quandle(8),
            dihedral_quandle(8),
            Quandle(glued_table()),
            alexander_gf8(),
            disjoint_union([dihedral_quandle(3), dihedral_quandle(5)]),
        ],
        ids=["trivial", "dihedral", "glued", "connected", "two-orbits"],
    )
    def test_twins_and_constant_rows_at_order_8(self, q):
        # Many twins (points whose transposition is an automorphism) and
        # constant rows: the cases the search prunes hardest.
        r = _seeded_relabeling(q, random.Random(13))
        assert r.canonical_form().table == q.canonical_form().table == least_relabeling(r.table)

    def test_glued_table_twins(self):
        assert Quandle(glued_table())._twin_classes() == [0, 1, 0, 1, 4, 4, 6, 6]

    def test_a_connected_quandle_without_twins_starts_one_root_search(self, monkeypatch):
        d5 = dihedral_quandle(5)
        canon = d5.canonical_form()
        q = _seeded_relabeling(d5, random.Random(15))
        assert q.is_connected() and q._twin_classes() == list(range(5))
        starts = _spy_on_root_starts(monkeypatch)
        q._cache.pop("canon", None)
        assert q.canonical_form() == canon
        assert starts == [[0]]

    def test_root_starts_are_the_inner_orbits_joined_with_twins(self, censuses, monkeypatch):
        starts = _spy_on_root_starts(monkeypatch)
        glued = Quandle(glued_table())
        glued._cache.pop("canon", None)
        glued.canonical_form()
        assert starts == [_orbits_joined_with_twins(glued)] == [[0, 1]]
        rng = random.Random(17)
        pairs = 0
        for n in range(1, 7):
            for canon in censuses.brute(n).tables:
                q = _seeded_relabeling(canon, rng)
                starts.clear()
                q._cache.pop("canon", None)
                assert q.canonical_form() == canon
                assert starts == [_orbits_joined_with_twins(q)]
                pairs += sum(
                    t != x and q.table[x].count(x) < n for x, t in enumerate(q._twin_classes())
                )
        # Twins with non-constant rows occur, and share an inner orbit each.
        assert pairs > 100

    def test_no_search_closure_outlives_its_search(self):
        # The searches' recursive closures refer to themselves; each search
        # breaks that cycle when it ends, so reference counting frees them.
        def extends():
            return [
                f for f in gc.get_objects()
                if isinstance(f, types.FunctionType) and f.__name__ == "extend"
                and f.__module__ == quandle_module.__name__
            ]

        gc.collect()
        gc.disable()
        try:
            q = _seeded_relabeling(dihedral_quandle(6), random.Random(18))
            for key in ("canon", "aut"):
                q._cache.pop(key, None)
            assert extends() == []
            q.canonical_form()
            assert extends() == []
            assert q.find_isomorphism(dihedral_quandle(6)) is not None
            assert extends() == []
            assert len(q.automorphism_group()) > 1
            assert extends() == []
            live = q._isomorphisms(q)
            next(live)
            assert len(extends()) == 1
            del live
            assert extends() == []
        finally:
            gc.enable()

    def test_no_order_bound(self):
        # The S_n index stops at order 8; the canonical-form search does not use it.
        assert trivial_quandle(10).canonical_form() == trivial_quandle(10)
        d9 = dihedral_quandle(9)
        r = _seeded_relabeling(d9, random.Random(14))
        assert r != d9
        assert r.canonical_form() == d9.canonical_form()
        assert d9.canonical_form().is_isomorphic(d9)


class TestAutomorphisms:
    def test_is_automorphism_means_the_relabeling_fixes_the_table(self, censuses):
        for n in range(1, 5):
            for q in censuses.brute(n).tables:
                for images in itertools.permutations(range(n)):
                    sigma = Permutation(images)
                    assert q.is_automorphism(sigma) == (q.relabel(sigma) == q)
        assert not trivial_quandle(2).is_automorphism(Permutation.identity(3))

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

    def test_is_automorphism_refuses_what_is_not_a_permutation(self, t3):
        with pytest.raises(TypeError, match="expected a Permutation, not tuple"):
            t3.is_automorphism((0, 2, 1))
        assert not t3.is_automorphism(Permutation.identity(4))


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

    def test_relabel_refuses_what_is_not_a_permutation(self, t3):
        with pytest.raises(TypeError, match="expected a Permutation, not tuple"):
            t3.relabel((0, 1, 2))

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

    def test_find_isomorphism_refuses_what_is_not_a_quandle(self, t3):
        with pytest.raises(TypeError, match="expected a Quandle, not list"):
            t3.find_isomorphism([[0]])

    def test_is_isomorphic_refuses_what_is_not_a_quandle(self, t3):
        with pytest.raises(TypeError, match="expected a Quandle, not str"):
            t3.is_isomorphic("x")

    def test_is_isomorphic_has_no_order_bound(self):
        # The S_n index stops at order 8; the isomorphism search does not use it.
        d9 = dihedral_quandle(9)
        assert d9.is_isomorphic(d9.relabel(Permutation((*range(1, 9), 0))))
        assert not d9.is_isomorphic(trivial_quandle(9))

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

    def test_every_isomorphism_in_lexicographic_order(self, censuses):
        # The search yields exactly the lex-ordered filter of all n! permutations.
        rng = random.Random(1806)
        for n in range(1, 5):
            classes = censuses.brute(n).tables
            relabeled = [_seeded_relabeling(q, rng) for q in classes]
            for a, b in itertools.product(list(classes) + relabeled, relabeled):
                expected = [
                    Permutation(images)
                    for images in itertools.permutations(range(n))
                    if a.relabel(Permutation(images)) == b
                ]
                assert list(a._isomorphisms(b)) == expected

    def test_signatures_move_with_relabeling(self, censuses):
        # sigma sends x's signature to sigma(x), on seeded relabelings of
        # every class of orders 1-5.
        rng = random.Random(2718)
        for n in range(1, 6):
            for q in censuses.brute(n).tables:
                for _ in range(3):
                    images = tuple(rng.sample(range(n), n))
                    moved = q.relabel(Permutation(images))._signatures()
                    assert [moved[images[x]] for x in range(n)] == q._signatures()

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


class TestIsomorphismClasses:
    def test_no_input(self):
        assert isomorphism_classes([]) == []

    def test_refuses_a_member_that_is_not_a_quandle(self, t3):
        with pytest.raises(TypeError, match="expected a Quandle, not list"):
            isomorphism_classes([t3, [[0]]])

    def test_seeded_relabelings_give_back_the_census(self, censuses):
        rng = random.Random(1618)
        for n in range(1, 6):
            tables = censuses.brute(n).tables
            shuffled = [_seeded_relabeling(q, rng) for q in tables for _ in range(2)]
            rng.shuffle(shuffled)
            assert isomorphism_classes(shuffled) == list(tables)

    def test_orders_may_mix(self, t3, q3):
        classes = isomorphism_classes([trivial_quandle(2), q3, t3, trivial_quandle(2)])
        assert classes == sorted(
            [trivial_quandle(2), q3.canonical_form(), t3], key=lambda q: q.table
        )
