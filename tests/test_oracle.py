"""Brute-force census tests.

The census is itself the oracle for the structure modules, so it gets an
even blunter check here: for orders small enough, every table with a
fixed diagonal is generated outright and filtered by the axioms, and the
column search must reproduce that set exactly.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import itertools
import pickle

import pytest

from quandles import oracle, quandle
from quandles.oracle import (
    Census,
    _column_candidates,
    _cycle_type_columns,
    _search,
    count_connected,
    enumerate_all,
    labeled_tables,
)
from quandles.perm import Permutation
from quandles.quandle import Quandle, is_quandle_table

CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
LABELED_COUNTS = {1: 1, 2: 1, 3: 5}
# Partitions of n - 1: the number of cycle types of a permutation fixing 0.
PARTITION_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 7, 7: 11}


def all_tables_filtered(n):
    """Every diagonal-fixed table passing the axioms, by sheer enumeration."""
    off_diagonal = [(x, y) for x in range(n) for y in range(n) if x != y]
    found = []
    for values in itertools.product(range(n), repeat=len(off_diagonal)):
        table = [[x if x == y else None for y in range(n)] for x in range(n)]
        for (x, y), v in zip(off_diagonal, values):
            table[x][y] = v
        rows = tuple(tuple(row) for row in table)
        if is_quandle_table(rows):
            found.append(rows)
    return found


def test_oracle_imports_no_group_machinery():
    # The brute force is the reference for the structure route, so within
    # the package it may import only config and the quandle axioms.
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update(f"quandles.{name}" for name in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    package = {m.split(".")[1] for m in modules if m.startswith("quandles.")}
    assert "quandles" not in modules
    assert package <= {"config", "quandle"}
    assert "quandle" in package


class TestLabeledTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_exhaustive_filter(self, n):
        assert labeled_tables(n) == sorted(all_tables_filtered(n))

    @pytest.mark.parametrize("n,count", sorted(LABELED_COUNTS.items()))
    def test_counts(self, n, count):
        assert len(labeled_tables(n)) == count

    def test_column_pinning_partitions_the_search(self):
        candidates = _column_candidates(3)
        full = sorted(_search(3, candidates))
        by_branch = []
        for images in candidates[0]:
            by_branch.extend(_search(3, [[images]] + candidates[1:]))
        assert sorted(by_branch) == full
        assert full == labeled_tables(3)

    def test_all_leaves_are_quandles(self):
        for n in range(1, 5):
            for table in labeled_tables(n):
                assert is_quandle_table(table)


class TestCycleTypePinning:
    @pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
    def test_one_column_per_cycle_type(self, n, count):
        columns = _cycle_type_columns(n)
        assert len(columns) == count
        for images in columns:
            assert images[0] == 0
        cycle_types = {Permutation(images).cycle_type() for images in columns}
        assert len(cycle_types) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pinned_leaves_are_labeled_tables(self, n):
        pinned = labeled_tables(n, _cycle_type_columns(n))
        assert pinned == sorted(set(pinned))
        assert set(pinned) <= set(labeled_tables(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_classes_match_canonical_form_of_every_labeling(self, n):
        # One canonical form per labeled table, with no pinning: the
        # straightforward reference the census must reproduce.
        reference = sorted({Quandle(t).canonical_form().table for t in labeled_tables(n)})
        assert [q.table for q in enumerate_all(n).tables] == reference

    def test_order_6_classes_match_canonical_form_of_every_pinned_labeling(self):
        # The isomorphism-test dedup against one canonical form per pinned
        # labeling, at an order where buckets hold several classes.
        pinned = labeled_tables(6, _cycle_type_columns(6))
        reference = sorted({Quandle(t).canonical_form().table for t in pinned})
        assert [q.table for q in enumerate_all(6).tables] == reference


def _type_rank(images):
    """A column's cycle type as a partition of n, largest part first."""
    return tuple(sorted(Permutation(images).cycle_type(), reverse=True))


@functools.cache
def _pin_centralizer(pin):
    """The relabelings that fix 0 and commute with the pin, by a scan of S_n."""
    p = Permutation(pin)
    return [
        s for s in itertools.permutations(range(len(pin)))
        if s[0] == 0 and Permutation(s) * p == p * Permutation(s)
    ]


def _relabel(table, sigma):
    """The table with x renamed to sigma(x): new[sigma(x)][sigma(y)] = sigma(old[x][y])."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return tuple(map(tuple, new))


def _column_tuple(table):
    """The columns at 1..n-1, each as its tuple of images."""
    return tuple(zip(*table))[1:]


def _orbit_minima(tables):
    """The least table, by column tuple, of each orbit of its pin's centralizer, sorted."""
    minima, seen = [], set()
    for table in tables:
        if table not in seen:
            orbit = {_relabel(table, s) for s in _pin_centralizer(tuple(row[0] for row in table))}
            seen |= orbit
            minima.append(min(orbit, key=_column_tuple))
    return sorted(minima)


class TestMaxTypePin:
    """Column 0 is pinned to a representative of the largest cycle type."""

    # Leaves of labeled_tables(n, _cycle_type_columns(n)) for n = 1..7: one
    # per orbit of the pin's centralizer on the max-type labelings.
    LEAF_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 25, 6: 88, 7: 389}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_pinned_leaves_are_the_max_type_labelings(self, n):
        # Filter the exhaustive reference by the pin's definition, then keep
        # the least labeling of each orbit of the pin's centralizer.
        reps = set(_cycle_type_columns(n))
        max_type = [
            t for t in labeled_tables(n)
            if (first := tuple(row[0] for row in t)) in reps
            and all(_type_rank(col) <= _type_rank(first) for col in zip(*t))
        ]
        assert labeled_tables(n, _cycle_type_columns(n)) == _orbit_minima(max_type)

    @pytest.mark.slow
    def test_order_8_transposition_pin_keeps_each_orbit_minimum(self):
        # The pin with the largest centralizer (order 240) at order 8: 4543
        # labelings in 141 orbits.  A branch test that did not narrow its
        # stabilizer by the branched columns kept 136 of them.
        rank = (2, 1, 1, 1, 1, 1, 1)
        (pin,) = [c for c in _cycle_type_columns(8) if _type_rank(c) == rank]
        offered = [[c for c in col if _type_rank(c) <= rank] for col in _column_candidates(8)[1:]]
        labelings = _search(8, [[pin]] + offered)
        assert len(labelings) == 4543
        assert labeled_tables(8, [pin]) == _orbit_minima(labelings)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_two_leaves_under_one_pin_are_related_by_its_centralizer(self, n):
        by_pin = {}
        for table in labeled_tables(n, _cycle_type_columns(n)):
            by_pin.setdefault(tuple(row[0] for row in table), set()).add(table)
        for pin, tables in by_pin.items():
            centralizer = _pin_centralizer(pin)
            for table in tables:
                for sigma in centralizer:
                    image = _relabel(table, sigma)
                    assert image == table or image not in tables

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_column_outranks_column_0(self, n):
        for table in labeled_tables(n, _cycle_type_columns(n)):
            columns = list(zip(*table))
            assert max(map(_type_rank, columns)) == _type_rank(columns[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_identity_pin_yields_only_the_trivial_table(self, n):
        identity = tuple(range(n))
        trivial = tuple(tuple(x for _ in range(n)) for x in range(n))
        assert labeled_tables(n, [identity]) == [trivial]

    @pytest.mark.parametrize("n,count", [
        pytest.param(n, count, marks=[pytest.mark.slow] if n == 7 else [])
        for n, count in sorted(LEAF_COUNTS.items())
    ])
    def test_leaf_counts_frozen(self, n, count):
        assert len(labeled_tables(n, _cycle_type_columns(n))) == count


class TestCensus:
    @pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
    def test_class_counts(self, censuses, n, count):
        assert len(censuses.brute(n)) == count

    def test_entries_sorted_distinct_canonical(self, censuses):
        for n in range(1, 7):
            census = censuses.brute(n)
            tables = [q.table for q in census.tables]
            assert tables == sorted(set(tables))
            for q in census.tables:
                assert q.canonical_form() == q

    def test_flags_match_connectivity(self, censuses):
        for n in range(1, 7):
            census = censuses.brute(n)
            for q, flag in zip(census.tables, census.connected_flags):
                assert flag == q.is_connected()
            assert count_connected(census) == len(census.connected())

    def test_pairwise_non_isomorphic(self, censuses):
        for n in range(1, 5):
            tables = censuses.brute(n).tables
            for a, b in itertools.combinations(tables, 2):
                assert a.find_isomorphism(b) is None

    def test_every_labeled_table_lands_in_a_class(self, censuses):
        canon = {q.table for q in censuses.brute(3).tables}
        for table in labeled_tables(3):
            assert Quandle(table).canonical_form().table in canon

    def test_deterministic(self):
        assert enumerate_all(4) == enumerate_all(4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_at_most_one_inner_group_per_labeled_table(self, n, monkeypatch):
        # The census's flags build one inner group per class; the leaves
        # build none, since their signatures are read off the table.
        calls = []
        original = quandle.generate_group

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(quandle, "generate_group", counted)
        enumerate_all(n)
        assert len(calls) <= len(labeled_tables(n, _cycle_type_columns(n)))

    def test_order_6_builds_one_inner_group_per_class(self, monkeypatch):
        # Point signatures are read off the table, so the leaves build no
        # inner group; the census's flags build at most one per class (none
        # for a class table whose quandles are still alive from another
        # test).  The bucket key leaves 31 isomorphism tests among the 88
        # leaves.
        built, tests = [], 0
        generate, is_isomorphic = quandle.generate_group, Quandle.is_isomorphic

        def counted_generate(symmetries, degree):
            built.append(tuple(zip(*(s.images for s in symmetries))))
            return generate(symmetries, degree)

        def counted_is_isomorphic(self, other):
            nonlocal tests
            tests += 1
            return is_isomorphic(self, other)

        monkeypatch.setattr(quandle, "generate_group", counted_generate)
        monkeypatch.setattr(Quandle, "is_isomorphic", counted_is_isomorphic)
        census = enumerate_all(6)
        assert len(census) == 73
        assert set(built) <= {q.table for q in census.tables}
        assert len(built) == len(set(built))
        assert tests == 31

    def test_connected_flags_are_derived(self, censuses, trivial4, t3):
        assert Census((trivial4,)).connected_flags == (False,)
        assert Census((t3,)).connected_flags == (True,)
        census = censuses.brute(5)
        rebuilt = Census(census.tables)
        assert rebuilt == census and rebuilt.connected_flags == census.connected_flags
        with pytest.raises(TypeError):
            Census((trivial4,), (False,))

    def test_the_order_is_derived(self, censuses, trivial4, t3):
        assert Census((trivial4,)).order == 4 and Census((t3,)).order == 3
        census = censuses.brute(4)
        for duplicate in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
            assert duplicate(census).order == 4
        assert dataclasses.replace(census).order == 4
        assert dataclasses.replace(census, tables=(t3,)).order == 3
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(census, order=5)

    def test_tables_are_kept_as_a_tuple(self, censuses):
        # A generator used to be used up by the type check, leaving no flags,
        # and a list left the census unequal to its tuple twin and unhashable.
        census = censuses.brute(3)
        for tables in ((q for q in census.tables), list(census.tables)):
            rebuilt = Census(tables)
            assert rebuilt.tables == census.tables
            assert rebuilt.connected_flags == census.connected_flags
            assert len(rebuilt) == len(census) == 3
            assert rebuilt == census and hash(rebuilt) == hash(census)

    def test_bound_refusal(self):
        with pytest.raises(ValueError):
            enumerate_all(7)
        with pytest.raises(ValueError):
            enumerate_all(0)


@pytest.mark.slow
def test_order_7_published_counts(census_7):
    # Vendramin, "On the classification of quandles of low order": 298
    # classes of order 7, 5 of them connected.
    assert len(census_7) == 298
    assert count_connected(census_7) == 5
