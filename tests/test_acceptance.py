"""End-to-end acceptance suite.

Each criterion records PASS or FAIL, its elapsed time and its budget into
the shared results list, which the terminal summary prints one line per
criterion after the run.  The
budgets are wall-clock ceilings; census build times are charged where
the shared store first computes them (this file runs first in an
alphabetical full-suite run, so they usually land here).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import time

from quandles.augment import GammaHom, canonical_hom
from quandles.cli import main
from quandles.decompose import _composed_table, decompose, is_valid_mesh
from quandles.oracle import count_connected
from quandles.perm import Permutation
from quandles.quandle import (
    InvertibilityViolation,
    Quandle,
    axiom_violations,
    is_quandle_table,
    trivial_quandle,
)

from conftest import ACCEPTANCE_RESULTS, TAIT_TABLE

CLASS_COUNTS = [1, 1, 3, 7, 22, 73]
CONNECTED_COUNTS = [1, 0, 1, 1, 3, 2]


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
            )
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        ACCEPTANCE_RESULTS.append((number, name, status, elapsed, budget_seconds))


def random_hom(rng: random.Random, source: Quandle, target: Quandle) -> GammaHom:
    images = []
    for _ in range(source.order):
        values = list(range(target.order))
        rng.shuffle(values)
        images.append(Permutation(tuple(values)))
    return GammaHom(source, target, tuple(images))


def mesh_agrees_with_naive_axioms(blocks, homs) -> tuple[bool, bool]:
    mesh_ok = is_valid_mesh(blocks, homs)
    naive_ok = is_quandle_table(_composed_table(blocks, homs))
    assert mesh_ok == naive_ok, "mesh conditions disagree with direct axiom check"
    return mesh_ok, naive_ok


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite", 1.0):
        assert not axiom_violations(TAIT_TABLE)
        mutations = 0
        for x, y in itertools.product(range(3), repeat=2):
            if x == y:
                continue
            for value in range(3):
                if value == TAIT_TABLE[x][y]:
                    continue
                rows = [list(row) for row in TAIT_TABLE]
                rows[x][y] = value
                violations = axiom_violations(rows)
                assert violations, f"mutation at ({x},{y}) -> {value} slipped through"
                assert any(
                    isinstance(v, InvertibilityViolation) and v.column == y
                    for v in violations
                ), f"mutation at ({x},{y}) not blamed on column {y}"
                mutations += 1
        assert mutations == 12


def test_criterion_2_orbit_decomposition(censuses):
    with criterion(2, "orbit decomposition", 60.0):
        for n in range(2, 6):
            for q in censuses.brute(n).tables:
                dec = decompose(q)
                assert dec.reassemble() == q
                orbits = q.orbits()
                assert len(dec.blocks) == len(orbits)
                for block, orbit in zip(dec.blocks, orbits):
                    assert block == q.subquandle(orbit)


def test_criterion_3_mesh_equivalence(censuses):
    with criterion(3, "mesh equivalence", 60.0):
        rng = random.Random(20050815)
        t2 = trivial_quandle(2)
        order3 = censuses.brute(3).tables
        accepted = rejected = 0

        def check(blocks, homs):
            nonlocal accepted, rejected
            ok, _ = mesh_agrees_with_naive_axioms(blocks, homs)
            if ok:
                accepted += 1
            else:
                rejected += 1

        for _ in range(400):
            blocks = [t2, t2]
            check(blocks, [
                [canonical_hom(t2), random_hom(rng, t2, t2)],
                [random_hom(rng, t2, t2), canonical_hom(t2)],
            ])
        for _ in range(300):
            b3 = order3[rng.randrange(len(order3))]
            blocks = [b3, t2]
            check(blocks, [
                [canonical_hom(b3), random_hom(rng, b3, t2)],
                [random_hom(rng, t2, b3), canonical_hom(t2)],
            ])
        for _ in range(300):
            blocks = [t2, t2, t2]
            homs = [[canonical_hom(t2) if i == j else random_hom(rng, t2, t2)
                     for j in range(3)] for i in range(3)]
            check(blocks, homs)

        # profile (2,1): the degree-1 images are forced, so the whole
        # family is two matrices, and both compose to quandles
        t1 = trivial_quandle(1)
        for lower in (Permutation((0, 1)), Permutation((1, 0))):
            blocks = [t2, t1]
            homs = [
                [canonical_hom(t2), GammaHom(t2, t1, (Permutation((0,)),) * 2)],
                [GammaHom(t1, t2, (lower,)), canonical_hom(t1)],
            ]
            ok, _ = mesh_agrees_with_naive_axioms(blocks, homs)
            assert ok
        assert accepted > 0 and rejected > 0


def test_criterion_4_coset_round_trip(censuses):
    from quandles.enumeration import coset_quandle, realize

    with criterion(4, "coset round trip", 60.0):
        checked = 0
        for n in range(1, 7):
            for q in censuses.brute(n).connected():
                seed = realize(q)
                rebuilt = coset_quandle(seed)
                assert rebuilt.is_isomorphic(q)
                assert rebuilt == q  # the construction even reproduces labels
                assert seed.z == q.symmetry(0)
                assert all(
                    seed.z * h == h * seed.z for h in seed.stabilizer
                ), "z not central in the stabilizer"
                checked += 1
        assert checked == sum(CONNECTED_COUNTS)


def test_criterion_5_census_agreement(censuses):
    with criterion(5, "census agreement", 300.0):
        for n in range(1, 7):
            census = censuses.brute(n)
            assert len(census) == CLASS_COUNTS[n - 1]
            assert count_connected(census) == CONNECTED_COUNTS[n - 1]
            entries = censuses.structure(n)
            assert len(entries) == CONNECTED_COUNTS[n - 1]
            brute_tables = [q.table for q in census.connected()]
            assert [e.quandle.table for e in entries] == brute_tables
        (entry,) = censuses.structure(3)
        assert entry.quandle == Quandle(TAIT_TABLE).canonical_form()
        assert entry.inner_order == 6
        build_time = sum(censuses.brute_seconds.values()) + sum(
            censuses.structure_seconds.values()
        )
        assert build_time < 300.0


def test_criterion_6_prime_orders(censuses):
    with criterion(6, "prime orders", 60.0):
        for p in (2, 3, 5):
            for q in censuses.brute(p).tables:
                divides = len(q.inner_group()) % p == 0
                assert q.is_connected() == divides


def test_criterion_7_inner_group_corollaries(censuses):
    with criterion(7, "inner group corollaries", 60.0):
        for n in range(2, 7):
            for entry in censuses.structure(n):
                group = entry.seed.group
                assert not group.is_abelian()
                if n != 3:
                    assert len(group) != math.factorial(n)
                if n == 3:
                    assert len(group) == 6
                if n == 4:
                    assert len(group) == 12
                    assert all(p.is_even() for p in group)


def test_criterion_8_determinism():
    with criterion(8, "determinism", 120.0):
        def census_run() -> str:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(["census", "--order", "5", "--check"])
            assert code == 0
            return buffer.getvalue()

        runs = [census_run() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert "census check: MATCH" in runs[0]
