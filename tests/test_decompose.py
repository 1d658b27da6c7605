"""Decomposition and mesh tests.

The mesh conditions are checked against the blunt alternative on small
block profiles: compose the table naively and run the quandle axioms on
it.  Acceptance runs the large randomized version; here the profile
(2,2,2) family with per-generator assignments into S_2 is exhausted
(4^6 matrices), which covers both conditions' failure modes.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import importlib
import itertools
import pickle
import random
import weakref

import pytest

from quandles.augment import GammaHom, canonical_hom, trivial_hom
from quandles.config import PostconditionError
from quandles.decompose import (
    Condition1ViolationError,
    Condition2ViolationError,
    Decomposition,
    DiagonalNotCanonicalError,
    Mesh,
    MeshError,
    _composed_table,
    decompose,
    decomposition_tree,
    disjoint_union,
    is_valid_mesh,
    semidisjoint_union,
    validate_mesh,
)
from quandles.perm import Permutation
from quandles.quandle import Quandle, dihedral_quandle, is_quandle_table, trivial_quandle


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def hom(source, target, *image_tuples):
    return GammaHom(source, target, tuple(Permutation(t) for t in image_tuples))


@pytest.fixture
def validated(monkeypatch):
    """The tables the axiom scan quandle._violations checks from here on, in call order."""
    quandle_module = importlib.import_module("quandles.quandle")
    tables = []
    real = quandle_module._violations
    monkeypatch.setattr(
        quandle_module, "_violations", lambda table: tables.append(table) or real(table)
    )
    return tables


class TestValidateMesh:
    def test_single_block_canonical(self, t3):
        mesh = validate_mesh([t3], [[None]])
        assert mesh.homs[0][0].assignment == tuple(t3.symmetries())
        assert semidisjoint_union(mesh) == t3

    def test_mesh_fills_omitted_diagonals(self, t3, q3):
        t1 = trivial_quandle(1)
        homs = [[None, trivial_hom(t3, q3), trivial_hom(t3, t1)],
                [trivial_hom(q3, t3), None, trivial_hom(q3, t1)],
                [trivial_hom(t1, t3), trivial_hom(t1, q3), None]]
        mesh = Mesh([t3, q3, t1], homs)
        assert mesh == validate_mesh([t3, q3, t1], homs)
        assert [mesh.homs[i][i] for i in range(3)] == [canonical_hom(b) for b in (t3, q3, t1)]
        # An explicit canonical diagonal is accepted and gives the same mesh.
        explicit = [[mesh.homs[i][i] if i == j else h for j, h in enumerate(row)]
                    for i, row in enumerate(homs)]
        assert Mesh([t3, q3, t1], explicit) == mesh

    def test_trivial_off_diagonal_always_valid(self, t3, q3):
        for blocks in ([t3, trivial_quandle(1)], [q3, t3], [trivial_quandle(2)] * 2):
            homs = [
                [None if i == j else trivial_hom(blocks[i], blocks[j])
                 for j in range(len(blocks))]
                for i in range(len(blocks))
            ]
            assert is_valid_mesh(blocks, homs)

    def test_two_orbit_construction(self, q3):
        t2, t1 = trivial_quandle(2), trivial_quandle(1)
        homs = [
            [None, hom(t2, t1, (0,), (0,))],
            [hom(t1, t2, (1, 0)), None],
        ]
        mesh = validate_mesh([t2, t1], homs)
        assert semidisjoint_union(mesh) == q3

    def test_condition_1_failure_with_least_witness(self):
        t2 = trivial_quandle(2)
        swap_then_id = [hom(t2, t2, (1, 0), (0, 1))]
        homs = [
            [None, swap_then_id[0]],
            [hom(t2, t2, (1, 0), (0, 1)), None],
        ]
        with pytest.raises(Condition1ViolationError) as info:
            validate_mesh([t2, t2], homs)
        assert info.value.witness == (0, 1, 0, 0, 0)

    def test_condition_2_failure_with_least_witness(self):
        # Points of the two outside blocks act on block 0 by the swap (0 1)
        # and the swap (1 2), which do not commute: at x = 0 one order gives
        # 2 and the other 1.
        t3, t1 = trivial_quandle(3), trivial_quandle(1)
        blocks = [t3, t1, t1]
        homs = [[None, trivial_hom(t3, t1), trivial_hom(t3, t1)],
                [hom(t1, t3, (1, 0, 2)), None, trivial_hom(t1, t1)],
                [hom(t1, t3, (0, 2, 1)), trivial_hom(t1, t1), None]]
        with pytest.raises(Condition2ViolationError) as info:
            validate_mesh(blocks, homs)
        assert info.value.witness == (0, 1, 2, 0, 0, 0)
        assert not is_quandle_table(_composed_table(blocks, [
            [canonical_hom(b) if h is None else h for b, h in zip(blocks, row)] for row in homs
        ]))

    def test_diagonal_not_canonical(self, t3, q3):
        # A valid hom is not enough, whether or not the canonical hom is cached.
        for build in (Mesh, validate_mesh, Mesh):
            with pytest.raises(DiagonalNotCanonicalError) as info:
                build([t3], [[trivial_hom(t3, t3)]])
            assert info.value.i == 0
            canonical_hom(t3)
        # The identity is an automorphism of q3 but not its symmetry at 2.
        homs = [[canonical_hom(t3), trivial_hom(t3, q3)], [trivial_hom(q3, t3), trivial_hom(q3, q3)]]
        for build in (Mesh, validate_mesh):
            with pytest.raises(DiagonalNotCanonicalError) as info:
                build([t3, q3], homs)
            assert info.value.i == 1

    def test_shape_errors(self, t3):
        with pytest.raises(ValueError):
            validate_mesh([], [])
        with pytest.raises(ValueError):
            validate_mesh([t3], [[None, None]])
        for build in (Mesh, validate_mesh):
            with pytest.raises(ValueError, match=r"off-diagonal hom \(0, 1\) may not be omitted"):
                build([t3, t3], [[None, None], [None, None]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda q: GammaHom(q, q, (1, 2, 0)), "expected a Permutation, not int"),
            (lambda q: GammaHom([[0]], q, q.symmetries()), "expected a Quandle, not list"),
            (lambda q: GammaHom(q, [[0]], q.symmetries()), "expected a Quandle, not list"),
            (lambda q: Mesh(([[0]],), ((None,),)), "expected a Quandle, not list"),
            (lambda q: is_valid_mesh(([[0]],), ((None,),)), "expected a Quandle, not list"),
            (lambda q: Mesh((q, q), ((None, 5), (trivial_hom(q, q), None))),
             "expected a GammaHom, not int"),
            (lambda q: Mesh((q,), ((5,),)), "expected a GammaHom, not int"),
            (lambda q: Decomposition(5, ()), "expected a Mesh, not int"),
        ],
        ids=["hom image", "hom source", "hom target", "mesh block", "is_valid_mesh block",
             "mesh off-diagonal hom", "mesh diagonal hom", "decomposition mesh"],
    )
    def test_wrong_types_raise_type_error(self, t3, build, message):
        with pytest.raises(TypeError, match=message):
            build(t3)

    def test_wrong_source_rejected(self, t3, q3):
        stray = trivial_hom(q3, t3)
        with pytest.raises(ValueError):
            validate_mesh([t3, t3], [[None, stray], [trivial_hom(t3, t3), None]])

    def test_wrong_target_rejected(self, t3):
        # Another quandle of order 3: the images have the right degree but
        # act on the wrong block.
        stray = trivial_hom(t3, trivial_quandle(3))
        with pytest.raises(ValueError, match=r"hom \(0, 1\) target is not block 1"):
            validate_mesh([t3, t3], [[None, stray], [trivial_hom(t3, t3), None]])

    def test_exhaustive_2_2_2_matches_naive_axiom_check(self):
        t2 = trivial_quandle(2)
        blocks = [t2, t2, t2]
        diagonal = canonical_hom(t2)
        choices = [
            (Permutation((0, 1)), Permutation((0, 1))),
            (Permutation((0, 1)), Permutation((1, 0))),
            (Permutation((1, 0)), Permutation((0, 1))),
            (Permutation((1, 0)), Permutation((1, 0))),
        ]
        slots = [(i, j) for i in range(3) for j in range(3) if i != j]
        accepted = rejected_1 = rejected_2 = 0
        for picks in itertools.product(range(4), repeat=6):
            homs = [[diagonal if i == j else None for j in range(3)] for i in range(3)]
            for (i, j), pick in zip(slots, picks):
                homs[i][j] = GammaHom(t2, t2, choices[pick])
            naive_ok = is_quandle_table(_composed_table(blocks, homs))
            try:
                validate_mesh(blocks, homs)
                mesh_ok = True
                accepted += 1
            except Condition1ViolationError:
                mesh_ok = False
                rejected_1 += 1
            except Condition2ViolationError:
                mesh_ok = False
                rejected_2 += 1
            assert mesh_ok == naive_ok, f"disagreement at picks {picks}"
        assert accepted and rejected_1 and rejected_2

    def test_randomized_profile_3_2(self, censuses):
        rng = random.Random(57)
        order3 = censuses.brute(3).tables
        t2 = trivial_quandle(2)
        disagreements = 0
        for _ in range(120):
            b3 = order3[rng.randrange(len(order3))]
            blocks = [b3, t2]
            homs = [
                [canonical_hom(b3), _random_hom(rng, b3, t2)],
                [_random_hom(rng, t2, b3), canonical_hom(t2)],
            ]
            naive_ok = is_quandle_table(_composed_table(blocks, homs))
            if is_valid_mesh(blocks, homs) != naive_ok:
                disagreements += 1
        assert disagreements == 0


def _random_hom(rng, source, target):
    degree = target.order
    images = []
    for _ in range(source.order):
        values = list(range(degree))
        rng.shuffle(values)
        images.append(Permutation(tuple(values)))
    return GammaHom(source, target, tuple(images))


class TestSemidisjointUnion:
    def test_block_layout_is_contiguous(self, t3):
        q = disjoint_union([t3, trivial_quandle(1)])
        assert q.order == 4
        assert q.table[3][3] == 3
        assert q.subquandle([0, 1, 2]) == t3

    def test_revalidates_hand_built_mesh(self, t3):
        with pytest.raises(MeshError):
            Mesh((t3,), ((trivial_hom(t3, t3),),))

    def test_composes_without_rechecking_the_mesh(self, t3, q3, monkeypatch):
        # quandles.decompose the attribute is the function; take the module.
        decompose_module = importlib.import_module("quandles.decompose")
        calls = []
        real = decompose_module.check_gamma_hom
        monkeypatch.setattr(
            decompose_module, "check_gamma_hom", lambda hom: calls.append(hom) or real(hom)
        )
        for blocks in ([t3], [t3, q3], [t3, trivial_quandle(1), trivial_quandle(2)]):
            k = len(blocks)
            homs = [
                [None if i == j else trivial_hom(blocks[i], blocks[j]) for j in range(k)]
                for i in range(k)
            ]
            calls.clear()
            mesh = validate_mesh(blocks, homs)
            # Off-diagonal entries only: a canonical diagonal is a hom already.
            assert len(calls) == k * (k - 1)
            calls.clear()
            semidisjoint_union(mesh)
            assert calls == []

    def test_disjoint_union_examples(self, t3):
        assert disjoint_union([t3]) == t3
        assert disjoint_union([trivial_quandle(1)] * 2) == trivial_quandle(2)
        double = disjoint_union([t3, t3])
        assert double.order == 6
        assert double.orbits() == [(0, 1, 2), (3, 4, 5)]


class TestDecompose:
    def test_trivial_2(self):
        dec = decompose(trivial_quandle(2))
        assert [b.order for b in dec.blocks] == [1, 1]
        assert all(
            p.is_identity()
            for i, row in enumerate(dec.mesh.homs)
            for j, h in enumerate(row)
            for p in h.assignment
        )

    def test_two_orbit_example(self, q3):
        dec = decompose(q3)
        assert [b.table for b in dec.blocks] == [((0, 0), (1, 1)), ((0,),)]
        assert dec.mesh.homs[1][0].assignment == (perm((0, 1), degree=2),)
        assert dec.layout == ((0, 0), (0, 1), (1, 0))

    def test_connected_yields_single_block(self, t3):
        dec = decompose(t3)
        assert len(dec.blocks) == 1
        assert dec.blocks[0] == t3

    def test_blocks_are_orbit_subquandles(self, censuses):
        for n in range(2, 5):
            for q in censuses.brute(n).tables:
                dec = decompose(q)
                orbits = q.orbits()
                assert len(dec.blocks) == len(orbits)
                for block, orbit in zip(dec.blocks, orbits):
                    assert block == q.subquandle(orbit)

    def test_round_trip_bit_exact(self, censuses):
        for n in range(2, 5):
            for q in censuses.brute(n).tables:
                assert decompose(q).reassemble() == q

    def test_round_trip_with_scattered_orbits(self, q3):
        scattered = q3.relabel(perm((1, 2), degree=3))
        assert scattered.orbits() == [(0, 2), (1,)]
        dec = decompose(scattered)
        assert dec.layout == ((0, 0), (1, 0), (0, 1))
        assert dec.reassemble() == scattered

    def test_layout_must_place_every_block_point_once(self):
        dec = decompose(dihedral_quandle(4))  # orbits {0, 2} and {1, 3}
        assert dec.layout == ((0, 0), (1, 0), (0, 1), (1, 1))
        for layout in (
            ((0, 0),) * 4,  # duplicated
            ((0, 0), (1, 0), (0, 1), (2, 0)),  # block out of range
            ((0, 0), (1, 0), (0, 1), (1, 2)),  # local index out of range
            ((0, 0), (1, 0), (0, 1)),  # too short
        ):
            with pytest.raises(ValueError, match="layout does not match the mesh block sizes"):
                Decomposition(dec.mesh, layout)
        # Any arrangement of the block points composes to the relabeled table.
        swapped = Decomposition(dec.mesh, ((1, 0), (0, 0), (1, 1), (0, 1))).reassemble()
        assert swapped == dec.reassemble().relabel(perm((0, 1), (2, 3), degree=4))

    def test_redecomposition_is_identical(self, censuses):
        for q in censuses.brute(4).tables:
            dec = decompose(q)
            assert decompose(dec.reassemble()) == dec

    def test_computed_once_per_table(self, q3, monkeypatch):
        assert decompose(q3) is decompose(q3)
        calls = []
        real = Decomposition.reassemble
        monkeypatch.setattr(
            Decomposition, "reassemble", lambda dec: calls.append(dec) or real(dec)
        )
        # An equal but distinct quandle shares q3's decomposition while q3 lives.
        twin = Quandle(q3.table)
        assert twin is not q3
        assert decompose(twin) is decompose(q3)
        assert calls == []

    def test_a_failed_postcondition_is_not_cached(self, q3, monkeypatch):
        # No fixture holds this table, and gc frees what earlier tests dropped
        # before it is built, so its first decomposition runs here.
        gc.collect()
        scattered = q3.relabel(perm((1, 2), degree=3))
        assert "decomposition" not in scattered._cache
        with monkeypatch.context() as patch:
            patch.setattr(Decomposition, "reassemble", lambda dec: None)
            with pytest.raises(PostconditionError):
                decompose(scattered)
        assert "decomposition" not in scattered._cache
        assert decompose(scattered).reassemble() == scattered

    def test_the_cache_goes_with_the_last_quandle_of_its_table(self):
        quandle_module = importlib.import_module("quandles.quandle")
        q = disjoint_union([dihedral_quandle(3), trivial_quandle(2)])
        twin = Quandle(q.table)
        # Decomposing ties a cycle: cache -> decomposition -> reassembled -> cache.
        assert decompose(q).reassemble()._cache is q._cache
        cache = weakref.ref(q._cache)
        del q
        gc.collect()
        assert cache() is twin._cache
        table = twin.table
        del twin
        gc.collect()
        assert cache() is None
        assert table not in quandle_module._caches

    def test_reassembled_once_per_decomposition(self, q3, validated):
        dec = decompose(q3)
        validated.clear()
        assert dec.reassemble() is dec.reassemble()
        assert validated == []
        # A replaced decomposition builds and validates its own.
        fresh = dataclasses.replace(dec)
        assert fresh.reassemble() == q3 and fresh.reassemble() is not dec.reassemble()
        assert validated == [q3.table]

    def test_none_diagonal_holds_the_blocks_own_symmetries(self, t3, q3):
        mesh = Mesh([t3, q3], [[None, trivial_hom(t3, q3)], [trivial_hom(q3, t3), None]])
        for i, block in enumerate(mesh.blocks):
            assert mesh.homs[i][i] is canonical_hom(Quandle(block.table))
            assert all(
                p is block.symmetry(y) for y, p in enumerate(mesh.homs[i][i].assignment)
            )


class TestDecompositionTree:
    def test_connected_is_leaf(self, t3):
        tree = decomposition_tree(t3)
        assert tree.is_leaf()
        assert tree.depth() == 0
        assert tree.leaves() == [t3]
        assert tree.replay() == t3

    def test_trivial_3_depth_one(self):
        tree = decomposition_tree(trivial_quandle(3))
        assert tree.depth() == 1
        assert [leaf.order for leaf in tree.leaves()] == [1, 1, 1]

    def test_two_orbit_depth_two(self, q3):
        # the {0,1} orbit block is a trivial 2, disconnected on its own
        tree = decomposition_tree(q3)
        assert tree.depth() == 2
        assert all(leaf.is_connected() for leaf in tree.leaves())
        assert tree.replay() == q3

    def test_replay_reproduces_census(self, censuses):
        for n in range(1, 5):
            for q in censuses.brute(n).tables:
                assert decomposition_tree(q).replay() == q

    def test_reuses_the_root_decomposition(self, q3):
        dec = decompose(q3)
        tree = decomposition_tree(q3)
        assert tree.decomposition is dec
        assert all(child.quandle is block for child, block in zip(tree.children, dec.blocks))
        assert decomposition_tree(q3).children[0].decomposition is tree.children[0].decomposition

    def test_no_validation_for_levels_already_decomposed(self, t3, q3, validated):
        # Every block of this one is connected, so the tree is the root level only.
        glued = disjoint_union([t3, trivial_quandle(1)])
        decompose(glued)
        validated.clear()
        tree = decomposition_tree(glued)
        assert tree.depth() == 1
        assert tree.replay() is decompose(glued).reassemble()
        assert validated == []
        # With every level decomposed beforehand, no level builds a table
        # again, and replay reuses what decompose's postconditions built.
        for q in (q3, trivial_quandle(3)):
            for block in decompose(q).blocks:
                decompose(block)
            validated.clear()
            tree = decomposition_tree(q)
            assert validated == []
            assert tree.replay() == q
            assert validated == []


def _pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCopyAndPickle:
    COPIES = (copy.copy, copy.deepcopy, _pickle_round_trip)

    @pytest.mark.parametrize("duplicate", COPIES)
    def test_round_trip_of_every_value_type(self, duplicate, q3):
        dec = decompose(q3)
        for value in (q3, perm((0, 1), degree=3), dec, dec.mesh):
            twin = duplicate(value)
            assert type(twin) is type(value)
            assert twin == value
        assert duplicate(dec).reassemble() == q3

    @pytest.mark.parametrize("duplicate", COPIES)
    def test_copy_validates_and_shares_cache(self, duplicate, q3, validated):
        dec = decompose(q3)
        validated.clear()
        twin = duplicate(q3)
        assert twin is not q3
        assert validated == [q3.table]
        assert hash(twin) == hash(q3)
        assert twin._cache is q3._cache and decompose(twin) is dec


class TestFrozenMeshOutcomes:
    """Every outcome of a seeded set of random meshes, frozen by digest.

    Blocks come from the order 1-4 censuses; diagonals are omitted,
    canonical or arbitrary automorphisms; off-diagonal entries are mostly
    trivial or constant-automorphism homs, which pass the hom check so the
    conditions decide.  A failure is frozen as its type, message and
    witness, a success as the composed table and the filled hom matrix.
    """

    MESHES = 2400
    DIGEST = "fd33991ccb1c575d210a95aa15ba6c93b02934b80838a12317976ca00b032564"

    def test_random_meshes_frozen(self, censuses):
        outcomes = [_mesh_outcome(blocks, homs) for blocks, homs in _random_meshes(censuses)]
        kinds = [outcome[0] for outcome in outcomes]
        assert len(outcomes) == self.MESHES
        assert kinds.count("Condition2ViolationError") >= 100
        assert kinds.count("Condition1ViolationError") >= 100
        assert kinds.count("ok") >= 100
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == self.DIGEST


def _random_meshes(censuses):
    rng = random.Random(2005)
    tables = {n: censuses.brute(n).tables for n in range(1, 5)}
    auts = {
        q: [p for p in map(Permutation, itertools.permutations(range(q.order)))
            if q.is_automorphism(p)]
        for n in tables for q in tables[n]
    }
    for _ in range(TestFrozenMeshOutcomes.MESHES):
        k = rng.choice((1, 2, 2, 3, 3, 3, 4, 4))
        blocks = [rng.choice(tables[rng.randint(1, 4)]) for _ in range(k)]
        homs = [
            [_random_entry(rng, blocks[i], blocks[j], i == j, tables, auts) for j in range(k)]
            for i in range(k)
        ]
        yield blocks, homs


def _random_entry(rng, source, target, diagonal, tables, auts):
    roll = rng.random()
    if diagonal:
        if roll < 0.85:
            return None
        if roll < 0.99:
            return GammaHom(source, source, tuple(source.symmetries()))
        return GammaHom(source, source, tuple(rng.choice(auts[source]) for _ in source.table))
    if roll < 0.005:
        return None
    if roll < 0.01:
        return trivial_hom(rng.choice(tables[source.order]), target)
    if roll < 0.2:
        return trivial_hom(source, target)
    if roll < 0.92:
        image = rng.choice(auts[target])
        return GammaHom(source, target, (image,) * source.order)
    if roll < 0.97:
        return GammaHom(source, target, tuple(rng.choice(auts[target]) for _ in source.table))
    return _random_hom(rng, source, target)


def _mesh_outcome(blocks, homs):
    try:
        mesh = validate_mesh(blocks, homs)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    images = tuple(tuple(tuple(p.images for p in h.assignment) for h in row) for row in mesh.homs)
    return "ok", semidisjoint_union(mesh).table, images
