"""The package namespace: each module's __all__, re-exported in layer order."""

from __future__ import annotations

import dataclasses
import inspect
import sys

import pytest

import quandles
from quandles import (
    Census,
    CensusEntry,
    ConnectedSeed,
    DecompositionTree,
    Permutation,
    Quandle,
    canonical_hom,
    check_generation,
    compose,
    count_connected,
    coset_quandle,
    decompose,
    decomposition_tree,
    dihedral_quandle,
    evaluate,
    is_quandle_table,
    realize,
    semidisjoint_union,
    trivial_hom,
    trivial_quandle,
)

# quandles.decompose is the function, so the modules come from sys.modules.
LAYERS = [
    sys.modules[f"quandles.{name}"]
    for name in ("perm", "quandle", "augment", "decompose", "enumeration", "oracle")
]

# The package's public names as they stood when each was still listed by hand.
FROZEN_NAMES = {
    "AxiomViolation", "Census", "CensusEntry", "Condition1ViolationError",
    "Condition2ViolationError", "ConnectedSeed", "Decomposition", "DecompositionTree",
    "DiagonalNotCanonicalError", "DistributivityViolation", "GammaHom",
    "GenerationFailureError", "HomError", "IdempotenceViolation", "InvertibilityViolation",
    "Mesh", "MeshError", "NotAnAutomorphismError", "NotConnectedError", "PermGroup",
    "Permutation", "Quandle", "RangeViolation", "RelationViolationError",
    "axiom_violations", "canonical_hom", "check_generation", "compose", "coset_quandle",
    "count_connected", "decompose", "decomposition_tree", "dihedral_quandle",
    "disjoint_union", "enumerate_all", "enumerate_connected", "evaluate", "generate_group",
    "is_quandle_table", "is_valid_mesh", "realize", "semidisjoint_union",
    "transitive_subgroups_up_to_conjugacy", "trivial_hom", "trivial_quandle",
    "validate_gamma_hom", "validate_mesh",
}


def test_all_is_the_module_lists_in_layer_order():
    assert quandles.__all__ == [name for module in LAYERS for name in module.__all__]
    assert len(set(quandles.__all__)) == len(quandles.__all__)


def test_all_keeps_the_frozen_names():
    assert len(FROZEN_NAMES) == 47
    assert set(quandles.__all__) == FROZEN_NAMES


def test_each_name_is_the_module_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(quandles, name) is getattr(module, name), name


def test_decompose_is_the_function():
    assert inspect.isfunction(quandles.decompose)
    assert quandles.decompose.__module__ == "quandles.decompose"


def test_every_public_class_but_the_exceptions_is_a_frozen_dataclass():
    values = [
        obj for obj in map(vars(quandles).get, quandles.__all__)
        if inspect.isclass(obj) and not issubclass(obj, BaseException)
    ]
    assert len(values) == 15
    for cls in values:
        assert dataclasses.is_dataclass(cls), cls.__name__
        assert cls.__dataclass_params__.frozen, cls.__name__


Q3 = dihedral_quandle(3)


@pytest.mark.parametrize("call, expected", [
    (lambda: decompose([[0]]), "Quandle, not list"),
    (lambda: decomposition_tree(5), "Quandle, not int"),
    (lambda: semidisjoint_union(5), "Mesh, not int"),
    (lambda: canonical_hom([[0]]), "Quandle, not list"),
    (lambda: trivial_hom([[0]], Q3), "Quandle, not list"),
    (lambda: trivial_hom(Q3, [[0]]), "Quandle, not list"),
    (lambda: evaluate(5, []), "GammaHom, not int"),
    (lambda: realize([[0]]), "Quandle, not list"),
    (lambda: coset_quandle(5), "ConnectedSeed, not int"),
    (lambda: check_generation(5), "ConnectedSeed, not int"),
    (lambda: count_connected(5), "Census, not int"),
], ids=[
    "decompose", "decomposition_tree", "semidisjoint_union", "canonical_hom",
    "trivial_hom-source", "trivial_hom-target", "evaluate", "realize", "coset_quandle",
    "check_generation", "count_connected",
])
def test_a_wrongly_typed_argument_is_a_type_error(call, expected):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"expected a {expected}"


P2 = Permutation((1, 0))
T2 = trivial_quandle(2)
SEED3 = realize(Q3)


@pytest.mark.parametrize("call, error", [
    (lambda: trivial_quandle(2.0), TypeError),
    (lambda: trivial_quandle(0), ValueError),
    (lambda: dihedral_quandle(True), TypeError),
    (lambda: dihedral_quandle("3"), TypeError),
    (lambda: dihedral_quandle(0), ValueError),
    (lambda: Permutation.identity(True), TypeError),
    (lambda: Permutation.identity(0), ValueError),
    (lambda: Permutation.from_cycles(True, (0,)), TypeError),
    (lambda: compose(P2, 5), TypeError),
    (lambda: compose(5, P2), TypeError),
    (lambda: P2 * 5, TypeError),
    (lambda: is_quandle_table([]), ValueError),
    (lambda: Census(1, ([[0]],), (True,)), TypeError),
    (lambda: Census(2, (Quandle([[0]]),), (True,)), ValueError),
    (lambda: Census(1, (Quandle([[0]]),), ("yes",)), TypeError),
    (lambda: Census(1.0, (), ()), TypeError),
    (lambda: CensusEntry(5, 5, 5), TypeError),
    (lambda: CensusEntry(Q3, 5, 6), TypeError),
    (lambda: CensusEntry(Q3, SEED3, 6.0), TypeError),
    (lambda: CensusEntry(Q3, SEED3, 5), ValueError),
    (lambda: CensusEntry(dihedral_quandle(5), SEED3, 6), ValueError),
    (lambda: DecompositionTree(5, None, ()), TypeError),
    (lambda: DecompositionTree(T2, 5, ()), TypeError),
    (lambda: DecompositionTree(T2, None, (5,)), TypeError),
    (lambda: DecompositionTree(T2, None, (DecompositionTree(T2, None, ()),)), ValueError),
    (lambda: DecompositionTree(Q3, decompose(T2), ()), ValueError),
    (lambda: DecompositionTree(T2, decompose(T2), ()), ValueError),
    (lambda: ConnectedSeed(5, 5, 5, 5), TypeError),
    (lambda: ConnectedSeed(SEED3.group, 5, P2, ()), TypeError),
    (lambda: ConnectedSeed(SEED3.group, SEED3.stabilizer, SEED3.z, (5, 5, 5)), TypeError),
], ids=[
    "trivial_quandle-float", "trivial_quandle-0", "dihedral_quandle-bool",
    "dihedral_quandle-str", "dihedral_quandle-0", "identity-bool", "identity-0",
    "from_cycles-bool", "compose-right", "compose-left", "mul", "is_quandle_table-empty",
    "Census-table", "Census-order-mismatch", "Census-flag", "Census-order",
    "CensusEntry-quandle", "CensusEntry-seed", "CensusEntry-inner-type",
    "CensusEntry-inner-order", "CensusEntry-order-mismatch", "DecompositionTree-quandle",
    "DecompositionTree-decomposition", "DecompositionTree-child", "DecompositionTree-leaf",
    "DecompositionTree-order-mismatch", "DecompositionTree-children", "ConnectedSeed-group",
    "ConnectedSeed-stabilizer", "ConnectedSeed-reps",
])
def test_a_malformed_value_is_refused(call, error):
    # The library contract: TypeError or ValueError, never AttributeError
    # and never an object built from bad data.
    with pytest.raises(error):
        call()
