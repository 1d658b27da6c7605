"""The package namespace: each module's __all__, re-exported in layer order."""

from __future__ import annotations

import dataclasses
import inspect
import sys

import pytest

import quandles
from quandles import (
    canonical_hom,
    check_generation,
    count_connected,
    coset_quandle,
    decompose,
    decomposition_tree,
    dihedral_quandle,
    evaluate,
    realize,
    semidisjoint_union,
    trivial_hom,
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
