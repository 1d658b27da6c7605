"""The package namespace: each module's __all__, re-exported in layer order."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quandles
from quandles import (
    Census,
    CensusEntry,
    ConnectedSeed,
    Decomposition,
    DecompositionTree,
    GammaHom,
    GenerationFailureError,
    PermGroup,
    Permutation,
    Mesh,
    Quandle,
    axiom_violations,
    canonical_hom,
    check_generation,
    compose,
    count_connected,
    coset_quandle,
    decompose,
    decomposition_tree,
    dihedral_quandle,
    disjoint_union,
    evaluate,
    generate_group,
    is_quandle_table,
    is_valid_mesh,
    realize,
    semidisjoint_union,
    trivial_hom,
    trivial_quandle,
    validate_gamma_hom,
    validate_mesh,
)

# quandles.decompose is the function, so the modules come from sys.modules.
LAYERS = [
    sys.modules[f"quandles.{name}"]
    for name in ("perm", "quandle", "augment", "decompose", "enumeration", "oracle")
]

# The package's public names as they stood when each was still listed by hand,
# and isomorphism_classes, added since.
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
    "is_quandle_table", "is_valid_mesh", "isomorphism_classes", "realize", "semidisjoint_union",
    "transitive_subgroups_up_to_conjugacy", "trivial_hom", "trivial_quandle",
    "validate_gamma_hom", "validate_mesh",
}


def test_all_is_the_module_lists_in_layer_order():
    assert quandles.__all__ == [name for module in LAYERS for name in module.__all__]
    assert len(set(quandles.__all__)) == len(quandles.__all__)


def test_all_keeps_the_frozen_names():
    assert len(FROZEN_NAMES) == 48
    assert set(quandles.__all__) == FROZEN_NAMES


def test_each_name_is_the_module_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(quandles, name) is getattr(module, name), name


def test_decompose_is_the_function():
    assert inspect.isfunction(quandles.decompose)
    assert quandles.decompose.__module__ == "quandles.decompose"


def test_only_the_subgroup_search_holds_numpy():
    for info in pkgutil.iter_modules(quandles.__path__):
        importlib.import_module(f"quandles.{info.name}")
    modules = {name: m for name, m in sys.modules.items() if name.startswith("quandles.")}
    for name, module in modules.items():
        if name != "quandles._subgroups":
            assert all(value is not np for value in vars(module).values()), name
    subgroups = vars(modules["quandles._subgroups"]).values()
    perm = modules["quandles.perm"]
    assert all(v is not perm and getattr(v, "__module__", None) != perm.__name__ for v in subgroups)
    # The package import loads numpy with the search, so connected-6 never
    # pays the numpy import inside its timed pass (it raised pass_s 69%).
    script = "import sys, quandles; print('numpy' in sys.modules, 'quandles._subgroups' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout == "True True\n", proc.stderr


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
    (lambda: Permutation((1, 0, 2)).conjugated_by(5), "Permutation, not int"),
    (lambda: generate_group([Permutation((1, 0, 2))], 3).is_subgroup_of([1]),
     "PermGroup, not list"),
], ids=[
    "decompose", "decomposition_tree", "semidisjoint_union", "canonical_hom",
    "trivial_hom-source", "trivial_hom-target", "evaluate", "realize", "coset_quandle",
    "check_generation", "count_connected", "conjugated_by", "is_subgroup_of",
])
def test_a_wrongly_typed_argument_is_a_type_error(call, expected):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"expected a {expected}"


P2 = Permutation((1, 0))
E3 = Permutation.identity(3)
T4 = trivial_quandle(4)
SEED3 = realize(Q3)
# The derived fields cannot be passed, so this tree's levels cannot be
# grafted onto another quandle of its order.
TREE = decomposition_tree(disjoint_union([Q3, trivial_quandle(1)]))
DEC2 = decompose(trivial_quandle(2))  # layout ((0, 0), (1, 0))
# Live while its bool and float twins are refused: the cache an int table
# shares is looked up only after the raw entries pass validation.
ONE = Quandle(((0,),))


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
    (lambda: Census(([[0]],)), TypeError),
    (lambda: Census((ONE, T4)), ValueError),
    # The flags are derived, so a caller cannot hand them in.
    (lambda: Census((ONE,), (True,)), TypeError),
    # The order is derived from the tables, so a census needs one.
    (lambda: Census(()), ValueError),
    (lambda: CensusEntry(Q3), TypeError),
    (lambda: CensusEntry(5), TypeError),
    (lambda: CensusEntry(SEED3, 6), TypeError),
    (lambda: CensusEntry(ConnectedSeed(SEED3.group, E3)), GenerationFailureError),
    (lambda: DecompositionTree(5), TypeError),
    (lambda: DecompositionTree(T4, TREE.decomposition, TREE.children), TypeError),
    (lambda: ConnectedSeed(5, 5), TypeError),
    (lambda: ConnectedSeed(SEED3.group, 5), TypeError),
    (lambda: ConnectedSeed(SEED3.group, SEED3.stabilizer, SEED3.z, SEED3.reps), TypeError),
    (lambda: PermGroup((E3, E3)), ValueError),
    (lambda: PermGroup((E3, Permutation((1, 2, 0)))), ValueError),
    # True == 1 passed the layout check and was written to JSON as true.
    (lambda: Decomposition(DEC2.mesh, ((0, 0), (True, 0))), TypeError),
    (lambda: Quandle(((False,),)), ValueError),
    (lambda: Quandle(((0.0,),)), ValueError),
], ids=[
    "trivial_quandle-float", "trivial_quandle-0", "dihedral_quandle-bool",
    "dihedral_quandle-str", "dihedral_quandle-0", "identity-bool", "identity-0",
    "from_cycles-bool", "compose-right", "compose-left", "mul", "is_quandle_table-empty",
    "Census-table", "Census-order-mismatch", "Census-flag", "Census-order",
    "CensusEntry-quandle", "CensusEntry-seed", "CensusEntry-inner-order",
    "CensusEntry-not-generating", "DecompositionTree-quandle", "DecompositionTree-children",
    "ConnectedSeed-group", "ConnectedSeed-z", "ConnectedSeed-reps", "PermGroup-repeated-element",
    "PermGroup-not-closed", "Decomposition-bool-block", "Quandle-bool-twin",
    "Quandle-float-twin",
])
def test_a_malformed_value_is_refused(call, error):
    # The library contract: TypeError or ValueError, never AttributeError
    # and never an object built from bad data.
    with pytest.raises(error):
        call()


SWEEP_P = Permutation((1, 0, 2))
SWEEP_G = generate_group([SWEEP_P], 3)


def sweep_values():
    """One argument of each kind; fresh lists and dicts, so no call sees another's mutation."""
    return [
        None, 5, -1, True, 2.0, "3", [0], (0,), [[0]], np.int64(3), [], {}, object(),
        SWEEP_P, Q3, SWEEP_G,
    ]


def sweep_targets():
    """Every public callable but the exceptions, then the public methods of three values."""
    for name in quandles.__all__:
        obj = getattr(quandles, name)
        if not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            yield name, obj
    for value in (SWEEP_P, SWEEP_G, Q3):
        for name in dir(value):
            if not name.startswith("_") and callable(getattr(value, name)):
                yield f"{type(value).__name__}.{name}", getattr(value, name)


def test_no_argument_escapes_as_anything_but_a_type_or_value_error():
    # Every combination of values for at most two required parameters; one
    # value repeated in every slot beyond that.
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    count = len(sweep_values())
    escaped = []
    for name, target in sweep_targets():
        required = [
            p for p in inspect.signature(target).parameters.values()
            if p.kind in positional and p.default is p.empty
        ]
        k = len(required)
        if k <= 2:
            picks = itertools.product(range(count), repeat=k)
        else:
            picks = [(i,) * k for i in range(count)]
        for pick in picks:
            values = sweep_values()
            args = [values[i] for i in pick]
            try:
                target(*args)
            except (TypeError, ValueError):
                pass
            except Exception as exc:
                escaped.append(f"{name}{tuple(type(a).__name__ for a in args)}: {exc!r}")
    assert escaped == []


# Well-typed values of the wrong shape: the contract asks for ValueError,
# never the AttributeError or IndexError that reading them could raise.
SHAPES = [trivial_quandle(1), trivial_quandle(2), Q3, disjoint_union([Q3, trivial_quandle(1)])]


@st.composite
def ragged_tables(draw):
    n = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    assume(any(k != n for k in lengths))
    return [draw(st.lists(st.integers(-1, 6), min_size=k, max_size=k)) for k in lengths]


@settings(max_examples=100, deadline=None)
@given(ragged_tables())
def test_a_ragged_table_is_a_value_error(table):
    for call in (Quandle, axiom_violations, is_quandle_table):
        with pytest.raises(ValueError):
            call(table)


@st.composite
def wrong_size_hom_matrices(draw):
    blocks = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3))
    k = len(blocks)
    sizes = draw(st.lists(st.integers(0, 4), max_size=4))
    assume(len(sizes) != k or any(m != k for m in sizes))
    homs = [[trivial_hom(blocks[i % k], blocks[j % k]) for j in range(m)] for i, m in enumerate(sizes)]
    return blocks, homs


@settings(max_examples=100, deadline=None)
@given(wrong_size_hom_matrices())
def test_a_hom_matrix_of_the_wrong_size_is_a_value_error(blocks_and_homs):
    for call in (Mesh, validate_mesh):
        with pytest.raises(ValueError, match="hom matrix must be"):
            call(*blocks_and_homs)
    assert not is_valid_mesh(*blocks_and_homs)


@st.composite
def malformed_assignments(draw):
    source, target = draw(st.sampled_from(SHAPES)), draw(st.sampled_from(SHAPES))
    degrees = draw(st.lists(st.integers(1, 5), max_size=5))
    assume(len(degrees) != source.order or set(degrees) != {target.order})
    assignment = [Permutation(draw(st.permutations(range(d)))) for d in degrees]
    return source, target, assignment


@settings(max_examples=100, deadline=None)
@given(malformed_assignments())
def test_an_assignment_of_the_wrong_length_or_degrees_is_a_value_error(args):
    for call in (GammaHom, validate_gamma_hom):
        with pytest.raises(ValueError):
            call(*args)


@st.composite
def wrong_length_layouts(draw):
    dec = decompose(draw(st.sampled_from(SHAPES)))
    kept = dec.layout[: draw(st.integers(0, len(dec.layout)))]
    extra = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    assume(len(kept) + len(extra) != len(dec.layout))
    return dec.mesh, kept + tuple(extra)


@settings(max_examples=100, deadline=None)
@given(wrong_length_layouts())
def test_a_layout_of_the_wrong_length_is_a_value_error(mesh_and_layout):
    with pytest.raises(ValueError, match="layout does not match"):
        Decomposition(*mesh_and_layout)
