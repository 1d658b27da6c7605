"""JSON and grid format round trips, plus reader error behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from quandles.augment import canonical_hom, trivial_hom
from quandles.decompose import Decomposition, MeshError, decompose, decomposition_tree
from quandles.enumeration import enumerate_connected
from quandles.formats import (
    FormatError,
    canonical_json,
    census_entry_to_obj,
    decomposition_to_obj,
    hom_from_obj,
    hom_to_obj,
    layout_from_obj,
    mesh_from_obj,
    mesh_to_obj,
    parse_quandle_text,
    perm_from_obj,
    perm_to_obj,
    quandle_to_obj,
    table_from_obj,
    tree_to_obj,
)
from quandles.perm import Permutation
from quandles.quandle import Quandle, trivial_quandle

from conftest import TAIT_TABLE, TWO_ORBIT_TABLE


class TestScalars:
    def test_perm_round_trip(self):
        p = Permutation((2, 0, 1))
        assert perm_from_obj(perm_to_obj(p)) == p

    def test_perm_errors(self):
        with pytest.raises(FormatError):
            perm_from_obj("012")
        with pytest.raises(FormatError):
            perm_from_obj([0, 0, 1])
        with pytest.raises(FormatError):
            perm_from_obj([])
        with pytest.raises(FormatError):
            perm_from_obj([True, False])

    def test_canonical_json_is_stable_bytes(self):
        obj = {"b": [1, 2], "a": {"y": 0, "x": 1}}
        text = canonical_json(obj)
        assert text == '{"a":{"x":1,"y":0},"b":[1,2]}\n'
        assert canonical_json(json.loads(text)) == text


class TestQuandleIO:
    def test_json_round_trip(self, q3):
        obj = quandle_to_obj(q3)
        assert Quandle(table_from_obj(obj)) == q3

    def test_grid_parse(self):
        text = "3\n0 2 1\n2 1 0\n1 0 2\n"
        assert tuple(map(tuple, parse_quandle_text(text))) == TAIT_TABLE

    def test_json_text_parse(self, t3):
        assert parse_quandle_text(canonical_json(quandle_to_obj(t3))) == [
            list(row) for row in TAIT_TABLE
        ]

    def test_table_shape_errors(self):
        with pytest.raises(FormatError):
            table_from_obj([])
        with pytest.raises(FormatError):
            table_from_obj({"order": 2, "table": [[0, 1]]})
        with pytest.raises(FormatError):
            table_from_obj({"order": 2, "table": [[0, 1], [1]]})
        with pytest.raises(FormatError):
            table_from_obj({"order": 0, "table": []})

    def test_bool_entries_rejected(self):
        with pytest.raises(FormatError):
            table_from_obj({"order": 2, "table": [[False, True], [True, False]]})

    def test_bool_order_rejected(self):
        with pytest.raises(FormatError):
            table_from_obj({"order": True, "table": [[0]]})

    def test_grid_errors(self):
        with pytest.raises(FormatError):
            parse_quandle_text("")
        with pytest.raises(FormatError):
            parse_quandle_text("x 0")
        with pytest.raises(FormatError):
            parse_quandle_text("2 0 1 1")
        with pytest.raises(FormatError):
            parse_quandle_text("{not json")

    def test_out_of_range_entries_parse_but_fail_validation(self):
        # shape checking is the reader's job, axioms are the caller's
        table = parse_quandle_text("2 0 9 1 1")
        with pytest.raises(ValueError):
            Quandle(table)


class TestHomIO:
    def test_round_trip(self, t3, q3):
        h = trivial_hom(t3, q3)
        assert hom_from_obj(hom_to_obj(h), t3, q3) == type(h)(t3, q3, h.assignment)

    def test_order_mismatch(self, t3, q3):
        t2 = trivial_quandle(2)
        obj = hom_to_obj(trivial_hom(t2, q3))
        with pytest.raises(FormatError):
            hom_from_obj(obj, t3, q3)
        with pytest.raises(FormatError):
            hom_from_obj(hom_to_obj(trivial_hom(t3, q3)), t3, t2)
        short = hom_to_obj(trivial_hom(t3, q3))
        short["assignment"] = short["assignment"][:2]
        with pytest.raises(FormatError):
            hom_from_obj(short, t3, q3)
        t1 = trivial_quandle(1)
        for key in ("source_order", "target_order"):
            obj = {"source_order": 1, "target_order": 1, "assignment": [[0]], key: True}
            with pytest.raises(FormatError):
                hom_from_obj(obj, t1, t1)

    def test_wrong_degree_rejected(self, t3):
        obj = {"source_order": 3, "target_order": 3, "assignment": [[0, 1]] * 3}
        with pytest.raises(FormatError):
            hom_from_obj(obj, t3, t3)


class TestMeshIO:
    def test_round_trip_via_decompose(self, q3):
        dec = decompose(q3)
        mesh = mesh_from_obj(mesh_to_obj(dec.mesh))
        assert mesh.blocks == dec.mesh.blocks
        assert mesh.homs == dec.mesh.homs

    def test_null_only_on_diagonal(self, q3):
        obj = mesh_to_obj(decompose(q3).mesh)
        obj["homs"][1][0] = None
        with pytest.raises(FormatError):
            mesh_from_obj(obj)

    def test_explicit_diagonal_accepted(self, t3):
        obj = {
            "blocks": [quandle_to_obj(t3)],
            "homs": [[hom_to_obj(canonical_hom(t3))]],
        }
        mesh = mesh_from_obj(obj)
        assert mesh.homs[0][0].assignment == tuple(t3.symmetries())

    def test_block_must_be_a_quandle(self):
        obj = {
            "blocks": [{"order": 2, "table": [[1, 0], [0, 1]]}],
            "homs": [[None]],
        }
        # An axiom violation is invalid math, not a malformed file.
        with pytest.raises(ValueError, match="^not a quandle: ") as info:
            mesh_from_obj(obj)
        assert not isinstance(info.value, FormatError)

    def test_mesh_conditions_still_enforced(self, t3):
        t2 = trivial_quandle(2)
        swap = {"source_order": 2, "target_order": 2, "assignment": [[1, 0], [0, 1]]}
        obj = {
            "blocks": [quandle_to_obj(t2), quandle_to_obj(t2)],
            "homs": [[None, swap], [swap, None]],
        }
        with pytest.raises(MeshError):
            mesh_from_obj(obj)

    def test_homs_matrix_shape(self, t3):
        with pytest.raises(FormatError):
            mesh_from_obj({"blocks": [quandle_to_obj(t3)], "homs": [[None, None]]})
        with pytest.raises(FormatError):
            mesh_from_obj({"blocks": [], "homs": []})


class TestCompositeIO:
    def test_decomposition_includes_layout(self, q3):
        scattered = q3.relabel(Permutation((0, 2, 1)))
        obj = decomposition_to_obj(decompose(scattered))
        assert obj["layout"] == [[0, 0], [1, 0], [0, 1]]
        layout = layout_from_obj(obj["layout"], 3)
        assert layout == ((0, 0), (1, 0), (0, 1))
        # numpy ints pass the one integer rule and are stored as ints.
        from_numpy = layout_from_obj([[np.int64(b), np.int8(x)] for b, x in obj["layout"]], 3)
        assert from_numpy == layout and {type(v) for pair in from_numpy for v in pair} == {int}

    def test_a_decomposition_keeps_any_layout_as_int_pairs(self, q3):
        # An iterator used to be used up by the check, and a list was kept
        # as given, so the value was unhashable.
        dec = decompose(q3.relabel(Permutation((0, 2, 1))))
        pairs = [[np.int64(b), np.int8(x)] for b, x in dec.layout]
        for layout in (iter(dec.layout), list(dec.layout), pairs):
            rebuilt = Decomposition(dec.mesh, layout)
            assert rebuilt.layout == dec.layout
            assert {type(v) for pair in rebuilt.layout for v in pair} == {int}
            assert rebuilt == dec and hash(rebuilt) == hash(dec)
            assert rebuilt.reassemble() == dec.reassemble()
            obj = json.loads(canonical_json(decomposition_to_obj(rebuilt)))
            assert mesh_from_obj(obj) == dec.mesh
            assert layout_from_obj(obj["layout"], 3) == dec.layout

    def test_layout_errors(self):
        with pytest.raises(FormatError):
            layout_from_obj([[0, 0]], 2)
        with pytest.raises(FormatError):
            layout_from_obj([[0], [0, 1]], 2)
        with pytest.raises(FormatError):
            layout_from_obj([[False, False], [False, True]], 2)

    def test_tree_round_trip_structure(self, q3):
        obj = tree_to_obj(decomposition_tree(q3))
        assert obj["connected"] is False
        assert [child["connected"] for child in obj["children"]] == [False, True]
        inner = obj["children"][0]
        assert [c["quandle"]["order"] for c in inner["children"]] == [1, 1]

    def test_leaf_tree_has_no_children(self, t3):
        obj = tree_to_obj(decomposition_tree(t3))
        assert obj == {"connected": True, "quandle": quandle_to_obj(t3)}

    def test_census_entry_serialization(self):
        (entry,) = enumerate_connected(3)
        obj = census_entry_to_obj(entry)
        assert obj["inner_order"] == 6
        assert obj["seed"] == {"group_order": 6, "stabilizer_order": 2, "z": [0, 2, 1]}
        assert tuple(map(tuple, obj["quandle"]["table"])) == TAIT_TABLE

    def test_two_orbit_table_constant(self, q3):
        assert quandle_to_obj(q3)["table"] == [list(r) for r in TWO_ORBIT_TABLE]
