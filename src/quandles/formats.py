"""Reading and writing the JSON interchange objects.

Writers always emit JSON through canonical_json, which fixes key order and
spacing so equal values serialize to equal bytes.  Quandle readers also
accept a plain text grid (first line the order, then the table rows) for
hand-authored fixtures.  Reader errors are FormatError; mathematical
invalidity (a well-formed table that breaks an axiom) is not checked here.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .augment import GammaHom
from .config import is_int
from .decompose import Decomposition, DecompositionTree, Mesh, validate_mesh
from .enumeration import CensusEntry
from .perm import Permutation
from .quandle import Quandle

__all__ = [
    "FormatError",
    "canonical_json",
    "perm_to_obj",
    "perm_from_obj",
    "quandle_to_obj",
    "table_from_obj",
    "parse_json",
    "parse_quandle_text",
    "hom_to_obj",
    "hom_from_obj",
    "mesh_to_obj",
    "mesh_from_obj",
    "decomposition_to_obj",
    "layout_from_obj",
    "tree_to_obj",
    "census_entry_to_obj",
]


class FormatError(ValueError):
    """Input does not parse into the expected shape."""


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def perm_to_obj(p: Permutation) -> list[int]:
    return list(p.images)


def perm_from_obj(obj: Any) -> Permutation:
    _require(isinstance(obj, list) and all(is_int(v) for v in obj),
             "permutation must be a list of ints")
    try:
        return Permutation(tuple(obj))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def quandle_to_obj(q: Quandle) -> dict:
    return {"order": q.order, "table": [list(row) for row in q.table]}


def table_from_obj(obj: Any) -> list[list[int]]:
    """Shape-check {"order": n, "table": [[...]]} into a raw table.

    Axioms are NOT checked; callers decide whether a violation is an error
    or a reportable result.
    """
    _require(isinstance(obj, dict), "quandle must be an object")
    order = obj.get("order")
    table = obj.get("table")
    _require(is_int(order) and order >= 1,
             "quandle needs an integer 'order' >= 1")
    _require(isinstance(table, list) and len(table) == order,
             "'table' must be a list of 'order' rows")
    rows = []
    for row in table:
        _require(isinstance(row, list) and len(row) == order,
                 "every table row must be a list of 'order' ints")
        _require(all(is_int(v) for v in row),
                 "table entries must be ints")
        rows.append([int(v) for v in row])
    return rows


def parse_json(text: str) -> Any:
    """json.loads with every parse failure, nesting too deep included, as FormatError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int with too many digits
        raise FormatError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise FormatError("bad JSON: nested too deeply") from None


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _grid_ints(tokens: list[str], message: str) -> list[int]:
    """Tokens as ints; "²" (a str.isdigit digit) and ints too long for int() are FormatError."""
    _require(all(_INT_TOKEN.fullmatch(t) for t in tokens), message)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(message) from None


def parse_quandle_text(text: str) -> list[list[int]]:
    """Raw table from JSON or the plain grid format, shape-checked only."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return table_from_obj(parse_json(stripped))
    tokens = stripped.split()
    _require(bool(tokens), "empty input")
    (order,) = _grid_ints(tokens[:1], "grid input must start with the order")
    _require(order >= 1, "order must be >= 1")
    _require(len(tokens) == 1 + order * order,
             f"grid input needs {order * order} entries after the order")
    values = _grid_ints(tokens[1:], "grid entries must be ints")
    return [values[r * order : (r + 1) * order] for r in range(order)]


def hom_to_obj(hom: GammaHom) -> dict:
    return {
        "source_order": hom.source_order,
        "target_order": hom.target_order,
        "assignment": [perm_to_obj(p) for p in hom.assignment],
    }


def hom_from_obj(obj: Any, source: Quandle, target: Quandle) -> GammaHom:
    _require(isinstance(obj, dict), "hom must be an object")
    _require(is_int(obj.get("source_order")) and obj["source_order"] == source.order,
             f"hom source_order must be {source.order}")
    _require(is_int(obj.get("target_order")) and obj["target_order"] == target.order,
             f"hom target_order must be {target.order}")
    assignment = obj.get("assignment")
    _require(isinstance(assignment, list) and len(assignment) == source.order,
             "hom needs an 'assignment' list, one permutation per source point")
    perms = [perm_from_obj(item) for item in assignment]
    _require(all(p.degree == target.order for p in perms),
             "assigned permutations must have the target's degree")
    return GammaHom(source, target, tuple(perms))


def mesh_to_obj(mesh: Mesh) -> dict:
    k = len(mesh.blocks)
    return {
        "blocks": [quandle_to_obj(b) for b in mesh.blocks],
        "homs": [
            [None if i == j else hom_to_obj(mesh.homs[i][j]) for j in range(k)]
            for i in range(k)
        ],
    }


def mesh_from_obj(obj: Any) -> Mesh:
    """Parse and fully validate a mesh; diagonal entries may be null.

    Shape errors are FormatError; a block that breaks an axiom raises the
    Quandle constructor's ValueError, and a hom or mesh that breaks its
    conditions raises HomError or MeshError.
    """
    _require(isinstance(obj, dict), "mesh must be an object")
    blocks_obj = obj.get("blocks")
    homs_obj = obj.get("homs")
    _require(isinstance(blocks_obj, list) and blocks_obj, "mesh needs a nonempty 'blocks' list")
    blocks = [Quandle(table_from_obj(item)) for item in blocks_obj]
    k = len(blocks)
    _require(isinstance(homs_obj, list) and len(homs_obj) == k
             and all(isinstance(row, list) and len(row) == k for row in homs_obj),
             "mesh needs a 'homs' matrix matching the block count")
    homs: list[list[GammaHom | None]] = []
    for i in range(k):
        row: list[GammaHom | None] = []
        for j in range(k):
            entry = homs_obj[i][j]
            if entry is None:
                _require(i == j, "only diagonal homs may be null")
                row.append(None)
            else:
                row.append(hom_from_obj(entry, blocks[i], blocks[j]))
        homs.append(row)
    return validate_mesh(blocks, homs)


def decomposition_to_obj(dec: Decomposition) -> dict:
    obj = mesh_to_obj(dec.mesh)
    obj["layout"] = [list(pair) for pair in dec.layout]
    return obj


def layout_from_obj(obj: Any, order: int) -> tuple[tuple[int, int], ...]:
    _require(isinstance(obj, list) and len(obj) == order,
             "'layout' must list a (block, local) pair per point")
    pairs = []
    for item in obj:
        _require(isinstance(item, list) and len(item) == 2
                 and all(is_int(v) for v in item),
                 "layout entries must be [block, local] int pairs")
        pairs.append(tuple(map(int, item)))
    return tuple(pairs)


def tree_to_obj(tree: DecompositionTree) -> dict:
    if tree.is_leaf():
        return {"connected": True, "quandle": quandle_to_obj(tree.quandle)}
    return {
        "connected": False,
        "quandle": quandle_to_obj(tree.quandle),
        "mesh": decomposition_to_obj(tree.decomposition),
        "children": [tree_to_obj(child) for child in tree.children],
    }


def census_entry_to_obj(entry: CensusEntry) -> dict:
    return {
        "quandle": quandle_to_obj(entry.quandle),
        "inner_order": entry.inner_order,
        "seed": {
            "group_order": len(entry.seed.group),
            "stabilizer_order": len(entry.seed.stabilizer),
            "z": perm_to_obj(entry.seed.z),
        },
    }
