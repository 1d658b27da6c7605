"""The three workloads: inputs, one timed pass, and the check of its outputs.

Each workload has setup(name, seed, golden) -> inputs, run(inputs) -> outputs
(the timed pass, package calls only) and check(name, inputs, outputs, golden) ->
(attempted, problems), where every problem is one failed operation.  All
package calls go through names looked up at call time (``quandles.X``,
``quandles.cli.main``), so the spans the tracer installs see them.

Why these three:
  brute-6         the brute-force census through the CLI: the oracle column
                  search plus validation and canonical_form on every labeled
                  table.  It never touches the S_n subgroup search.
  connected-6     the coset construction through the CLI: almost all of it
                  is the cold S_6 subgroup-class search; the oracle never runs.
  mesh-roundtrip  many single-table library calls (validate, decompose,
                  serialize, compose, replay, automorphisms, isomorphism) on
                  seeded relabelings of every class of orders 1-6, plus
                  seeded random meshes judged by is_valid_mesh.
The CLI workloads take no input, so their seed changes nothing.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys

import quandles
import quandles.cli

import reference

CLI_ARGV = {
    "brute-6": ("enumerate", "--order", "6"),
    "connected-6": ("enumerate", "--order", "6", "--connected"),
}

# Seeded relabelings of each class per pass, and random meshes per pass.
RELABELINGS_PER_CLASS = 2
RANDOM_MESHES = 500


def wrap_points():
    """(owner, attribute, span, measure) for every traced call site."""
    cli, oracle, quandle, enumeration, decompose, augment, formats = (
        importlib.import_module(f"quandles.{name}")
        for name in ("cli", "oracle", "quandle", "enumeration", "decompose", "augment", "formats")
    )
    Quandle = quandle.Quandle
    return [
        (cli, "main", "cli.main", None),
        (cli, "enumerate_all", "oracle.census", len),
        (oracle, "labeled_tables", "oracle.search", len),
        (cli, "enumerate_connected", "enumeration.enumerate", len),
        (enumeration, "transitive_subgroups_up_to_conjugacy", "perm.subgroup_search", len),
        (enumeration.ConnectedSeed, "__init__", "enumeration.seed", None),
        (enumeration, "check_generation", "enumeration.check_generation", lambda ok: int(not ok)),
        (enumeration, "coset_quandle", "enumeration.coset_build", None),
        (enumeration, "generate_group", "perm.generate_group", None),
        (quandle, "generate_group", "perm.generate_group", None),
        (Quandle, "__init__", "quandle.validate", None),
        (Quandle, "canonical_form", "quandle.canonical", None),
        (Quandle, "relabel", "quandle.relabel", None),
        (Quandle, "automorphism_group", "quandle.automorphism", None),
        (Quandle, "find_isomorphism", "quandle.find_isomorphism", None),
        (Quandle, "inner_group", "quandle.inner_group", None),
        (quandles, "decompose", "decompose.decompose", None),
        (decompose, "decompose", "decompose.decompose", None),
        (quandles, "decomposition_tree", "decompose.tree", None),
        (decompose, "decomposition_tree", "decompose.tree", None),
        (decompose.DecompositionTree, "replay", "decompose.tree", None),
        (quandles, "semidisjoint_union", "decompose.compose", None),
        (decompose, "semidisjoint_union", "decompose.compose", None),
        (decompose, "validate_mesh", "decompose.validate_mesh", None),
        (formats, "validate_mesh", "decompose.validate_mesh", None),
        (quandles, "is_valid_mesh", "decompose.is_valid_mesh", None),
        (decompose, "check_gamma_hom", "augment.check_hom", None),
        (augment, "check_gamma_hom", "augment.check_hom", None),
        (formats, "canonical_json", "formats.write", None),
        (formats, "quandle_to_obj", "formats.write", None),
        (formats, "census_entry_to_obj", "formats.write", None),
        (formats, "decomposition_to_obj", "formats.write", None),
        (formats, "mesh_from_obj", "formats.read", None),
    ]


# Spans that must record at least one call on each workload.
EXPECTED_SPANS = {
    "brute-6": (
        "cli.main", "oracle.census", "oracle.search", "quandle.validate",
        "quandle.canonical", "quandle.inner_group", "perm.generate_group", "formats.write",
    ),
    "connected-6": (
        "cli.main", "enumeration.enumerate", "perm.subgroup_search", "enumeration.seed",
        "enumeration.check_generation", "enumeration.coset_build", "perm.generate_group",
        "quandle.validate", "quandle.canonical", "quandle.inner_group", "formats.write",
    ),
    "mesh-roundtrip": (
        "quandle.validate", "quandle.relabel", "quandle.automorphism",
        "quandle.find_isomorphism", "quandle.inner_group", "perm.generate_group",
        "decompose.decompose", "decompose.tree", "decompose.compose",
        "decompose.validate_mesh", "decompose.is_valid_mesh", "augment.check_hom",
        "formats.write", "formats.read",
    ),
}


# -- CLI workloads -----------------------------------------------------------


def cli_setup(name: str, seed: int, golden: dict) -> list[str]:
    return list(CLI_ARGV[name])


def cli_run(argv: list[str]) -> tuple[object, str]:
    """(exit code or exception, captured stdout) of one quandles.cli.main call."""
    out = io.StringIO()
    saved, sys.stdout = sys.stdout, out
    try:
        code = quandles.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, reported by the check
        code = exc
    finally:
        sys.stdout = saved
    return code, out.getvalue()


def cli_check(name: str, inputs, outputs, golden: dict) -> tuple[int, list[str]]:
    """One operation for the exit code, digest and class count, one per expected class."""
    code, stdout = outputs
    classes = golden["classes"][6]
    if name == "connected-6":
        expected = [e["table"] for e in classes if e["connected"]]
    else:
        expected = [(e["table"], e["connected"]) for e in classes]
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        entries = json.loads(stdout)
        if name == "connected-6":
            found = [tuple(map(tuple, e["quandle"]["table"])) for e in entries]
        else:
            found = [(tuple(map(tuple, e["quandle"]["table"])), e["connected"]) for e in entries]
    except (ValueError, TypeError, KeyError):
        found = []
    problems = []
    if code != 0 or digest != golden["cli_stdout_sha256"][name] or len(found) != len(expected):
        problems.append(
            f"{name}: exit {code!r}, {len(found)} classes (expected {len(expected)}), "
            f"stdout sha256 {digest}"
        )
    for k, want in enumerate(expected):
        if k >= len(found) or found[k] != want:
            problems.append(f"{name}: class {k} differs from golden")
    return 1 + len(expected), problems


# -- mesh round trip -----------------------------------------------------------


def mesh_setup(name: str, seed: int, golden: dict) -> dict:
    """Relabeled class tables and random meshes, all drawn from the seed."""
    rng = random.Random(seed)
    Q = quandles
    items = []
    for n, entries in sorted(golden["classes"].items()):
        for entry in entries:
            for _ in range(RELABELINGS_PER_CLASS):
                sigma = list(range(n))
                rng.shuffle(sigma)
                items.append({
                    "table": reference.relabel(entry["table"], sigma),
                    "canon": Q.Quandle(entry["table"]),
                    "aut_order": entry["aut_order"],
                })
    pool = [e["table"] for n in (1, 2, 3) for e in golden["classes"][n]]
    pool_auts = {t: reference.automorphisms(t) for t in pool}
    meshes = []
    for _ in range(RANDOM_MESHES):
        tables = [rng.choice(pool) for _ in range(rng.choice((2, 3)))]
        assignments = [[None] * len(tables) for _ in tables]
        for i, source in enumerate(tables):
            for j, target in enumerate(tables):
                if i == j:
                    continue
                kind = rng.random()
                if kind < 0.4:  # trivial hom: always a valid entry
                    images = [tuple(range(len(target)))] * len(source)
                elif kind < 0.8:  # one automorphism for every generator
                    images = [rng.choice(pool_auts[target])] * len(source)
                else:  # arbitrary permutations, mostly invalid
                    images = [tuple(rng.sample(range(len(target)), len(target))) for _ in source]
                assignments[i][j] = images
        blocks = [Q.Quandle(t) for t in tables]
        homs = [
            [
                None if i == j else Q.GammaHom(
                    blocks[i], blocks[j], tuple(Q.Permutation(p) for p in assignments[i][j])
                )
                for j in range(len(blocks))
            ]
            for i in range(len(blocks))
        ]
        meshes.append({"tables": tables, "assignments": assignments, "blocks": blocks, "homs": homs})
    return {"items": items, "meshes": meshes}


def _round_trip(table, canon):
    """Every single-table step on one quandle; results are checked later."""
    Q, formats = quandles, quandles.formats
    q = Q.Quandle(table)
    dec = Q.decompose(q)
    obj = json.loads(formats.canonical_json(formats.decomposition_to_obj(dec)))
    composed = Q.semidisjoint_union(formats.mesh_from_obj(obj))
    positions = sorted(range(q.order), key=lambda g: obj["layout"][g])
    back = composed.relabel(Q.Permutation(tuple(positions)))
    replayed = Q.decomposition_tree(q).replay()
    return len(dec.blocks), back, replayed, q.automorphism_group(), q.find_isomorphism(canon)


def mesh_run(inputs: dict) -> tuple[list, list]:
    results = []
    for item in inputs["items"]:
        try:
            results.append(_round_trip(item["table"], item["canon"]))
        except Exception as exc:  # a crash is a failed operation, reported by the check
            results.append(exc)
    verdicts = []
    for mesh in inputs["meshes"]:
        try:
            verdicts.append(quandles.is_valid_mesh(mesh["blocks"], mesh["homs"]))
        except Exception as exc:
            verdicts.append(exc)
    return results, verdicts


def _round_trip_ok(item: dict, result) -> bool:
    table = item["table"]
    blocks, back, replayed, aut, sigma = result
    auts = [p.images for p in aut]
    return (
        blocks == reference.orbit_count(table)
        and back.table == table
        and replayed.table == table
        and len(auts) == item["aut_order"]
        and all(reference.is_automorphism(table, s) for s in auts)
        and sigma is not None
        and reference.relabel(table, sigma.images) == item["canon"].table
    )


def mesh_check(name: str, inputs: dict, outputs, golden: dict) -> tuple[int, list[str]]:
    """One operation per relabeled table and one per random mesh."""
    results, verdicts = outputs
    problems = []
    for item, result in zip(inputs["items"], results):
        if isinstance(result, Exception):
            problems.append(f"round trip of {item['table']} raised {result!r}")
            continue
        try:
            ok = _round_trip_ok(item, result)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"round trip of {item['table']} returned malformed output: {exc!r}")
            continue
        if not ok:
            problems.append(f"round trip of {item['table']} is wrong")
    for mesh, verdict in zip(inputs["meshes"], verdicts):
        expected = reference.is_quandle(reference.composed_table(mesh["tables"], mesh["assignments"]))
        if verdict is not expected:
            problems.append(f"is_valid_mesh gave {verdict!r} on {mesh['assignments']}")
    return len(inputs["items"]) + len(inputs["meshes"]), problems


WORKLOADS = {
    "brute-6": (cli_setup, cli_run, cli_check),
    "connected-6": (cli_setup, cli_run, cli_check),
    "mesh-roundtrip": (mesh_setup, mesh_run, mesh_check),
}
