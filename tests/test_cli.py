"""CLI behavior: output bytes, exit codes, file handling.

Commands run in-process through main() so capsys can capture exact
bytes; one subprocess smoke test covers the module entry point.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quandles import quandle as quandle_module
from quandles.cli import main
from quandles.decompose import decomposition_tree
from quandles.formats import canonical_json, quandle_to_obj, tree_to_obj
from quandles.perm import Permutation
from quandles.quandle import Quandle, dihedral_quandle, trivial_quandle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_quandle(path, q):
    path.write_text(canonical_json(quandle_to_obj(q)))
    return str(path)


# The mesh file shown in the README: a two-point trivial block and a point.
README_MESH = {
    "blocks": [{"order": 2, "table": [[0, 0], [1, 1]]}, {"order": 1, "table": [[0]]}],
    "homs": [
        [None, {"assignment": [[0], [0]], "source_order": 2, "target_order": 1}],
        [{"assignment": [[1, 0]], "source_order": 1, "target_order": 2}, None],
    ],
    "layout": [[0, 0], [0, 1], [1, 0]],
}


class TestValidate:
    def test_valid(self, capsys, tmp_path, t3):
        path = write_quandle(tmp_path / "t3.json", t3)
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out == "valid quandle of order 3\n"

    def test_grid_input(self, capsys, tmp_path):
        path = tmp_path / "t3.txt"
        path.write_text("3\n0 2 1\n2 1 0\n1 0 2\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0

    def test_invalid_lists_violations(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order":2,"table":[[1,0],[0,1]]}\n')
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines and all(line.startswith("violation:") for line in lines)
        assert "moves away from itself" in lines[0]

    @pytest.mark.parametrize("bad, tail", [
        (100, "violation: entry at (9, 0) is 11, not a point of the quandle"),
        (101, "... and 1 more violations"),
        (121, "... and 21 more violations"),
    ], ids=["100-bad", "101-bad", "121-bad"])
    def test_lists_the_first_100_violations_and_counts_the_rest(self, capsys, tmp_path, bad, tail):
        # The first `bad` entries of an order-11 table are out of range, so
        # they are its only violations.
        path = tmp_path / "bad.txt"
        path.write_text("11\n" + " ".join(["11"] * bad + ["0"] * (121 - bad)) + "\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == min(bad, 101)
        assert lines[0] == "violation: entry at (0, 0) is 11, not a point of the quandle"
        assert lines[-1] == tail

    def test_one_pass_over_the_column_pairs_lists_and_counts(self, capsys, tmp_path, monkeypatch):
        # x > y = y + (x - y)^3 mod 11 fails distributivity alone, more than
        # 100 times; the listing and the count of the rest share one pass.
        passes = []
        real = quandle_module._failing_pairs
        monkeypatch.setattr(
            quandle_module, "_failing_pairs", lambda columns: passes.append(columns) or real(columns)
        )
        path = tmp_path / "cube.txt"
        rows = (" ".join(str((y + (x - y) ** 3) % 11) for y in range(11)) for x in range(11))
        path.write_text("11\n" + "\n".join(rows) + "\n")
        code, out, _ = run(capsys, "validate", str(path))
        lines = out.splitlines()
        assert (code, len(lines), len(passes)) == (1, 101, 1)
        assert lines[-1].startswith("... and ")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 3


class TestInfo:
    def test_trivial_4(self, capsys, tmp_path, trivial4):
        path = write_quandle(tmp_path / "trivial4.json", trivial4)
        code, out, _ = run(capsys, "info", path)
        assert code == 0
        assert out.splitlines() == [
            "order: 4",
            "orbits: {0} {1} {2} {3}",
            "connected: false",
            "inner order: 1",
            "automorphism order: 24",
        ]

    def test_tait(self, capsys, tmp_path, t3):
        path = write_quandle(tmp_path / "t3.json", t3)
        code, out, _ = run(capsys, "info", path)
        assert code == 0
        assert "orbits: {0,1,2}" in out
        assert "connected: true" in out
        assert "inner order: 6" in out

    def test_invalid_table_is_negative(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order":2,"table":[[0,1],[1,1]]}\n')
        code, _, err = run(capsys, "info", str(path))
        assert code == 1
        assert "not a quandle" in err

    def test_boolean_order_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "bool-order.json"
        path.write_text('{"order":true,"table":[[0]]}\n')
        code, out, err = run(capsys, "info", str(path))
        assert code == 3
        assert out == ""
        assert "order" in err

    def test_order_above_hard_bound_is_usage_error(self, capsys, tmp_path):
        path = write_quandle(tmp_path / "r9.json", dihedral_quandle(9))
        code, out, err = run(capsys, "info", path)
        assert code == 2
        assert out == ""
        assert err == "error: order 9 exceeds the hard bound 8\n"

    # info is the only file verb with a bound: Aut of the trivial quandle of
    # order n is all of S_n.
    @pytest.mark.parametrize("argv", [
        ["validate"], ["iso"], ["decompose"], ["decompose", "--tree"],
    ], ids=" ".join)
    def test_other_file_verbs_have_no_bound(self, capsys, tmp_path, argv):
        path = write_quandle(tmp_path / "r9.json", dihedral_quandle(9))
        files = [path] * (2 if argv == ["iso"] else 1)
        code, out, _ = run(capsys, *argv, *files)
        assert code == 0
        assert out


class TestIso:
    def test_witness(self, capsys, tmp_path, q3):
        shuffled = q3.relabel(Permutation((2, 0, 1)))
        a = write_quandle(tmp_path / "a.json", q3)
        b = write_quandle(tmp_path / "b.json", shuffled)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        sigma = Permutation(tuple(json.loads(out)))
        assert q3.relabel(sigma) == shuffled

    def test_non_isomorphic(self, capsys, tmp_path, t3):
        a = write_quandle(tmp_path / "a.json", t3)
        b = write_quandle(tmp_path / "b.json", trivial_quandle(3))
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 1
        assert out == "non-isomorphic\n"


class TestDecomposeCompose:
    def test_round_trip_bytes_with_scattered_orbits(self, capsys, tmp_path, q3):
        scattered = q3.relabel(Permutation((0, 2, 1)))
        source = write_quandle(tmp_path / "scattered.json", scattered)
        code, decomposed, _ = run(capsys, "decompose", source)
        assert code == 0
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(decomposed)
        code, composed, _ = run(capsys, "compose", str(mesh_path))
        assert code == 0
        assert composed == canonical_json(quandle_to_obj(scattered))

    def test_compose_without_layout_uses_block_order(self, capsys, tmp_path, q3):
        source = write_quandle(tmp_path / "q3.json", q3)
        _, decomposed, _ = run(capsys, "decompose", source)
        obj = json.loads(decomposed)
        del obj["layout"]
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(canonical_json(obj))
        code, composed, _ = run(capsys, "compose", str(mesh_path))
        assert code == 0
        assert composed == canonical_json(quandle_to_obj(q3))

    def test_bad_layout_is_malformed(self, capsys, tmp_path, q3):
        source = write_quandle(tmp_path / "q3.json", q3)
        _, decomposed, _ = run(capsys, "decompose", source)
        obj = json.loads(decomposed)
        obj["layout"] = [[0, 0], [0, 0], [1, 0]]
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(canonical_json(obj))
        code, _, err = run(capsys, "compose", str(mesh_path))
        assert code == 3

    def test_boolean_entries_are_malformed(self, capsys, tmp_path):
        obj = copy.deepcopy(README_MESH)
        obj["homs"][0][1]["assignment"] = [[False], [False]]
        obj["homs"][1][0]["assignment"] = [[True, False]]
        obj["layout"] = [[False, False], [False, True], [True, False]]
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "compose", str(mesh_path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_invalid_mesh_is_negative(self, capsys, tmp_path):
        swap = {"source_order": 2, "target_order": 2,
                "assignment": [[1, 0], [0, 1]]}
        t2 = quandle_to_obj(trivial_quandle(2))
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(
            {"blocks": [t2, t2], "homs": [[None, swap], [swap, None]]}
        ))
        code, _, err = run(capsys, "compose", str(mesh_path))
        assert code == 1

    def test_block_breaking_an_axiom_is_negative(self, capsys, tmp_path):
        # The same table exits 1 under info; a mesh block is no different.
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(
            {"blocks": [{"order": 2, "table": [[0, 0], [0, 1]]}], "homs": [[None]]}
        ))
        code, out, err = run(capsys, "compose", str(mesh_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: not a quandle: ")

    def test_decompose_tree_gives_tree_json(self, capsys, tmp_path, q3):
        source = write_quandle(tmp_path / "q3.json", q3)
        code, out, _ = run(capsys, "decompose", source, "--tree")
        assert code == 0
        assert out == canonical_json(tree_to_obj(decomposition_tree(q3)))
        assert json.loads(out)["connected"] is False


class TestEnumerate:
    def test_connected_structure_default(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--connected")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 1
        assert entries[0]["inner_order"] == 6

    def test_brute_default_lists_all(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 3
        assert sum(e["connected"] for e in entries) == 1

    @pytest.mark.parametrize("order", ["4", "5"])
    def test_connected_rows_agree_across_routes(self, capsys, order):
        # The brute-force rows flagged connected are the coset construction's classes.
        code, out, _ = run(capsys, "enumerate", "--order", order)
        assert code == 0
        brute = [e["quandle"]["table"] for e in json.loads(out) if e["connected"]]
        assert brute
        code, out, _ = run(capsys, "enumerate", "--order", order, "--connected")
        assert code == 0
        assert [e["quandle"]["table"] for e in json.loads(out)] == brute

    # The benchmark's golden stdout digests, copied from perfbench/golden.json.
    @pytest.mark.parametrize("argv, digest", [
        (["enumerate", "--order", "6"],
         "ccebdf8cddf6fa6e8457b299910323127d17e5a20e19a24bdc3c24b6e0535c41"),
        (["enumerate", "--order", "6", "--connected"],
         "7b2f9c4dd3f2340e695ac9f8e58f628165c9fdc54f58eaf55eb553ca6f62c254"),
    ], ids=["brute-6", "connected-6"])
    def test_order_6_stdout_matches_the_benchmark_golden_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCensus:
    def test_check_match(self, capsys):
        code, out, _ = run(capsys, "census", "--order", "3", "--check")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order 3: 3 classes, 1 connected (brute force)"
        assert lines[1].startswith("connected class: ")
        assert lines[2] == "order 3: 1 connected classes (coset construction)"
        assert lines[3] == "census check: MATCH"

    def test_a_failing_check_writes_no_stdout(self, capsys, monkeypatch):
        def boom(order):
            raise ValueError("boom")

        monkeypatch.setattr("quandles.cli.enumerate_connected", boom)
        assert run(capsys, "census", "--order", "3", "--check") == (1, "", "error: boom\n")

    def test_two_runs_identical_bytes(self, capsys):
        _, first, _ = run(capsys, "census", "--order", "4", "--check")
        _, second, _ = run(capsys, "census", "--order", "4", "--check")
        assert first == second


    @pytest.mark.slow
    def test_order_7_check_matches(self, capsys, monkeypatch, census_7):
        # 298 classes and 5 connected: Vendramin (brute force), and Hulpke,
        # Stanovsky and Vojtechovsky (transitive groups of degree 7).
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "7")
        # The brute-force census is the session's, shared with test_oracle.
        monkeypatch.setattr("quandles.cli.enumerate_all", {7: census_7}.__getitem__)
        code, out, _ = run(capsys, "census", "--order", "7", "--check")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order 7: 298 classes, 5 connected (brute force)"
        assert lines[-2] == "order 7: 5 connected classes (coset construction)"
        assert lines[-1] == "census check: MATCH"


class TestUsageAndBounds:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_order(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["census"])
        assert info.value.code == 2

    def test_env_bound_lowers_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "4")
        with pytest.raises(SystemExit) as info:
            main(["census", "--order", "5"])
        assert info.value.code == 2
        code, _, _ = run(capsys, "census", "--order", "4")
        assert code == 0

    def test_env_bound_out_of_range_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANDLE_MAX_ORDER", "9")
        with pytest.raises(SystemExit) as info:
            main(["census", "--order", "3"])
        assert info.value.code == 2

    def test_order_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--order", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("order, env, message", [
        ("0", None, "order must be at least 1"),
        ("7", None, "order 7 exceeds the configured bound 6"),
        ("3", "9", "QUANDLE_MAX_ORDER=9 refused; supported range is 1..8"),
    ])
    @pytest.mark.parametrize("verb", ["census", "enumerate"])
    def test_order_refusals_are_check_orders_messages(
        self, capsys, monkeypatch, verb, order, env, message
    ):
        if env is None:
            monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
        else:
            monkeypatch.setenv("QUANDLE_MAX_ORDER", env)
        with pytest.raises(SystemExit) as info:
            main([verb, "--order", order])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["tree", "q3.json"],
        ["enumerate", "--order", "3", "--jobs", "1"],
        ["census", "--order", "3", "--jobs", "1"],
        ["enumerate", "--order", "3", "--connected", "--no-filters"],
        ["enumerate", "--order", "3", "--connected", "--method", "brute"],
        ["enumerate", "--order", "3", "--connected", "--method", "structure"],
        ["enumerate", "--order", "3", "--out", "census"],
    ])
    def test_removed_verb_and_flag_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


class TestUnreadableInput:
    @pytest.mark.parametrize("verb", ["validate", "info", "iso", "decompose", "compose"])
    def test_non_utf8_is_malformed(self, capsys, tmp_path, verb):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{")
        files = [str(path)] * (2 if verb == "iso" else 1)
        code, out, err = run(capsys, verb, *files)
        assert code == 3
        assert out == ""
        assert "not UTF-8" in err

    @pytest.mark.parametrize("verb, text", [
        ("compose", "[" * 100000),
        ("info", '{"order":' * 100000),
    ], ids=["compose-brackets", "info-objects"])
    def test_deep_nesting_is_malformed(self, capsys, tmp_path, verb, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, verb, str(path))
        assert code == 3
        assert out == ""
        assert "nested too deeply" in err

    # Grid tokens str.isdigit passes and int() rejects, and ints too long for int().
    @pytest.mark.parametrize("verb", ["validate", "info", "decompose"])
    @pytest.mark.parametrize("data", [
        b"--1\n",
        "1\n\u00b2\n".encode(),
        b"1\n" + b"9" * 5000 + b"\n",
        b'{"order":1,"table":[[' + b"9" * 5000 + b"]]}",
    ], ids=["double-minus", "superscript-two", "long-grid-int", "long-json-int"])
    def test_ints_that_int_rejects_are_malformed(self, capsys, tmp_path, verb, data):
        path = tmp_path / "q.txt"
        path.write_bytes(data)
        code, out, _ = run(capsys, verb, str(path))
        assert code == 3
        assert out == ""


def test_module_entry_point(tmp_path, t3):
    path = write_quandle(tmp_path / "t3.json", t3)
    proc = subprocess.run(
        [sys.executable, "-m", "quandles.cli", "validate", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "valid quandle of order 3\n"


def test_postconditions_survive_optimize():
    # A reassembly that no longer matches must raise even under python -O.
    script = (
        "from quandles import decompose, trivial_quandle\n"
        "from quandles.decompose import Decomposition\n"
        "Decomposition.reassemble = lambda self: None\n"
        "decompose(trivial_quandle(2))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "PostconditionError: decomposition does not reassemble" in proc.stderr


def test_closed_stdout_is_usage_error_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "quandles.cli", "census", "--order", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert b"Traceback" not in err


# Runs one CLI call in a child of its own, so RUSAGE_CHILDREN measures that child alone.
_PEAK_RSS_SCRIPT = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "quandles.cli", *sys.argv[1:]],
                      capture_output=True, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak]))
"""


def _run_measured(tmp_path, verb, n, op, *options):
    """(exit code, stdout, stderr, peak RSS in MB) of verb on the table x > y = op(x, y, n)."""
    path = tmp_path / "table.txt"
    rows = (" ".join(str(op(x, y, n)) for y in range(n)) for x in range(n))
    path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
    files = [str(path)] * (2 if verb == "iso" else 1)
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, verb, *files, *options],
                          capture_output=True, text=True, check=True)
    code, out, err, peak = json.loads(proc.stdout)
    # ru_maxrss counts kilobytes on Linux and bytes on macOS.
    return code, out, err, peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _sum(x, y, n):
    # Breaks idempotence at every x > 0 and distributivity at most triples;
    # listing every violation took 562 MB.
    return (x + y) % n


@pytest.mark.parametrize("verb", ["info", "iso"])
@pytest.mark.parametrize("n, op, violation", [
    (140, _sum, "1 acted on by itself moves away from itself"),
    # Idempotent and invertible (3 is prime to 130), but not distributive.
    (131, lambda x, y, n: (y + (x - y) ** 3) % n, "((0 > 1) > 2) != ((0 > 2) > (1 > 2))"),
], ids=["sum-140", "cube-131"])
def test_an_invalid_table_is_refused_at_its_first_violation(tmp_path, verb, n, op, violation):
    code, out, err, peak_mb = _run_measured(tmp_path, verb, n, op)
    assert (code, out) == (1, "")
    assert err == f"error: not a quandle: {violation}\n"
    assert peak_mb < 100


def test_validate_lists_100_violations_of_an_invalid_table_and_counts_the_rest(tmp_path):
    # Holding every line of this listing in memory took 803 MB.
    code, out, err, peak_mb = _run_measured(tmp_path, "validate", 140, _sum)
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 101)
    assert lines[0] == "violation: 1 acted on by itself moves away from itself"
    assert lines[-1] == "... and 2724439 more violations"
    assert peak_mb < 100


_PAIRS_OF_9 = list(itertools.combinations(range(9), 2))


def _transposition(x, y, n):
    # Point x is the transposition of the pair _PAIRS_OF_9[x]; x > y swaps
    # y's two points inside x.
    swap = dict(zip(_PAIRS_OF_9[y], reversed(_PAIRS_OF_9[y])))
    return _PAIRS_OF_9.index(tuple(sorted(swap.get(p, p) for p in _PAIRS_OF_9[x])))


@pytest.mark.parametrize("options", [(), ("--tree",)], ids=["decompose", "tree"])
def test_decompose_builds_no_inner_group(tmp_path, options):
    # The order-36 transposition quandle of S_9 is connected and its inner
    # group is S_9: building that group took 508 MB.
    code, out, err, peak_mb = _run_measured(tmp_path, "decompose", 36, _transposition, *options)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["connected"] if options else len(obj["blocks"]) == 1
    assert peak_mb < 100


def test_info_refuses_an_order_above_8_before_it_builds_a_group(tmp_path):
    # The same quandle: building its inner group before the refusal took
    # 6.1 s and 508 MB.
    code, out, err, peak_mb = _run_measured(tmp_path, "info", 36, _transposition)
    assert (code, out, err) == (2, "", "error: order 36 exceeds the hard bound 8\n")
    assert peak_mb < 100


def _json_paths(obj, prefix=()):
    """Every position in a JSON value, the root included, as key/index tuples."""
    yield prefix
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for index, item in enumerate(obj):
            yield from _json_paths(item, prefix + (index,))


_MESH_KEYS = ["order", "table", "blocks", "homs", "layout", "assignment",
              "source_order", "target_order"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_MESH_KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def _replaced(obj, path, value):
    """A deep copy of obj with the value at path (root included) replaced."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


class TestComposeFuzz:
    @pytest.mark.parametrize("path", [
        path for path in _json_paths(README_MESH)
        if type(_at(README_MESH, path)) is int and _at(README_MESH, path) in (0, 1)
    ], ids=lambda path: "-".join(map(str, path)))
    def test_boolean_for_any_int_is_malformed(self, capsys, tmp_path, path):
        obj = _replaced(README_MESH, path, bool(_at(README_MESH, path)))
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "compose", str(mesh_path))
        assert code == 3
        assert out == ""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(list(_json_paths(README_MESH))), value=_json_values)
    def test_reader_never_crashes(self, capsys, tmp_path, path, value):
        obj = _replaced(README_MESH, path, value)
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "compose", str(mesh_path))
        assert code in (0, 1, 3)
        if code != 0:
            assert out == ""


_GRID_TOKENS = (
    st.integers(min_value=-1, max_value=4).map(str)
    | st.sampled_from(["--1", "\u00b2", "\uff11", "1_0", "+1", "0x1", "1.0", "9" * 5000])
    | st.text(max_size=3)
)
_grid_texts = st.one_of(
    st.lists(_GRID_TOKENS, max_size=12),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.lists(_GRID_TOKENS, min_size=k * k, max_size=k * k).map(
            lambda tokens: [str(k)] + tokens)),
).map(" ".join)
_small = st.integers(min_value=-1, max_value=4)
_quandle_objs = st.fixed_dictionaries({
    "order": _small | _json_values,
    "table": st.lists(st.lists(_small | _json_values, max_size=4), max_size=4) | _json_values,
})
_file_bytes = st.one_of(
    st.binary(max_size=64),
    _grid_texts.map(str.encode),
    (_json_values | _quandle_objs).map(lambda obj: json.dumps(obj).encode()),
)


class TestFileVerbFuzz:
    """validate, info, iso and decompose on arbitrary bytes, grids and JSON.

    Exit 2 and 3 leave stdout empty.  Exit 1 is a well-formed table with a
    negative answer: axiom violations listed by validate, "non-isomorphic"
    from iso, or "not a quandle" on stderr with nothing on stdout.
    """

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(verb=st.sampled_from(["validate", "info", "iso", "decompose"]),
           first=_file_bytes, second=_file_bytes)
    def test_main_never_crashes(self, capsys, tmp_path, verb, first, second):
        paths = [tmp_path / "first", tmp_path / "second"]
        paths[0].write_bytes(first)
        paths[1].write_bytes(second)
        files = [str(p) for p in paths[: 2 if verb == "iso" else 1]]
        code, out, err = run(capsys, verb, *files)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert out == ""
        if code == 1 and err:
            assert out == ""
            assert err.startswith("error: not a quandle: ")
        elif code == 1:
            negative = {"validate": "violation: ", "iso": "non-isomorphic\n"}[verb]
            assert out.startswith(negative)
