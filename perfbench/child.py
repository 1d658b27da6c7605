"""One pass of one workload in a fresh interpreter; run.py starts one per pass.

    python3 perfbench/child.py WORKLOAD SEED TRACE [SPANS_PATH]

The last line of standard output is a JSON object: setup_s (importing the
package plus generating the inputs) and pass_s (the pass), both in seconds
at the reference host speed (see speed.py); wall_s, the pass's raw wall
seconds, and speed, the host speed during it; peak_rss_mb (peak resident
memory of this process at the end of the pass), attempted and failed
operations, the first few problems, and with TRACE=1 the per-layer metrics
of the traced pass (spans written to SPANS_PATH when given).  Per-layer
seconds are scaled by the pass's host speed too.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import reference
from speed import SpeedProbe
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
# Probe intervals in CPU seconds: set-up lasts only a few tenths of a
# second, so it is probed more often; the probe costs about 60 us a call.
SETUP_PROBE_S = 0.002
PASS_PROBE_S = 0.01


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (span field, span name).  self_s is the time inside
# the span minus the time inside its child spans, summed over calls; count
# is what the wrap point measured on the results (see workloads.wrap_points).
PER_LAYER = {
    "oracle.search_s": ("self_s", "oracle.search"),
    "oracle.labeled_tables": ("count", "oracle.search"),
    "oracle.census_s": ("self_s", "oracle.census"),
    "quandle.validate_s": ("self_s", "quandle.validate"),
    "quandle.validate_calls": ("calls", "quandle.validate"),
    "quandle.canonical_s": ("self_s", "quandle.canonical"),
    "quandle.canonical_calls": ("calls", "quandle.canonical"),
    "quandle.relabel_s": ("self_s", "quandle.relabel"),
    "quandle.automorphism_s": ("self_s", "quandle.automorphism"),
    "quandle.find_isomorphism_s": ("self_s", "quandle.find_isomorphism"),
    "quandle.inner_group_s": ("self_s", "quandle.inner_group"),
    "perm.subgroup_search_s": ("self_s", "perm.subgroup_search"),
    "perm.transitive_classes": ("count", "perm.subgroup_search"),
    "perm.generate_group_s": ("self_s", "perm.generate_group"),
    "perm.generate_group_calls": ("calls", "perm.generate_group"),
    "enumeration.enumerate_s": ("self_s", "enumeration.enumerate"),
    "enumeration.seeds": ("calls", "enumeration.seed"),
    "enumeration.seed_s": ("self_s", "enumeration.seed"),
    "enumeration.generation_failures": ("count", "enumeration.check_generation"),
    "enumeration.check_generation_s": ("self_s", "enumeration.check_generation"),
    "enumeration.coset_build_s": ("self_s", "enumeration.coset_build"),
    "decompose.decompose_s": ("self_s", "decompose.decompose"),
    "decompose.validate_mesh_s": ("self_s", "decompose.validate_mesh"),
    "decompose.validate_mesh_calls": ("calls", "decompose.validate_mesh"),
    "decompose.is_valid_mesh_s": ("self_s", "decompose.is_valid_mesh"),
    "decompose.compose_s": ("self_s", "decompose.compose"),
    "decompose.tree_s": ("self_s", "decompose.tree"),
    "augment.check_hom_s": ("self_s", "augment.check_hom"),
    "augment.check_hom_calls": ("calls", "augment.check_hom"),
    "formats.write_s": ("self_s", "formats.write"),
    "formats.read_s": ("self_s", "formats.read"),
    "cli.main_s": ("self_s", "cli.main"),
}
UNITS = {"self_s": "s", "calls": "count", "count": "count"}


def layer_metrics(tracer: Tracer, probe: SpeedProbe, stdout_bytes: int) -> dict[str, list]:
    """Per-layer metric -> [value, unit] for one traced pass."""
    stats = tracer.summary()
    speed = probe.speed()

    def field(span: str, key: str) -> float:
        value = stats.get(span, {}).get(key, 0)
        return value * speed if key == "self_s" else value

    out = {name: [field(span, key), UNITS[key]] for name, (key, span) in PER_LAYER.items()}
    canonical_in_census = tracer.calls_under("quandle.canonical", "oracle.census")
    out["oracle.classes_per_canonical"] = [
        _ratio(field("oracle.census", "count"), canonical_in_census), "ratio"]
    out["enumeration.seed_yield"] = [
        _ratio(field("enumeration.enumerate", "count"), field("enumeration.seed", "calls")), "ratio"]
    out["cli.stdout_bytes"] = [stdout_bytes, "bytes"]
    out["trace.pass_s"] = [probe.scaled_s(), "s"]
    # The self times of all spans add up to this share of the traced pass.
    out["trace.coverage"] = [_ratio(tracer.top_level_seconds(), probe.wall_s), "ratio"]
    return out


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    golden = reference.load_golden()

    with SpeedProbe(SETUP_PROBE_S) as setup_probe:
        sys.path.insert(0, str(SRC))
        import quandles
        import workloads

        if Path(quandles.__file__).resolve().parent != SRC / "quandles":
            raise SystemExit(f"imported quandles from {quandles.__file__}, not from {SRC}")
        setup, run, check = workloads.WORKLOADS[name]
        inputs = setup(name, seed, golden)

    tracer = Tracer(workloads.wrap_points()) if trace else None
    if tracer:
        tracer.install()
    try:
        with SpeedProbe(PASS_PROBE_S) as probe:
            outputs = run(inputs)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, problems = check(name, inputs, outputs, golden)
    result = {
        "setup_s": setup_probe.scaled_s(),
        "pass_s": probe.scaled_s(),
        "wall_s": probe.net_s(),
        "speed": probe.speed(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        recorded = {span[0] for span in tracer.spans}
        silent = [s for s in workloads.EXPECTED_SPANS[name] if s not in recorded]
        attempted += 1
        if silent:
            problems.append(f"spans with no calls on {name}: {', '.join(silent)}")
        stdout_bytes = len(outputs[1].encode()) if name in workloads.CLI_ARGV else 0
        result["layers"] = layer_metrics(tracer, probe, stdout_bytes)
        if spans_path:
            tracer.write(spans_path)
    result.update(attempted=attempted, failed=len(problems), problems=problems[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
