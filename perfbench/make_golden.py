"""Regenerate golden.json, the references the benchmark checks outputs against.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are trusted; golden.json was written
from the first commit that carried the benchmark.  It stores the canonical
class tables of orders 1-6, their connectivity and automorphism-group
order (both computed by reference.py, not by the package), and the SHA-256 of
the standard output of the two CLI workloads.  run.py checks the tables
against the published class counts every time it loads them.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import quandles  # noqa: E402
import quandles.cli  # noqa: E402
import reference  # noqa: E402

from workloads import CLI_ARGV  # noqa: E402


def main() -> None:
    classes = {}
    for n in range(1, 7):
        census = quandles.enumerate_all(n)
        classes[str(n)] = [
            {
                "table": [list(row) for row in q.table],
                "connected": reference.orbit_count(q.table) == 1,
                "aut_order": len(reference.automorphisms(q.table)),
            }
            for q in census.tables
        ]
    digests = {}
    for name, argv in CLI_ARGV.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = quandles.cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    golden = {"cli_stdout_sha256": digests, "classes": classes}
    (HERE / "golden.json").write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
