"""Command-line interface.

Exit codes separate three failure kinds: 2 for usage errors (bad flags,
bounds exceeded), 3 for input files that do not parse into the expected
shape, and 1 for well-formed inputs whose mathematical answer is negative
(axiom violations, non-isomorphic pairs, census mismatches).  All output is
deterministic: equal inputs produce equal bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import formats
from .config import DEFAULT_MAX_ORDER, BoundError, check_order
from .decompose import Decomposition, decompose, decomposition_tree, semidisjoint_union
from .enumeration import enumerate_connected
from .oracle import enumerate_all
from .quandle import Quandle, axiom_violations

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


def _read_text(path: str) -> str:
    """File contents as UTF-8 text; unreadable or undecodable files are FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise formats.FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_table(path: str) -> list[list[int]]:
    return formats.parse_quandle_text(_read_text(path))


def _read_quandle(path: str) -> Quandle:
    """Parse and axiom-check; ValueError (not FormatError) means invalid math."""
    table = _read_table(path)
    return Quandle(table)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    table = _read_table(args.file)
    violations = axiom_violations(table)
    if not violations:
        _emit(f"valid quandle of order {len(table)}\n")
        return EXIT_OK
    for v in violations:
        _emit(f"violation: {v.describe()}\n")
    return EXIT_NEGATIVE


def _cmd_info(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    q = _read_quandle(args.file)
    orbits = " ".join("{" + ",".join(map(str, orbit)) + "}" for orbit in q.orbits())
    # Every field is computed before anything is written, so a refused
    # bound leaves stdout empty.
    fields = [
        ("order", q.order),
        ("orbits", orbits),
        ("connected", "true" if q.is_connected() else "false"),
        ("inner order", len(q.inner_group())),
        ("automorphism order", len(q.automorphism_group())),
    ]
    _emit("".join(f"{name}: {value}\n" for name, value in fields))
    return EXIT_OK


def _cmd_iso(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    a = _read_quandle(args.first)
    b = _read_quandle(args.second)
    witness = a.find_isomorphism(b)
    if witness is None:
        _emit("non-isomorphic\n")
        return EXIT_NEGATIVE
    _emit(formats.canonical_json(formats.perm_to_obj(witness)))
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    q = _read_quandle(args.file)
    if args.tree:
        obj = formats.tree_to_obj(decomposition_tree(q))
    else:
        obj = formats.decomposition_to_obj(decompose(q))
    _emit(formats.canonical_json(obj))
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    obj = formats.parse_json(_read_text(args.file))
    mesh = formats.mesh_from_obj(obj)
    if obj.get("layout") is None:
        q = semidisjoint_union(mesh)
    else:
        layout = formats.layout_from_obj(obj["layout"], mesh.order)
        try:
            dec = Decomposition(mesh, layout)
        except ValueError as exc:
            raise formats.FormatError(str(exc)) from None
        q = dec.reassemble()
    _emit(formats.canonical_json(formats.quandle_to_obj(q)))
    return EXIT_OK


def _entries_for_enumerate(args: argparse.Namespace) -> list[dict]:
    if args.method == "structure":
        entries = enumerate_connected(args.order)
        return [formats.census_entry_to_obj(e) for e in entries]
    census = enumerate_all(args.order)
    out = []
    for q, flag in zip(census.tables, census.connected_flags):
        if args.connected and not flag:
            continue
        out.append({"quandle": formats.quandle_to_obj(q), "connected": flag})
    return out


def _cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method is None:
        args.method = "structure" if args.connected else "brute"
    if args.method == "structure" and not args.connected:
        parser.error("--method structure requires --connected")
    _check_bound(args.order, parser)
    entries = _entries_for_enumerate(args)
    payload = formats.canonical_json(entries)
    if args.out:
        target = Path(args.out) / f"order-{args.order}.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(payload)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {target}: {exc}\n")
            return EXIT_USAGE
        _emit(f"wrote {target} ({len(entries)} entries)\n")
    else:
        _emit(payload)
    return EXIT_OK


def _cmd_census(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_bound(args.order, parser)
    census = enumerate_all(args.order)
    connected = census.connected()
    _emit(
        f"order {args.order}: {len(census)} classes, "
        f"{len(connected)} connected (brute force)\n"
    )
    for q in connected:
        _emit("connected class: " + formats.canonical_json(formats.quandle_to_obj(q)))
    if not args.check:
        return EXIT_OK
    entries = enumerate_connected(args.order)
    _emit(f"order {args.order}: {len(entries)} connected classes (coset construction)\n")
    brute = [q.table for q in connected]
    structural = [e.quandle.table for e in entries]
    if brute == structural:
        _emit("census check: MATCH\n")
        return EXIT_OK
    _emit("census check: MISMATCH\n")
    return EXIT_NEGATIVE


def _check_bound(order: int, parser: argparse.ArgumentParser) -> None:
    try:
        check_order(order, DEFAULT_MAX_ORDER)
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Finite quandles: validation, decomposition, enumeration.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check the quandle axioms on a table file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("info", help="order, orbits, connectedness, group sizes")
    p.add_argument("file")
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("iso", help="find an isomorphism between two quandles")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_iso)

    p = sub.add_parser("decompose", help="orbit decomposition as a mesh")
    p.add_argument("file")
    p.add_argument("--tree", action="store_true",
                   help="recurse until every leaf is connected")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("compose", help="build the quandle a mesh file describes")
    p.add_argument("file")
    p.set_defaults(run=_cmd_compose)

    p = sub.add_parser("enumerate", help="enumerate quandles of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--connected", action="store_true",
                   help="restrict to connected quandles")
    p.add_argument("--method", choices=["structure", "brute"],
                   help="structure (default with --connected) or brute force")
    p.add_argument("--out", help="directory for order-N.json instead of stdout")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("census", help="brute-force census, optionally cross-checked")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="compare against the coset-construction enumeration")
    p.set_defaults(run=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout; silence the flush at exit ("Note on
        # SIGPIPE" in the Python signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE
    except formats.FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED
    except BoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
