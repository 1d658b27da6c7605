"""Command-line interface.

Exit codes separate three failure kinds: 2 for usage errors (bad flags,
bounds exceeded), 3 for input files that do not parse into the expected
shape, and 1 for well-formed inputs whose mathematical answer is negative
(axiom violations, non-isomorphic pairs, census mismatches).  All output is
deterministic: equal inputs produce equal bytes.

Each verb handler takes the parsed arguments and returns (exit code, stdout
text); no handler writes a file or stderr.  main refuses a bad --order before
any handler runs and writes the returned text once, so a run that ends in an
error writes nothing to stdout.
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
from .quandle import Quandle, _violation_listing

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3

# validate lists this many violations, then counts the rest; a table of
# order n can have n^3 of them.
LISTED_VIOLATIONS = 100


def _read_text(path: str) -> str:
    """File contents as UTF-8 text; unreadable or undecodable files are FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise formats.FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_quandle(path: str) -> Quandle:
    """Parse and axiom-check; ValueError (not FormatError) means invalid math."""
    return Quandle(formats.parse_quandle_text(_read_text(path)))


def _cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    table = formats.parse_quandle_text(_read_text(args.file))
    listed, count = _violation_listing(table, LISTED_VIOLATIONS)
    if not listed:
        return EXIT_OK, f"valid quandle of order {len(table)}\n"
    text = "".join(f"violation: {v.describe()}\n" for v in listed)
    more = count - len(listed)
    if more:
        text += f"... and {more} more violations\n"
    return EXIT_NEGATIVE, text


def _cmd_info(args: argparse.Namespace) -> tuple[int, str]:
    q = _read_quandle(args.file)
    check_order(q.order)  # refused before any group is built
    orbits = " ".join("{" + ",".join(map(str, orbit)) + "}" for orbit in q.orbits())
    fields = [
        ("order", q.order),
        ("orbits", orbits),
        ("connected", "true" if q.is_connected() else "false"),
        ("inner order", len(q.inner_group())),
        ("automorphism order", len(q.automorphism_group())),
    ]
    return EXIT_OK, "".join(f"{name}: {value}\n" for name, value in fields)


def _cmd_iso(args: argparse.Namespace) -> tuple[int, str]:
    witness = _read_quandle(args.first).find_isomorphism(_read_quandle(args.second))
    if witness is None:
        return EXIT_NEGATIVE, "non-isomorphic\n"
    return EXIT_OK, formats.canonical_json(formats.perm_to_obj(witness))


def _cmd_decompose(args: argparse.Namespace) -> tuple[int, str]:
    q = _read_quandle(args.file)
    obj = (formats.tree_to_obj(decomposition_tree(q)) if args.tree
           else formats.decomposition_to_obj(decompose(q)))
    return EXIT_OK, formats.canonical_json(obj)


def _cmd_compose(args: argparse.Namespace) -> tuple[int, str]:
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
    return EXIT_OK, formats.canonical_json(formats.quandle_to_obj(q))


def _entries(args: argparse.Namespace) -> list[dict]:
    """enumerate's rows; a brute-force census is freed on return, before the JSON is built."""
    if args.connected:
        return [formats.census_entry_to_obj(e) for e in enumerate_connected(args.order)]
    census = enumerate_all(args.order)
    return [{"quandle": formats.quandle_to_obj(q), "connected": flag}
            for q, flag in zip(census.tables, census.connected_flags)]


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    return EXIT_OK, formats.canonical_json(_entries(args))


def _cmd_census(args: argparse.Namespace) -> tuple[int, str]:
    census = enumerate_all(args.order)
    connected = census.connected()
    text = f"order {args.order}: {len(census)} classes, {len(connected)} connected (brute force)\n"
    text += "".join("connected class: " + formats.canonical_json(formats.quandle_to_obj(q))
                    for q in connected)
    if not args.check:
        return EXIT_OK, text
    entries = enumerate_connected(args.order)
    match = [q.table for q in connected] == [e.quandle.table for e in entries]
    text += f"order {args.order}: {len(entries)} connected classes (coset construction)\n"
    text += f"census check: {'MATCH' if match else 'MISMATCH'}\n"
    return (EXIT_OK if match else EXIT_NEGATIVE), text


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
                   help="connected quandles by the coset construction")
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
    if "order" in args:
        try:
            check_order(args.order, DEFAULT_MAX_ORDER)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        code, text = args.run(args)
        sys.stdout.write(text)
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
