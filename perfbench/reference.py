"""Golden data and plain-Python quandle arithmetic for checking outputs.

Nothing here imports `quandles`: a defect in the package cannot hide itself
by also breaking the reference.  Tables are tuples of row tuples with
``table[x][y] == x > y``; a permutation is the tuple of images of 0..n-1.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Isomorphism classes of quandles of orders 1..6, and how many of them are
# connected (Vendramin, "On the classification of quandles of low order",
# arXiv:1105.5341).
PUBLISHED_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
PUBLISHED_CONNECTED = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 2}


def load_golden() -> dict:
    """golden.json with tables as tuples and orders as int keys."""
    raw = json.loads(GOLDEN_PATH.read_text())
    classes = {
        int(n): [
            {
                "table": tuple(tuple(row) for row in entry["table"]),
                "connected": entry["connected"],
                "aut_order": entry["aut_order"],
            }
            for entry in entries
        ]
        for n, entries in raw["classes"].items()
    }
    return {"cli_stdout_sha256": raw["cli_stdout_sha256"], "classes": classes}


def golden_problems(golden: dict) -> list[str]:
    """Ways the stored class tables disagree with the published counts or the axioms."""
    problems = []
    classes = golden["classes"]
    if sorted(classes) != sorted(PUBLISHED_CLASSES):
        return [f"golden orders {sorted(classes)} != {sorted(PUBLISHED_CLASSES)}"]
    for n, entries in classes.items():
        tables = [e["table"] for e in entries]
        connected = sum(1 for e in entries if e["connected"])
        if len(tables) != PUBLISHED_CLASSES[n] or connected != PUBLISHED_CONNECTED[n]:
            problems.append(
                f"order {n}: {len(tables)} classes, {connected} connected; published "
                f"{PUBLISHED_CLASSES[n]}, {PUBLISHED_CONNECTED[n]}"
            )
        if len(set(tables)) != len(tables):
            problems.append(f"order {n}: repeated tables")
        for e in entries:
            t = e["table"]
            if len(t) != n or not is_quandle(t) or (orbit_count(t) == 1) != e["connected"]:
                problems.append(f"order {n}: bad entry {t}")
    return problems


def is_quandle(table) -> bool:
    """Idempotence, right invertibility and self-distributivity, cell by cell."""
    n = len(table)
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
        return False
    if any(table[x][x] != x for x in range(n)):
        return False
    if any(len({table[x][y] for x in range(n)}) != n for y in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[table[a][c]][table[b][c]]
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def orbit_count(table) -> int:
    """Orbits of the inner group: components of the graph x -- x > y."""
    n = len(table)
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for x in range(n):
        for y in range(n):
            a, b = find(x), find(table[x][y])
            if a != b:
                root[max(a, b)] = min(a, b)
    return sum(1 for x in range(n) if find(x) == x)


def relabel(table, sigma):
    """The table with x renamed to sigma[x]: new[s(x)][s(y)] = s(old[x][y])."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return tuple(tuple(row) for row in new)


def is_automorphism(table, sigma) -> bool:
    n = len(table)
    return all(
        sigma[table[x][y]] == table[sigma[x]][sigma[y]] for x in range(n) for y in range(n)
    )


def automorphisms(table) -> list[tuple[int, ...]]:
    return [s for s in itertools.permutations(range(len(table))) if is_automorphism(table, s)]


def composed_table(block_tables, assignments):
    """Table on the concatenated blocks of a mesh.

    ``assignments[i][j][y]`` is the permutation (of block j's points) by which
    point y of block i acts on block j; diagonal entries are ignored and the
    block's own table is used, as the canonical hom prescribes.
    """
    offsets = [0]
    for t in block_tables:
        offsets.append(offsets[-1] + len(t))
    n = offsets[-1]
    table = [[0] * n for _ in range(n)]
    for j, tj in enumerate(block_tables):
        for i, ti in enumerate(block_tables):
            for x in range(len(tj)):
                for y in range(len(ti)):
                    local = tj[x][y] if i == j else assignments[i][j][y][x]
                    table[offsets[j] + x][offsets[i] + y] = offsets[j] + local
    return tuple(tuple(row) for row in table)
