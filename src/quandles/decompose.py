"""Orbit decomposition and the semidisjoint-union composition of quandles.

A mesh is a list of block quandles plus a matrix of generator-assignment
homs, homs[i][j] taking generators of block i's augmentation group to
automorphisms of block j.  The diagonal is derived: Mesh fills an omitted
diagonal entry with the block's canonical hom (each generator to its own
symmetry) and rejects any other.  A valid mesh composes to a quandle on the
concatenated blocks:

    x > y  =  x acted on by homs[i][j](|y|),   for x in block j, y in block i.

Validity is per-entry hom validity plus two cross-block conditions, which
are one interchange law on a block i: for y in another block j, acting by
y and then by z equals acting by z and then by y > z.  Condition 1 is the
law for z in block i, Condition 2 for z in a third block; all Condition 1
triples are scanned first.  Together they are exactly what the composed
table needs to satisfy the quandle axioms.  A Mesh checks them once, when
it is built, and semidisjoint_union's Quandle check of the composed table
asserts that equivalence.  In the other direction, decompose splits any
quandle into its inner orbits and reads the homs off the symmetry columns;
composing the result reproduces the input table bit for bit.

Each result is built and checked once and kept: the decomposition of a
quandle and each block's canonical hom in the cache its table shares among
live quandles, and the reassembled quandle in its Decomposition.  So
decompose's postcondition builds the quandle that DecompositionTree.replay
returns, and a block that recurs across trees is decomposed once while a
quandle with its table lives.  Every Mesh still runs all its checks, but an
off-diagonal hom already proved for its source table passes at once (see
augment).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .augment import GammaHom, canonical_hom, check_gamma_hom, trivial_hom
from .config import check_int, check_type, ensure
from .perm import Permutation
from .quandle import Quandle

__all__ = [
    "Mesh",
    "Decomposition",
    "DecompositionTree",
    "MeshError",
    "DiagonalNotCanonicalError",
    "Condition1ViolationError",
    "Condition2ViolationError",
    "validate_mesh",
    "is_valid_mesh",
    "semidisjoint_union",
    "disjoint_union",
    "decompose",
    "decomposition_tree",
]


class MeshError(ValueError):
    """The blocks-and-homs data does not compose to a quandle."""


class DiagonalNotCanonicalError(MeshError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal hom {i} must send each generator to its own symmetry")


class Condition1ViolationError(MeshError):
    """Cross-block action fails to commute with the in-block operation."""

    def __init__(self, i: int, j: int, x: int, y: int, z: int):
        self.witness = (i, j, x, y, z)
        self.i, self.j, self.x, self.y, self.z = i, j, x, y, z
        super().__init__(
            f"blocks ({i}, {j}): acting on {x} by outside point {y} does not "
            f"distribute over {x} > {z}"
        )


class Condition2ViolationError(MeshError):
    """Actions from two different outside blocks fail to braid correctly."""

    def __init__(self, i: int, j: int, k: int, x: int, y: int, z: int):
        self.witness = (i, j, k, x, y, z)
        self.i, self.j, self.k, self.x, self.y, self.z = i, j, k, x, y, z
        super().__init__(
            f"blocks ({i}, {j}, {k}): actions of outside points {y} and {z} "
            f"on {x} do not interchange"
        )


@dataclass(frozen=True)
class Mesh:
    """Blocks plus hom matrix, checked on construction like Quandle.

    homs[i][j] takes generators of blocks[i] to automorphisms of blocks[j].
    A None diagonal entry is filled with canonical_hom of the block, the one
    object its table's cache keeps, and a given one must equal it; no
    off-diagonal entry may be None.  The first failure is raised,
    witnesses least in scan order: the blocks' types (TypeError), shape,
    each entry's type (TypeError), source and target, the diagonals, each
    off-diagonal hom, then the interchange law, all Condition 1 triples
    before any Condition 2 triple.
    """

    blocks: tuple[Quandle, ...]
    homs: tuple[tuple[GammaHom, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        for b in blocks:
            check_type(b, Quandle)
        if not blocks:
            raise ValueError("a mesh needs at least one block")
        k = len(blocks)
        if len(self.homs) != k or any(len(row) != k for row in self.homs):
            raise ValueError(f"hom matrix must be {k}x{k}")
        homs = tuple(
            tuple(canonical_hom(b) if h is None and i == j else h for j, h in enumerate(row))
            for i, (b, row) in enumerate(zip(blocks, self.homs))
        )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "homs", homs)

        for i, j in itertools.product(range(k), repeat=2):
            entry = homs[i][j]
            if entry is None:
                raise ValueError(f"off-diagonal hom ({i}, {j}) may not be omitted")
            check_type(entry, GammaHom)
            if entry.source != blocks[i]:
                raise ValueError(f"hom ({i}, {j}) source is not block {i}")
            if entry.target != blocks[j]:
                raise ValueError(f"hom ({i}, {j}) target is not block {j}")

        for i, b in enumerate(blocks):
            if homs[i][i] != canonical_hom(b):
                raise DiagonalNotCanonicalError(i)
        # The diagonal is canonical_hom's, proved once per table.
        for i, j in itertools.permutations(range(k), 2):
            check_gamma_hom(homs[i][j])

        # act[m][i][z] is how point z of block m acts on block i.
        act = [[tuple(p.images for p in h.assignment) for h in row] for row in homs]
        # Both conditions are one interchange law on block i: for x in block
        # i, y in block j and z in block m, acting by y then z equals acting
        # by z, then by y > z.  m == i is Condition 1 and a third block m is
        # Condition 2; every Condition 1 triple is scanned first.
        orders = [b.order for b in blocks]
        condition_1 = ((i, j, i) for i, j in itertools.permutations(range(k), 2))
        for i, j, m in itertools.chain(condition_1, itertools.permutations(range(k), 3)):
            f, g, h = act[j][i], act[m][i], act[m][j]
            for x, y, z in itertools.product(range(orders[i]), range(orders[j]), range(orders[m])):
                if g[z][f[y][x]] != f[h[z][y]][g[z][x]]:
                    if m == i:
                        raise Condition1ViolationError(i, j, x, y, z)
                    raise Condition2ViolationError(i, j, m, x, y, z)

    @property
    def order(self) -> int:
        return sum(b.order for b in self.blocks)


def validate_mesh(
    blocks: Sequence[Quandle],
    homs: Sequence[Sequence[GammaHom | None]],
) -> Mesh:
    """The Mesh of these blocks and homs; it fills None diagonal entries."""
    return Mesh(blocks, homs)


def is_valid_mesh(blocks: Sequence[Quandle], homs: Sequence[Sequence[GammaHom | None]]) -> bool:
    try:
        validate_mesh(blocks, homs)
    except ValueError:
        return False
    return True


def semidisjoint_union(mesh: Mesh) -> Quandle:
    """Compose a mesh into the quandle on its concatenated blocks.

    Block i occupies global points offset_i .. offset_i + order_i - 1.  The
    mesh was checked when it was built; the composed table is run through
    full quandle validation, which a valid mesh always passes.
    """
    check_type(mesh, Mesh)
    return Quandle(_composed_table(mesh.blocks, mesh.homs))


def _composed_table(
    blocks: Sequence[Quandle], homs: Sequence[Sequence[GammaHom]], layout: Sequence | None = None
) -> tuple[tuple[int, ...], ...]:
    """The raw composed table; does not require the mesh to be valid.

    layout[g] = (block, local) places point g; the default is block order.
    """
    layout = _block_order(blocks) if layout is None else layout
    where = {pair: g for g, pair in enumerate(layout)}
    return tuple(
        tuple(where[j, homs[i][j].assignment[y].images[x]] for i, y in layout) for j, x in layout
    )


def _block_order(blocks: Sequence[Quandle]) -> tuple[tuple[int, int], ...]:
    """The layout that places block 0's points first, then block 1's, ..."""
    return tuple((i, x) for i, block in enumerate(blocks) for x in range(block.order))


def disjoint_union(blocks: Sequence[Quandle]) -> Quandle:
    """Semidisjoint union with all off-diagonal homs trivial."""
    blocks = tuple(blocks)
    homs = [
        [None if i == j else trivial_hom(blocks[i], blocks[j]) for j in range(len(blocks))]
        for i in range(len(blocks))
    ]
    return semidisjoint_union(validate_mesh(blocks, homs))


@dataclass(frozen=True)
class Decomposition:
    """A quandle expressed as the semidisjoint union of its inner orbits.

    layout[g] = (block index, local index) places each original point; the
    blocks are the orbits in order of least element, each sorted.  A mesh
    that is not a Mesh, or a layout index that is not an int, raises
    TypeError, and a layout that does not place every block point exactly
    once raises ValueError.  The layout is kept as a tuple of int pairs.
    """

    mesh: Mesh
    layout: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_type(self.mesh, Mesh)
        layout = tuple(tuple(check_int(v, "layout index") for v in entry) for entry in self.layout)
        if sorted(layout) != list(_block_order(self.mesh.blocks)):
            raise ValueError("layout does not match the mesh block sizes")
        object.__setattr__(self, "layout", layout)

    @property
    def blocks(self) -> tuple[Quandle, ...]:
        return self.mesh.blocks

    def reassemble(self) -> Quandle:
        """Compose the mesh with each point placed by the layout.

        The reassembled quandle is built and validated once per Decomposition
        object and kept; a result of dataclasses.replace starts without it.
        """
        return self._reassembled

    @cached_property
    def _reassembled(self) -> Quandle:
        return Quandle(_composed_table(self.mesh.blocks, self.mesh.homs, self.layout))


def decompose(q: Quandle) -> Decomposition:
    """Split q into its inner-orbit blocks and the homs the blocks induce.

    Each block is the subquandle on one orbit; hom (i, j) sends a generator
    y of block i to the restriction of q's symmetry at y to block j, in
    local labels.  reassemble() returns a quandle equal to q.

    The result is computed and checked once per table and kept in the cache
    that every live quandle with that table shares, so later calls on the
    same or an equal quandle, decomposition_tree's among them, return the
    same Decomposition.  Once no quandle with the table is alive, the next
    call decomposes and checks afresh.
    """
    check_type(q, Quandle)
    if "decomposition" not in q._cache:
        q._cache["decomposition"] = _decompose(q)
    return q._cache["decomposition"]


def _decompose(q: Quandle) -> Decomposition:
    orbits = q.orbits()
    blocks = tuple(q.subquandle(orbit) for orbit in orbits)
    local = {g: (bi, li) for bi, orbit in enumerate(orbits) for li, g in enumerate(orbit)}
    homs: list[list[GammaHom | None]] = []
    for i, orbit_i in enumerate(orbits):
        row: list[GammaHom | None] = []
        for j, orbit_j in enumerate(orbits):
            if i == j:
                row.append(None)
                continue
            assignment = []
            for y in orbit_i:
                images = tuple(local[q.table[x][y]][1] for x in orbit_j)
                assignment.append(Permutation(images))
            row.append(GammaHom(blocks[i], blocks[j], tuple(assignment)))
        homs.append(row)
    mesh = validate_mesh(blocks, homs)
    layout = tuple(local[g] for g in range(q.order))
    dec = Decomposition(mesh, layout)
    ensure(dec.reassemble() == q, "decomposition does not reassemble to its quandle")
    return dec


@dataclass(frozen=True)
class DecompositionTree:
    """Iterated decomposition of a quandle down to connected leaves.

    Only the quandle is passed; the rest is derived here.  A leaf (connected
    quandle) has decomposition None and no children; otherwise the
    decomposition is decompose(quandle) and children[b] refines its block b,
    taken as a standalone quandle under its own inner group.  A quandle of
    the wrong type raises TypeError.  Terminates because a disconnected
    quandle has at least two orbits, so block orders strictly decrease.
    """

    quandle: Quandle
    decomposition: Decomposition | None = field(init=False, compare=False)
    children: tuple["DecompositionTree", ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_type(self.quandle, Quandle)
        dec = None if self.quandle.is_connected() else decompose(self.quandle)
        children = () if dec is None else tuple(DecompositionTree(b) for b in dec.blocks)
        object.__setattr__(self, "decomposition", dec)
        object.__setattr__(self, "children", children)

    def is_leaf(self) -> bool:
        return self.decomposition is None

    def depth(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + max(child.depth() for child in self.children)

    def leaves(self) -> list[Quandle]:
        if self.is_leaf():
            return [self.quandle]
        return [leaf for child in self.children for leaf in child.leaves()]

    def replay(self) -> Quandle:
        """Rebuild the quandle bottom-up from the leaves.

        Each level checks its rebuilt blocks against its decomposition and
        returns that decomposition's reassembled quandle, built once.
        """
        if self.decomposition is None:
            return self.quandle
        rebuilt = [child.replay() for child in self.children]
        ensure(tuple(rebuilt) == self.decomposition.blocks, "replay differs from the blocks")
        return self.decomposition.reassemble()


def decomposition_tree(q: Quandle) -> DecompositionTree:
    """Decompose recursively until every leaf is connected.

    Each level goes through decompose, so a quandle or block decomposed
    before is not decomposed or checked again.
    """
    tree = DecompositionTree(q)
    ensure(all(leaf.is_connected() for leaf in tree.leaves()), "a tree leaf is not connected")
    return tree
