"""Connected quandles from group data: construction, realization, enumeration.

A connected quandle of order n is equivalent to a triple (G, H, z): a
transitive G <= S_n, the stabilizer H of the point 0, and a central element
z of H whose n conjugates by coset representatives generate G.  The quandle
lives on the right cosets of H, which biject with points via g -> g(0):

    i > j  =  (reps_i * reps_j^-1 * z * reps_j)(0)  =  conj_j(i).

A ConnectedSeed is the pair (G, z) and derives H, the coset
representatives and the conjugates conj_k of z, which are the quandle's
symmetries; G computes H once and keeps it.  realize extracts the seed from
a quandle with one orbit (G its inner group, z the symmetry at 0);
coset_quandle rebuilds the table and checks the theorem's conclusion,
Inn(Q) = G, which makes the quandle connected.  A CensusEntry is a seed
alone and derives the canonical form of its quandle.  The enumerator walks
all transitive subgroup classes of S_n and all central z of the stabilizer,
builds an entry for each seed that generates, and keeps the first entry per
canonical quandle.  Its output is cross-checked against the brute-force
search in the oracle module, which shares no code with this construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_MAX_ORDER, check_order, check_type, ensure
from .perm import PermGroup, Permutation, generate_group, transitive_subgroups_up_to_conjugacy
from .perm import _commute
from .quandle import Quandle

__all__ = [
    "ConnectedSeed",
    "CensusEntry",
    "GenerationFailureError",
    "NotConnectedError",
    "check_generation",
    "coset_quandle",
    "realize",
    "enumerate_connected",
]


class GenerationFailureError(ValueError):
    """The conjugates of z do not generate the candidate group."""


class NotConnectedError(ValueError):
    """realize needs a connected quandle."""


@dataclass(frozen=True)
class ConnectedSeed:
    """A transitive group and a central element z of the stabilizer of 0.

    The stabilizer, the coset representatives and the conjugates are
    derived here, never passed: reps[k] is the least group element sending
    0 to k, so reps[0] is the identity and reps indexes the right cosets of
    the stabilizer, and conjugates[k] is z conjugated by reps[k].
    A group or z of the wrong type raises TypeError; an intransitive group,
    or a z outside the stabilizer or not central in it, raises ValueError.
    """

    group: PermGroup
    z: Permutation
    stabilizer: PermGroup = field(init=False, compare=False)
    reps: tuple[Permutation, ...] = field(init=False, compare=False)
    conjugates: tuple[Permutation, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_type(self.group, PermGroup)
        check_type(self.z, Permutation)
        reps: dict[int, Permutation] = {}
        for g in self.group.elements:  # sorted, so the first hit is least
            reps.setdefault(g.images[0], g)
        if len(reps) < self.group.degree:
            raise ValueError("group must be transitive")
        stabilizer = self.group.stabilizer(0)
        if self.z not in stabilizer:
            raise ValueError("z must lie in the stabilizer")
        if not all(_commute(self.z, h) for h in stabilizer.generators):
            raise ValueError("z must be central in the stabilizer")
        object.__setattr__(self, "stabilizer", stabilizer)
        object.__setattr__(self, "reps", tuple(reps[k] for k in range(self.group.degree)))
        object.__setattr__(self, "conjugates", tuple(self.z.conjugated_by(r) for r in self.reps))

    @property
    def order(self) -> int:
        return self.group.degree


def check_generation(seed: ConnectedSeed) -> bool:
    """True iff the conjugates of z generate exactly the seed group."""
    check_type(seed, ConnectedSeed)
    generated = generate_group(seed.conjugates, seed.order)
    ensure(generated.is_subgroup_of(seed.group), "conjugates of z leave the seed group")
    return len(generated) == len(seed.group)


def coset_quandle(seed: ConnectedSeed) -> Quandle:
    """The connected quandle the seed defines on coset indices: column k is seed.conjugates[k].

    Requires check_generation.  The constructed table always passes full
    axiom validation, and its inner group is the seed group, Inn(Q) = G, so
    it is connected (both verified here, not assumed).
    """
    if not check_generation(seed):
        raise GenerationFailureError(
            "conjugates of z generate a proper subgroup; no connected quandle arises"
        )
    # Well-definedness: replacing reps[j] by h * reps[j] for h in the
    # stabilizer must not change conjugates[j]; z central makes this automatic.
    for j in (0, seed.order - 1):
        for h in seed.stabilizer.generators:
            ensure(seed.z.conjugated_by(h * seed.reps[j]) == seed.conjugates[j],
                   "coset table ill-defined")
    q = Quandle(tuple(zip(*(c.images for c in seed.conjugates))))
    ensure(q.inner_group() == seed.group, "coset quandle's inner group is not the seed group")
    return q


def realize(q: Quandle) -> ConnectedSeed:
    """The seed of a connected quandle: its inner group and z, the symmetry at 0.

    Its conjugates are q's symmetries, so feeding it back through
    coset_quandle reproduces q exactly, not just up to isomorphism.  A
    quandle with more than one orbit is refused before any group is built.
    """
    check_type(q, Quandle)
    if len(q.orbits()) != 1:
        raise NotConnectedError(f"quandle has {len(q.orbits())} orbits, needs exactly 1")
    return ConnectedSeed(q.inner_group(), q.symmetry(0))


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class of connected quandles: a seed and its canonical quandle.

    The quandle is derived, coset_quandle(seed).canonical_form().  A seed
    of the wrong type raises TypeError, and one whose conjugates of z do not
    generate its group raises GenerationFailureError.
    """

    seed: ConnectedSeed
    quandle: Quandle = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_type(self.seed, ConnectedSeed)
        object.__setattr__(self, "quandle", coset_quandle(self.seed).canonical_form())

    @property
    def inner_order(self) -> int:
        return len(self.seed.group)


def enumerate_connected(n: int) -> list[CensusEntry]:
    """All connected quandles of order n up to isomorphism, one entry each.

    Walks every transitive subgroup class of S_n and every central element
    of the point stabilizer; seeds that pass the generation test yield
    quandles, deduped by canonical form.  Entries are sorted by canonical
    table, so the output is deterministic.
    """
    check_order(n, DEFAULT_MAX_ORDER)
    by_class: dict[Quandle, CensusEntry] = {}
    for group in transitive_subgroups_up_to_conjugacy(n):
        for z in group.stabilizer(0).center():
            try:
                entry = CensusEntry(ConnectedSeed(group, z))
            except GenerationFailureError:
                continue
            by_class.setdefault(entry.quandle, entry)
    return sorted(by_class.values(), key=lambda e: e.quandle.table)
