"""Finite quandles: validation, decomposition into connected pieces, enumeration.

The package has three layers.  perm and quandle hold the basic objects
(permutation groups, operation tables, symmetries, inner and automorphism
groups), and _subgroups is perm's numpy search for the subgroup classes
of S_n.  augment and decompose implement the mesh calculus: splitting any
quandle into its orbit blocks plus the cross-block actions, and composing
such data back when it is coherent.  enumeration builds all connected
quandles of an order from transitive group data, and oracle brute-forces
the same census by independent means so the two can be checked against
each other.  The public names are each module's __all__, in that order.
"""

from . import augment, decompose, enumeration, oracle, perm, quandle

# Read before the star imports: the decompose function rebinds the name of
# its module.
__all__ = [
    *perm.__all__,
    *quandle.__all__,
    *augment.__all__,
    *decompose.__all__,
    *enumeration.__all__,
    *oracle.__all__,
]

from .perm import *  # noqa: E402,F401,F403
from .quandle import *  # noqa: E402,F401,F403
from .augment import *  # noqa: E402,F401,F403
from .decompose import *  # noqa: E402,F401,F403
from .enumeration import *  # noqa: E402,F401,F403
from .oracle import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
