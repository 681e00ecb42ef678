"""covgraph: operator graphs from circle-covariant resolutions of identity.

Build the span of a conjugation orbit U_phi M U_phi^dagger over a
circle-group representation, certify which spectral projections satisfy
the Knill-Laflamme-Viola compression condition (quantum anticliques), and
construct the explicit families where that machinery is exact: the rank-2
projection family in C^4 and the generalized-Bell construction in
C^d (x) C^d.
"""

from . import anticlique, bell, circle, families, graphs, linalg
from .anticlique import *
from .bell import *
from .circle import *
from .families import *
from .graphs import *
from .linalg import *

__version__ = "0.1.0"

# concatenated, not merged: a name exported by two modules shows up twice
__all__ = [*anticlique.__all__, *bell.__all__, *circle.__all__,
           *families.__all__, *graphs.__all__, *linalg.__all__]
