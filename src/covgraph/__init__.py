"""covgraph: operator graphs from circle-covariant resolutions of identity.

Build the span of a conjugation orbit U_phi M U_phi^dagger over a
circle-group representation, certify which spectral projections satisfy
the Knill-Laflamme-Viola compression condition (quantum anticliques), and
construct the explicit families where that machinery is exact: the rank-2
projection family in C^4 and the generalized-Bell construction in
C^d (x) C^d.
"""

from .anticlique import (
    AnticliqueVerdict,
    MergedSpectrum,
    SpectralVerdict,
    anticliques_from_spectrum,
    merged_spectrum_angles,
    verify_anticlique,
)
from .bell import (
    BellCodeReport,
    bell_code_report,
    bell_rep,
    bell_state,
    first_factor_projection,
)
from .circle import CircleRep, RepViolation, two_block_rep
from .families import (
    PRODUCT_LABELS,
    BasisEntanglement,
    EntanglementReport,
    FamilyParams,
    FamilyReport,
    TensorIdentification,
    corrected_identification,
    entanglement_report,
    family_params_from_matrix,
    family_projection,
    family_report,
    spanning_vectors,
    tensor_identification,
)
from .graphs import (
    FrequencyComponent,
    OperatorGraph,
    OperatorSystemCheck,
    adjoint_closure_scalar,
    frequency_components,
    is_operator_system,
    orbit_graph,
    sampled_orbit_graph,
    span_projector,
    two_block_maximal_graph,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    eig_hermitian,
    gram_schmidt_operators,
    hs_inner,
    is_projection,
    max_abs,
    schmidt,
    spectral_projections_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "AnticliqueVerdict",
    "BasisEntanglement",
    "BellCodeReport",
    "CircleRep",
    "DEFAULT_TOL",
    "EntanglementReport",
    "FamilyParams",
    "FamilyReport",
    "FrequencyComponent",
    "MergedSpectrum",
    "OperatorGraph",
    "OperatorSystemCheck",
    "PRODUCT_LABELS",
    "RepViolation",
    "SpectralVerdict",
    "TensorIdentification",
    "Tolerance",
    "adjoint",
    "adjoint_closure_scalar",
    "anticliques_from_spectrum",
    "bell_code_report",
    "bell_rep",
    "bell_state",
    "corrected_identification",
    "eig_hermitian",
    "entanglement_report",
    "family_params_from_matrix",
    "family_projection",
    "family_report",
    "first_factor_projection",
    "frequency_components",
    "gram_schmidt_operators",
    "hs_inner",
    "is_operator_system",
    "is_projection",
    "max_abs",
    "merged_spectrum_angles",
    "orbit_graph",
    "sampled_orbit_graph",
    "schmidt",
    "span_projector",
    "spanning_vectors",
    "spectral_projections_unitary",
    "tensor_identification",
    "two_block_maximal_graph",
    "two_block_rep",
    "verify_anticlique",
]
