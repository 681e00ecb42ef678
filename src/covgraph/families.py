"""The parametrized family of rank-2 projections in C^4 that seed two-block
covariant graphs, and the tensor-product structure of their ranges.

In the ordered basis (e+, h+, e-, h-) every member has diagonal 1/2, zero
within-block off-diagonal entries, and an off-block corner whose entry
magnitudes are (tau, sqrt(1/4 - tau^2)) with one phase fixed by the other
three:  z3 = z1 + z4 - z2 + pi (mod 2pi).  Deriving z3 inside the parameter
object makes idempotence exact by construction.

The range of such a projection and of its complement are each spanned by
two matrix columns; identifying those four columns with a product basis
x(x)x, x(x)y, y(x)y, y(x)x of C^2 (x) C^2 gives a unitary change of basis
under which the entanglement of the block-subspace vectors can be read off
from Schmidt spectra.  The family is conventionally quoted with the
closed-form Schmidt weight pair (1 - 4 tau^2, 4 tau^2); the report below
carries that pair (the "printed" route) side by side with the spectrum
computed from the column identification (the "corrected" route) and flags
any disagreement instead of choosing.  ``family_report`` runs the whole
two-block certification of one member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anticlique import AnticliqueVerdict, verify_anticlique
from .circle import two_block_rep
from .graphs import OperatorGraph, OperatorSystemCheck, is_operator_system, orbit_graph
from .linalg import DEFAULT_TOL, Tolerance, _shannon_bits, adjoint, max_abs, num_close, schmidt

__all__ = [
    "FamilyParams",
    "TensorIdentification",
    "BasisEntanglement",
    "EntanglementReport",
    "family_projection",
    "family_params_from_matrix",
    "spanning_vectors",
    "tensor_identification",
    "corrected_identification",
    "entanglement_report",
    "FamilyReport",
    "family_report",
    "PRODUCT_LABELS",
]

# lexicographic product-basis order of C^2 (x) C^2: first factor letter, then second
PRODUCT_LABELS = ("xx", "xy", "yx", "yy")

BASIS_LABELS = ("e+", "h+", "e-", "h-")

# U_phi = exp(i phi) P_PLUS + exp(-i phi) (I - P_PLUS) is the two-block representation
P_PLUS = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (tau, z1, z2, z4, k) of a family member; z3 is derived."""

    tau: float
    z1: float = 0.0
    z2: float = 0.0
    z4: float = 0.0
    k: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 0.5:
            raise ValueError(f"tau must lie in [0, 1/2], got {self.tau}")

    @property
    def z3(self) -> float:
        return self.z1 + self.z4 - self.z2 + math.pi * (2 * self.k + 1)


def family_projection(params: FamilyParams) -> np.ndarray:
    """The 4x4 rank-2 projection with the given parameters.

    Hermitian and idempotent to rounding (~1e-16), with trace exactly 2.
    """
    tau = params.tau
    rho = math.sqrt(max(0.25 - tau * tau, 0.0))
    a = tau * np.exp(1j * params.z1)
    d = rho * np.exp(1j * params.z2)
    q = rho * np.exp(1j * params.z3)
    b = tau * np.exp(1j * params.z4)
    return np.array(
        [
            [0.5, 0.0, a, d],
            [0.0, 0.5, q, b],
            [np.conj(a), np.conj(q), 0.5, 0.0],
            [np.conj(d), np.conj(b), 0.0, 0.5],
        ],
        dtype=complex,
    )


def _wrap_angle(x: float) -> float:
    return x % (2.0 * math.pi)


def _circular_close(x: float, y: float, tol: Tolerance) -> bool:
    d = _wrap_angle(x - y)
    return min(d, 2.0 * math.pi - d) <= tol.eq_tol * 10.0


def family_params_from_matrix(
    m: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> FamilyParams | None:
    """Recover parameters if the matrix belongs to the family, else None.

    Membership: Hermitian, diagonal 1/2, zero within-block entries, off-block
    magnitudes pairing as (t, sqrt(1/4 - t^2)), and the phase constraint
    (vacuous when t is 0 or 1/2, where one magnitude pair vanishes).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        return None
    if max_abs(m - adjoint(m)) > tol.eq_tol:
        return None
    if max_abs(np.diag(m) - 0.5) > tol.eq_tol:
        return None
    if max(abs(m[0, 1]), abs(m[2, 3])) > tol.eq_tol:
        return None
    a, d = m[0, 2], m[0, 3]
    q, b = m[1, 2], m[1, 3]
    tau = (abs(a) + abs(b)) / 2.0
    rho = (abs(d) + abs(q)) / 2.0
    if abs(abs(a) - abs(b)) > tol.eq_tol or abs(abs(d) - abs(q)) > tol.eq_tol:
        return None
    if not num_close(tau * tau + rho * rho, 0.25, tol):
        return None
    tau = min(max(tau, 0.0), 0.5)
    if tau <= tol.eq_tol:  # corner reduces to d, q; this z1 makes z3 = arg q
        z2 = float(np.angle(d))
        return FamilyParams(tau=0.0, z1=_wrap_angle(np.angle(q) + z2 - math.pi), z2=_wrap_angle(z2))
    if rho <= tol.eq_tol:
        return FamilyParams(
            tau=0.5, z1=_wrap_angle(np.angle(a)), z2=0.0, z4=_wrap_angle(np.angle(b)), k=0
        )
    z1, z2 = float(np.angle(a)), float(np.angle(d))
    z3, z4 = float(np.angle(q)), float(np.angle(b))
    if not _circular_close(z3 - z1, z4 - z2 + math.pi, tol):
        return None
    base = FamilyParams(tau=tau, z1=z1, z2=z2, z4=z4, k=0)
    k = round((z3 - base.z3) / (2.0 * math.pi))
    return FamilyParams(tau=tau, z1=z1, z2=z2, z4=z4, k=int(k))


def spanning_vectors(
    q: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First two columns of Q and of I - Q, spanning their ranges.

    Idempotence makes the columns of Q eigenvectors at eigenvalue 1 and the
    columns of I - Q eigenvectors at 0; each has norm 1/sqrt(2) and the two
    columns of a pair are orthogonal.  Rejects matrices outside the family.
    """
    q = np.asarray(q, dtype=complex)
    if family_params_from_matrix(q, tol) is None:
        raise ValueError("matrix is not a member of the projection family")
    comp = np.eye(4) - q
    return q[:, 0].copy(), q[:, 1].copy(), comp[:, 0].copy(), comp[:, 1].copy()


@dataclass(frozen=True)
class TensorIdentification:
    """Invertible map sending the product basis of C^2 (x) C^2 to four targets.

    ``matrix`` is the operator in the standard bases: column 2i+j holds the
    target assigned to e_i (x) e_j, matching ``assignment`` in lexicographic
    label order (xx, xy, yx, yy).
    """

    matrix: np.ndarray
    assignment: tuple[tuple[str, np.ndarray], ...]
    is_unitary: bool

    def pull_back(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of a vector in the identified product basis (inverse map)."""
        return np.linalg.solve(self.matrix, np.asarray(v, dtype=complex).reshape(-1))


def tensor_identification(
    targets: dict[str, np.ndarray], normalize: bool = True, tol: Tolerance = DEFAULT_TOL
) -> TensorIdentification:
    """Build the identification from label -> target vector (labels xx, xy, yx, yy).

    Targets must be linearly independent: the Gram determinant is required to
    exceed eq_tol, otherwise the four vectors span fewer than 4 dimensions
    and no identification exists.
    """
    if set(targets) != set(PRODUCT_LABELS):
        raise ValueError(f"targets must be labeled exactly {PRODUCT_LABELS}")
    cols = []
    for label in PRODUCT_LABELS:
        v = np.asarray(targets[label], dtype=complex).reshape(-1)
        if v.size != 4:
            raise ValueError("each target must be a vector of length 4")
        if normalize:
            nrm = np.linalg.norm(v)
            if nrm == 0.0:
                raise ValueError(f"target {label} is the zero vector")
            v = v / nrm
        cols.append(v)
    matrix = np.column_stack(cols)
    gram = adjoint(matrix) @ matrix
    det = np.linalg.det(gram)
    if abs(det) <= tol.eq_tol:
        rank = int(np.linalg.matrix_rank(matrix, tol=math.sqrt(tol.eq_tol)))
        raise ValueError(
            f"targets are linearly dependent (Gram determinant {abs(det):.3g}, rank {rank})"
        )
    is_unitary = max_abs(gram - np.eye(4)) <= tol.eq_tol
    assignment = tuple(
        (label, col.copy()) for label, col in zip(PRODUCT_LABELS, cols)
    )
    return TensorIdentification(matrix=matrix, assignment=assignment, is_unitary=is_unitary)


def corrected_identification(
    params: FamilyParams, tol: Tolerance = DEFAULT_TOL
) -> TensorIdentification:
    """Unitary identification built from the columns of Q and I - Q.

    The range of Q becomes x (x) C^2 and the range of I - Q becomes
    y (x) C^2:  xx -> col1(Q), xy -> col2(Q), yy -> col1(I-Q),
    yx -> col2(I-Q), all scaled to unit norm.
    """
    q = family_projection(params)
    xi_q, eta_q, xi_c, eta_c = spanning_vectors(q, tol)
    return tensor_identification(
        {"xx": xi_q, "xy": eta_q, "yy": xi_c, "yx": eta_c}, normalize=True, tol=tol
    )


@dataclass(frozen=True)
class BasisEntanglement:
    """Entanglement data for one vector of the ordered basis (e+, h+, e-, h-)."""

    label: str
    corrected_coefficients: tuple[float, ...]
    corrected_entropy_bits: float
    printed_weights: tuple[float, float]
    printed_entropy_bits: float
    discrepancy: bool


@dataclass(frozen=True)
class EntanglementReport:
    params: FamilyParams
    rows: tuple[BasisEntanglement, ...]
    boundary_separable: bool
    printed_prefactor_norm_deviation: float
    identification: TensorIdentification


def entanglement_report(
    params: FamilyParams, tol: Tolerance = DEFAULT_TOL
) -> EntanglementReport:
    """Schmidt analysis of the four basis vectors under the column identification,
    next to the closed-form weight pair (1 - 4 tau^2, 4 tau^2).

    The two routes are reported side by side and a per-row flag marks
    disagreement; neither is silently preferred.  At tau in {0, 1/2} the
    closed-form pair degenerates to (1, 0) (separable) and the report is
    marked boundary_separable.  The closed-form normalization prefactor
    2/(sqrt(1/4-tau^2) e^{i z3} + tau e^{i z4}) does not generally produce a
    unit vector; its norm deviation is recorded (inf when the denominator
    vanishes).
    """
    tau = params.tau
    rho = math.sqrt(max(0.25 - tau * tau, 0.0))
    ident = corrected_identification(params, tol)

    printed = (1.0 - 4.0 * tau * tau, 4.0 * tau * tau)
    printed_entropy = _shannon_bits(printed)

    denom = rho * np.exp(1j * params.z3) + tau * np.exp(1j * params.z4)
    if abs(denom) <= tol.eq_tol:
        prefactor_deviation = math.inf
    else:
        unnormalized = np.zeros(4, dtype=complex)
        unnormalized[PRODUCT_LABELS.index("xx")] = rho * np.exp(1j * params.z3)
        unnormalized[PRODUCT_LABELS.index("yy")] = tau * np.exp(1j * params.z4)
        prefactor_deviation = abs(
            float(np.linalg.norm((2.0 / denom) * unnormalized)) - 1.0
        )

    rows = []
    for idx, label in enumerate(BASIS_LABELS):
        v = np.zeros(4, dtype=complex)
        v[idx] = 1.0
        pulled = adjoint(ident.matrix) @ v
        coeffs, entropy = schmidt(pulled, 2, 2, tol)
        corrected_weights = sorted((c * c for c in coeffs), reverse=True)
        printed_sorted = sorted(printed, reverse=True)
        discrepancy = any(
            abs(cw - pw) > tol.eq_tol * 100.0
            for cw, pw in zip(corrected_weights, printed_sorted)
        )
        rows.append(
            BasisEntanglement(
                label=label,
                corrected_coefficients=tuple(float(c) for c in coeffs),
                corrected_entropy_bits=entropy,
                printed_weights=printed,
                printed_entropy_bits=printed_entropy,
                discrepancy=discrepancy,
            )
        )
    boundary = tau <= tol.eq_tol or abs(tau - 0.5) <= tol.eq_tol
    return EntanglementReport(
        params=params,
        rows=tuple(rows),
        boundary_separable=boundary,
        printed_prefactor_norm_deviation=prefactor_deviation,
        identification=ident,
    )


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of the two-block pipeline seeded by one family member Q."""

    params: FamilyParams
    idempotence_residual: float  # max_abs(Q^2 - Q)
    trace_residual: float  # |tr Q - 2|
    complement_in_family: bool  # parameters recovered from I - Q
    complement_residual: float  # max_abs(projection of the recovered parameters - (I - Q))
    graph: OperatorGraph  # orbit span of Q under the representation on P_PLUS
    system: OperatorSystemCheck
    verdict_plus: AnticliqueVerdict  # P_PLUS
    verdict_minus: AnticliqueVerdict  # I - P_PLUS
    entanglement: EntanglementReport


def family_report(params: FamilyParams, tol: Tolerance = DEFAULT_TOL) -> FamilyReport:
    """Certify one member Q: a rank-2 projection whose complement round-trips
    through ``family_params_from_matrix`` (residual inf if it does not), whose
    orbit span is an operator system with anticliques P+ and P-, and the
    Schmidt analysis of the basis vectors."""
    q = family_projection(params)
    complement = np.eye(4) - q
    recovered = family_params_from_matrix(complement, tol)
    graph = orbit_graph(two_block_rep(P_PLUS, tol), q, tol)
    return FamilyReport(
        params=params,
        idempotence_residual=max_abs(q @ q - q),
        trace_residual=abs(np.trace(q).real - 2.0),
        complement_in_family=recovered is not None,
        complement_residual=(
            math.inf if recovered is None else max_abs(family_projection(recovered) - complement)
        ),
        graph=graph,
        system=is_operator_system(graph, tol),
        verdict_plus=verify_anticlique(P_PLUS, graph, tol),
        verdict_minus=verify_anticlique(np.eye(4) - P_PLUS, graph, tol),
        entanglement=entanglement_report(params, tol),
    )
