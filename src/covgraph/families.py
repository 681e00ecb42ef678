"""The parametrized family of rank-2 projections in C^4 that seed two-block
covariant graphs, and the tensor-product structure of their ranges.

In the ordered basis (e+, h+, e-, h-) a member is Q = [[I/2, C], [C^dagger,
I/2]]: a matrix of that block form is a projection exactly when 2C is a 2x2
unitary, and every 2x2 unitary is 2C for some member.  The corner's entry
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
two-block certification of one member, and ``scan_report`` runs it over
a tau grid with seeded random phases.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .anticlique import AnticliqueVerdict, Assertion, _knill_laflamme
from .circle import CircleRep
from .graphs import OperatorGraph, OperatorSystemCheck, is_operator_system, orbit_graph
from .linalg import (
    DEFAULT_TOL, Tolerance, _as_integer, _shannon_bits, _unit_scale, adjoint, is_projection,
    max_abs, schmidt
)

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
    "ScanReport",
    "scan_report",
    "PRODUCT_LABELS",
]

# lexicographic product-basis order of C^2 (x) C^2: first factor letter, then second
PRODUCT_LABELS = ("xx", "xy", "yx", "yy")

BASIS_LABELS = ("e+", "h+", "e-", "h-")


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
        # the corner's phase z3 takes z1 + z4 - z2, which overflows for finite z near 1e308
        if not all(map(math.isfinite, (self.z1, self.z2, self.z4, self.z1 + self.z4 - self.z2))):
            raise ValueError("phases z1, z2, z4 and z1 + z4 - z2 must be finite, got "
                             f"z1={self.z1}, z2={self.z2}, z4={self.z4}")
        object.__setattr__(self, "k", _as_integer(self.k, "k must be an integer"))

    @property
    def z3(self) -> float:
        """z1 + z4 - z2 + pi (2k + 1) reduced to (-pi, pi], exact for every k."""
        return cmath.phase(-cmath.exp(1j * (self.z1 + self.z4 - self.z2)))


def _corner(params: FamilyParams) -> np.ndarray:
    """The off-block corner [[a, d], [q, b]] (rows e+, h+; columns e-, h-):
    magnitudes [[tau, rho], [rho, tau]] at phases [[z1, z2], [z3, z4]], with
    e^{i z3} formed as -e^{i (z1 + z4 - z2)}, which is exact for every k."""
    tau = params.tau
    rho = math.sqrt(max(0.25 - tau * tau, 0.0))
    phases = np.array([[params.z1, params.z2], [params.z1 + params.z4 - params.z2, params.z4]])
    return np.array([[tau, rho], [-rho, tau]]) * np.exp(1j * phases)


def family_projection(params: FamilyParams) -> np.ndarray:
    """The 4x4 rank-2 projection with the given parameters.

    Hermitian and idempotent to rounding (~1e-16) for every k, with trace
    exactly 2.
    """
    q = np.eye(4, dtype=complex) / 2.0
    q[:2, 2:] = _corner(params)
    q[2:, :2] = q[:2, 2:].conj().T
    return q


def family_params_from_matrix(
    m: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> FamilyParams | None:
    """Recover parameters if the matrix belongs to the family, else None.

    Membership is one rule: a 4x4 projection whose diagonal 2x2 blocks are I/2
    within eq_tol.  Idempotence then gives C C^dagger = I/4 for the corner
    C = [[a, d], [q, b]], i.e. 2C is unitary, so |a| = |b|, |d| = |q| and
    |det C| = 1/4.  The parameters are read from C: z2 = arg d, z4 = arg b and
    z1 = arg(det C) - z4, which is defined at tau = 0 too; k is 0, since every
    k gives the same projection.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4) or not is_projection(m, tol):
        return None
    half = np.eye(2) / 2.0
    if max(max_abs(m[:2, :2] - half), max_abs(m[2:, 2:] - half)) > tol.eq_tol:
        return None
    (a, d), (q, b) = m[:2, 2:].tolist()
    tau = (abs(a) + abs(b)) / 2.0
    rho = (abs(d) + abs(q)) / 2.0
    if rho < tau:  # family_projection derives rho from tau; the inverse is well conditioned here
        tau = math.sqrt(max(0.25 - rho * rho, 0.0))
    z4 = cmath.phase(b)
    z1 = cmath.phase(a * b - d * q) - z4  # det C = e^{i (z1 + z4)} / 4
    return FamilyParams(tau=tau, z1=z1, z2=cmath.phase(d), z4=z4)


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
    return _spanning_columns(q)


def _spanning_columns(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    comp = np.eye(4) - q
    return q[:, 0].copy(), q[:, 1].copy(), comp[:, 0].copy(), comp[:, 1].copy()


@dataclass(frozen=True)
class TensorIdentification:
    """Invertible map sending the product basis of C^2 (x) C^2 to four targets.

    ``matrix`` is the operator in the standard bases: column 2i+j holds the
    target assigned to e_i (x) e_j, the label at index 2i+j of PRODUCT_LABELS
    (xx, xy, yx, yy).
    """

    matrix: np.ndarray
    is_unitary: bool


def tensor_identification(
    targets: dict[str, np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> TensorIdentification:
    """Build the identification from label -> target vector (labels xx, xy, yx, yy).

    Each target is scaled to unit norm (a zero target raises ValueError).
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
        v, _ = _unit_scale(v)  # exact, so that the norm neither overflows nor underflows
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ValueError(f"target {label} is the zero vector")
        cols.append(v / nrm)
    matrix = np.column_stack(cols)
    gram = adjoint(matrix) @ matrix
    det = np.linalg.det(gram)
    if abs(det) <= tol.eq_tol:
        rank = int(np.linalg.matrix_rank(matrix, tol=math.sqrt(tol.eq_tol)))
        raise ValueError(
            f"targets are linearly dependent (Gram determinant {abs(det):.3g}, rank {rank})"
        )
    is_unitary = max_abs(gram - np.eye(4)) <= tol.eq_tol
    return TensorIdentification(matrix=matrix, is_unitary=is_unitary)


def corrected_identification(
    params: FamilyParams, tol: Tolerance = DEFAULT_TOL
) -> TensorIdentification:
    """Unitary identification built from the columns of Q and I - Q.

    The range of Q becomes x (x) C^2 and the range of I - Q becomes
    y (x) C^2:  xx -> col1(Q), xy -> col2(Q), yy -> col1(I-Q),
    yx -> col2(I-Q), all scaled to unit norm.
    """
    xi_q, eta_q, xi_c, eta_c = _spanning_columns(family_projection(params))  # a member
    return tensor_identification({"xx": xi_q, "xy": eta_q, "yy": xi_c, "yx": eta_c}, tol=tol)


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
    ident = corrected_identification(params, tol)

    printed = (1.0 - 4.0 * tau * tau, 4.0 * tau * tau)
    printed_entropy = _shannon_bits(printed)

    q, b = _corner(params)[1]
    denom = q + b
    if abs(denom) <= tol.eq_tol:
        prefactor_deviation = math.inf
    else:
        unnormalized = np.zeros(4, dtype=complex)
        unnormalized[PRODUCT_LABELS.index("xx")] = q
        unnormalized[PRODUCT_LABELS.index("yy")] = b
        prefactor_deviation = abs(
            float(np.linalg.norm((2.0 / denom) * unnormalized)) - 1.0
        )

    rows = []
    for idx, label in enumerate(BASIS_LABELS):
        pulled = ident.matrix[idx].conj()  # M^dagger e_idx
        coeffs, entropy = schmidt(pulled, 2, 2, tol)
        corrected_weights = [c * c for c in coeffs]  # descending, as the coefficients
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
    complement_in_family: bool  # complement_residual <= eq_tol
    complement_residual: float  # max_abs(family_projection(recovered) - (I - Q)), inf if none
    graph: OperatorGraph  # orbit span of Q under the two-block representation
    system: OperatorSystemCheck
    verdict_plus: AnticliqueVerdict  # P+ = diag(1, 1, 0, 0), onto span(e+, h+)
    verdict_minus: AnticliqueVerdict  # P- = I - P+, onto span(e-, h-)
    entanglement: EntanglementReport
    # idempotence, trace 2, complement, the two axioms, then P+ and P-
    assertions: tuple[Assertion, ...]


@functools.cache
def _family_rep() -> CircleRep:
    """U_phi = exp(i phi) P+ + exp(-i phi) P-, with P+ onto span(e+, h+), built
    once and read-only from the standard basis as its block frame."""
    return CircleRep._from_frame((1, -1), np.eye(4), (0, 0, 1, 1))


def family_report(params: FamilyParams, tol: Tolerance = DEFAULT_TOL) -> FamilyReport:
    """Certify one member Q: a rank-2 projection whose complement round-trips
    through ``family_params_from_matrix`` within eq_tol (residual inf if no
    parameters are recovered), whose orbit span is an operator system with
    anticliques P+ and P-, and the Schmidt analysis of the basis vectors."""
    q = family_projection(params)
    complement = np.eye(4) - q
    recovered = family_params_from_matrix(complement, tol)
    complement_residual = (
        math.inf if recovered is None else max_abs(family_projection(recovered) - complement)
    )
    in_family = complement_residual <= tol.eq_tol
    idempotence, trace = max_abs(q @ q - q), abs(np.trace(q).real - 2.0)
    rep = _family_rep()
    graph = orbit_graph(rep, q, tol)
    system = is_operator_system(graph, tol)
    plus, minus = (_knill_laflamme(rep._frame_rows(block), graph, tol) for block in (0, 1))
    return FamilyReport(
        params=params,
        idempotence_residual=idempotence,
        trace_residual=trace,
        complement_in_family=in_family,
        complement_residual=complement_residual,
        graph=graph,
        system=system,
        verdict_plus=plus,
        verdict_minus=minus,
        entanglement=entanglement_report(params, tol),
        assertions=(
            Assertion("projection-idempotent", idempotence <= tol.eq_tol, idempotence),
            Assertion("projection-trace-2", trace <= tol.eq_tol, trace),
            Assertion("complement-in-family", in_family, complement_residual),
            Assertion("graph-contains-identity", system.contains_identity,
                      system.identity_residual, {"span_dim": graph.span_dim}),
            Assertion("graph-adjoint-closed", system.adjoint_closed, system.adjoint_residual),
            plus.assertion("anticlique-p-plus"),
            minus.assertion("anticlique-p-minus"),
        ),
    )


@dataclass(frozen=True)
class ScanReport:
    """Family reports over a tau grid, one per point, and their assertions:
    ``point-i`` for each, then ``aggregate``."""

    points: tuple[FamilyReport, ...]
    assertions: tuple[Assertion, ...]


def scan_report(grid, seed: int, tol: Tolerance = DEFAULT_TOL) -> ScanReport:
    """Run ``family_report`` at each tau of the grid, with phases z1, z2, z4
    drawn uniformly from [0, 2 pi) by ``numpy.random.default_rng(seed)``, three
    per point in grid order.

    A point passes iff its member is idempotent and both P+ and P- are codes;
    its residual is the largest of those three.  The aggregate passes iff
    every point does and carries the largest point residual.
    """
    if len(grid) == 0:
        raise ValueError("empty grid")
    rng = np.random.default_rng(seed)
    points, assertions = [], []
    for i, tau in enumerate(grid):
        z1, z2, z4 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=3))
        report = family_report(FamilyParams(tau=tau, z1=z1, z2=z2, z4=z4, k=0), tol)
        idempotent, *_, plus, minus = report.assertions
        row = report.entanglement.rows[0]
        points.append(report)
        assertions.append(Assertion(
            f"point-{i}",
            idempotent.passed and plus.passed and minus.passed,
            max(idempotent.residual, plus.residual, minus.residual),
            dict(tau=tau, z1=z1, z2=z2, z4=z4, span_dim=report.graph.span_dim,
                 printed_entropy_bits=row.printed_entropy_bits,
                 corrected_entropy_bits=row.corrected_entropy_bits,
                 max_entropy=abs(row.printed_entropy_bits - 1.0) <= 1e-9,
                 boundary_separable=report.entanglement.boundary_separable),
        ))
    all_ok = all(a.passed for a in assertions)
    worst = max(a.residual for a in assertions)
    assertions.append(
        Assertion("aggregate", all_ok, worst, {"points": len(grid), "all_passed": all_ok})
    )
    return ScanReport(points=tuple(points), assertions=tuple(assertions))
