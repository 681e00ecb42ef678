"""Operator spans generated by conjugating a seed operator around the circle.

Conjugation expands the seed into frequency components: U_phi M U_phi^dagger
= sum_m exp(i*m*phi) A_m with A_m collecting the blocks P_j M P_k at
frequency difference m = s_j - s_k.  The span of the orbit equals the span
of the nonzero components (a Vandermonde argument over distinct
frequencies), which makes the "analytic" construction exact; the sampled
construction is kept as an independent numerical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circle import CircleRep, two_block_rep
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _require_finite,
    adjoint,
    eig_hermitian,
    fingerprint,
    gram_schmidt_operators,
    hs_inner,
    hs_norm,
    max_abs,
)

__all__ = [
    "FrequencyComponent",
    "OperatorGraph",
    "OperatorSystemCheck",
    "frequency_components",
    "orbit_graph",
    "sampled_orbit_graph",
    "is_operator_system",
    "span_projector",
    "adjoint_closure_scalar",
    "two_block_maximal_graph",
]


@dataclass(frozen=True)
class FrequencyComponent:
    """Coefficient operator of exp(i*m*phi) in the conjugated seed."""

    freq: int
    operator: np.ndarray


@dataclass(frozen=True)
class OperatorGraph:
    """HS-orthonormal basis of an operator span as one (span_dim, dim, dim) array."""

    dim: int
    basis: np.ndarray
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(0, self.dim, self.dim)
        if basis.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} basis matrices, got {basis.shape}")
        object.__setattr__(self, "basis", basis)

    @property
    def span_dim(self) -> int:
        return len(self.basis)

    def project(self, a: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the span of one matrix or a stack of them."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrices, got {a.shape}")
        flat = _flat_basis(self)
        coeffs = (a.reshape(-1, self.dim * self.dim).conj() @ flat).conj()  # <b_j, a>
        return (coeffs @ flat.T).reshape(a.shape)


class OperatorSystemCheck(NamedTuple):
    contains_identity: bool
    adjoint_closed: bool
    identity_residual: float
    adjoint_residual: float


def frequency_components(
    rep: CircleRep, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> list[FrequencyComponent]:
    """Components A_m = sum_{s_j - s_k = m} P_j seed P_k, sorted by m, that are
    nonzero relative to the seed: max_abs(A_m) > eq_tol * max_abs(seed)."""
    seed = rep._operator(seed)
    _require_finite(seed)  # a NaN cut would drop every component
    cut = tol.eq_tol * max_abs(seed)
    acc: dict[int, np.ndarray] = {}
    for sj, pj in zip(rep.freqs, rep.projections):
        left = pj @ seed
        for sk, pk in zip(rep.freqs, rep.projections):
            m = sj - sk
            block = left @ pk
            if m in acc:
                acc[m] += block
            else:
                acc[m] = block
    return [
        FrequencyComponent(m, acc[m])
        for m in sorted(acc)
        if max_abs(acc[m]) > cut
    ]


def _positivity_check(seed: np.ndarray, tol: Tolerance) -> None:
    cut = tol.eq_tol * max_abs(seed)  # relative, so the verdict ignores the seed's scale
    if max_abs(seed - adjoint(seed)) > cut:
        raise ValueError(
            "seed is not positive semidefinite (not Hermitian); "
            "pass allow_nonpositive=True to explore anyway"
        )
    eigvals, _ = eig_hermitian((seed + adjoint(seed)) / 2.0, tol)
    if eigvals[0] < -cut:
        raise ValueError(
            f"seed is not positive semidefinite (min eigenvalue {eigvals[0]:.3g}); "
            "pass allow_nonpositive=True to explore anyway"
        )


def orbit_graph(
    rep: CircleRep,
    seed: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    allow_nonpositive: bool = False,
) -> OperatorGraph:
    """Span of the conjugation orbit of the seed, via its frequency components."""
    seed = np.asarray(seed, dtype=complex)
    if not allow_nonpositive:
        _positivity_check(seed, tol)
    comps = frequency_components(rep, seed, tol)
    basis, _, _ = gram_schmidt_operators([c.operator for c in comps], tol)
    return OperatorGraph(
        dim=rep.dim,
        basis=basis,
        source={
            "method": "frequency-components",
            "freqs": rep.freqs,
            "seed": fingerprint(seed),
        },
    )


def sampled_orbit_graph(
    rep: CircleRep,
    seed: np.ndarray,
    n_samples: int,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorGraph:
    """Span of N uniformly sampled conjugates of the seed.

    Matches orbit_graph once n_samples exceeds every nonzero frequency
    difference; kept as a quadrature-based cross-check of the analytic route.
    """
    basis, _, _ = gram_schmidt_operators(rep._conjugates(seed, n_samples), tol)
    return OperatorGraph(
        dim=rep.dim,
        basis=basis,
        source={
            "method": "sampled-orbit",
            "freqs": rep.freqs,
            "n_samples": n_samples,
            "seed": fingerprint(seed),
        },
    )


def _flat_basis(graph: OperatorGraph) -> np.ndarray:
    """The basis flattened into the columns of an n^2-by-span_dim matrix."""
    return graph.basis.reshape(graph.span_dim, graph.dim * graph.dim).T


def span_projector(graph: OperatorGraph) -> np.ndarray:
    """Matrix of the HS-orthogonal projection onto the span, in flattened coordinates."""
    b = _flat_basis(graph)
    return b @ adjoint(b)


def _span_gap(a: OperatorGraph, b: OperatorGraph) -> float:
    """Gap ||span_projector(a) - span_projector(b)||_2 without either projector.

    For orthonormal flattened bases it is the larger of ||(I - P_a) B_b||_2
    and ||(I - P_b) B_a||_2 (Kato 1966), two n^2-by-k matrices.  The same
    angles read as sqrt(1 - sigma_min^2) of B_a^dagger B_b would lose ~1e-8
    to cancellation on spans that agree.
    """
    flat_a, flat_b = _flat_basis(a), _flat_basis(b)
    return max(
        float(np.linalg.norm(y - x @ (adjoint(x) @ y), 2)) if y.shape[1] else 0.0
        for x, y in ((flat_a, flat_b), (flat_b, flat_a))
    )


def is_operator_system(
    graph: OperatorGraph, tol: Tolerance = DEFAULT_TOL
) -> OperatorSystemCheck:
    """Check the two operator-system axioms: identity membership, adjoint closure."""
    eye = np.eye(graph.dim, dtype=complex)
    id_res = max_abs(eye - graph.project(eye))
    adjoints = np.conj(graph.basis.transpose(0, 2, 1), order="C")
    residuals = graph.project(adjoints)
    residuals -= adjoints
    adj_res = max_abs(residuals)
    return OperatorSystemCheck(
        contains_identity=id_res <= tol.eq_tol,
        adjoint_closed=adj_res <= tol.eq_tol,
        identity_residual=id_res,
        adjoint_residual=adj_res,
    )


def adjoint_closure_scalar(
    rep: CircleRep, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> complex | None:
    """Scalar h with (lower off-block) = h * (upper off-block)^dagger, if one exists.

    For a two-block representation the orbit span of cI + S (S purely
    off-block) is adjoint-closed exactly when its frequency components F at
    m=+2 and G at m=-2 satisfy G = h F^dagger; h is recovered by least
    squares and returned only when the fit residual is <= eq_tol * ||G||.
    Note the returned scalar certifies adjoint closure of the span only when
    F and G are both nonzero or both zero.
    """
    if sorted(rep.freqs) != [-1, 1]:
        raise ValueError("adjoint_closure_scalar requires a two-block representation")
    seed = np.divide(seed, max_abs(seed) or 1.0)  # so that |F|^2 neither underflows nor overflows
    # F or G is zero when frequency_components drops it, a cut relative to the seed
    comps = {c.freq: c.operator for c in frequency_components(rep, seed, tol)}
    if 2 not in comps:
        return 0.0 if -2 not in comps else None
    f_star = adjoint(comps[2])
    g = comps.get(-2, np.zeros_like(f_star))
    h = hs_inner(f_star, g) / hs_inner(f_star, f_star).real
    residual = hs_norm(g - h * f_star)
    if residual <= tol.eq_tol * hs_norm(g):
        return h
    return None


def two_block_maximal_graph(
    p_plus: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> OperatorGraph:
    """Largest span invariant under a two-block action, h*P+ + q*P- + (off-block
    part): with eigenvectors u_a of P+ and w_b of P-, the basis is P+/sqrt(r),
    P-/sqrt(n-r) (unless zero) and the matrix units |u_a><w_b|, |w_b><u_a|."""
    p_plus = two_block_rep(p_plus, tol).projections[0]  # raises unless a projection
    n = p_plus.shape[0]
    eigvals, v = eig_hermitian(p_plus, tol)
    minus, plus = v[:, eigvals < 0.5], v[:, eigvals >= 0.5]
    blocks = [w @ adjoint(w) / math.sqrt(w.shape[1]) for w in (plus, minus) if w.shape[1]]
    corner = np.einsum("ia,jb->abij", plus, minus.conj()).reshape(-1, n, n)
    return OperatorGraph(
        dim=n,
        basis=np.concatenate([np.array(blocks), corner, corner.conj().transpose(0, 2, 1)]),
        source={"method": "two-block-maximal", "seed": fingerprint(p_plus)},
    )
