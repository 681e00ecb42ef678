"""Operator spans generated by conjugating a seed operator around the circle.

Conjugation expands the seed into frequency components: U_phi M U_phi^dagger
= sum_m exp(i*m*phi) A_m with A_m collecting the blocks P_j M P_k at
frequency difference m = s_j - s_k.  The span of the orbit equals the span
of the nonzero components (a Vandermonde argument over distinct
frequencies), and components at distinct m are HS-orthogonal, so normalized
they are an orthonormal basis, built and kept in the rep's block frame.  The
sampled construction is kept as an independent numerical cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle import CircleRep, _from_frame, two_block_rep
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


class OperatorGraph:
    """HS-orthonormal basis of an operator span as one (span_dim, dim, dim) array,
    held as a unitary frame W and the basis B' = W^dagger B W in it; ``basis``
    is formed on first use.  A graph built from a basis has W = I.  An orbit
    graph holds B' compactly: its elements have disjoint supports in the
    frame, so one matrix F carries them all and ``slot`` labels each entry
    with the index of its element (-1 on no element)."""

    def __init__(self, dim: int, basis, source: dict | None = None):
        basis = np.asarray(basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(0, dim, dim)
        if basis.shape[1:] != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} basis matrices, got {basis.shape}")
        self.dim, self.span_dim, self.source = dim, len(basis), {} if source is None else source
        self.basis = self._frame_basis = basis  # W = I: the frame basis is the basis
        self._w, self._f, self._slot = np.eye(dim, dtype=complex), None, None

    @classmethod
    def _compact(cls, w: np.ndarray, f: np.ndarray, slot: np.ndarray, span_dim: int,
                 source: dict) -> OperatorGraph:
        graph = cls.__new__(cls)
        graph.dim, graph.span_dim, graph.source = len(w), span_dim, source
        graph._w, graph._f, graph._slot = w, f, slot
        return graph

    @functools.cached_property
    def _frame_basis(self) -> np.ndarray:
        return _unpack(self._f, self._slot, self.span_dim)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return _from_frame(self._w, self._frame_basis)

    def _frame_block(self, rows: np.ndarray) -> np.ndarray:
        """B'[:, rows, rows]; a proper subset of the rows of a compact graph is
        scattered from F, without the (span_dim, dim, dim) stack."""
        if self._f is None or len(rows) == self.dim:
            return self._frame_basis[:, rows[:, None], rows]
        block = rows[:, None], rows
        return _unpack(self._f[block], self._slot[block], self.span_dim)

    def _project_frame(self, a: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the span, of matrices given in the frame."""
        flat = self._frame_basis.reshape(self.span_dim, self.dim * self.dim)
        coeffs = (a.reshape(-1, self.dim * self.dim).conj() @ flat.T).conj()  # <b'_j, a>
        return (coeffs @ flat).reshape(a.shape)

    def project(self, a: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the span of one matrix or a stack of them."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrices, got {a.shape}")
        return _from_frame(self._w, self._project_frame(adjoint(self._w) @ a @ self._w))


def _unpack(f: np.ndarray, slot: np.ndarray, k: int) -> np.ndarray:
    """The (k, r, r) stack whose element j is f on the entries labelled j, else 0."""
    out = np.zeros((k, f.size), dtype=complex)
    on = np.flatnonzero(slot >= 0)
    out[slot.ravel()[on], on] = f.ravel()[on]
    return out.reshape(k, *f.shape)


class OperatorSystemCheck(NamedTuple):
    contains_identity: bool
    adjoint_closed: bool
    identity_residual: float
    adjoint_residual: float


def _frame_span(rep: CircleRep, seed: np.ndarray, tol: Tolerance):
    """(ms, F, slot, norms) for the components A_m with ||A_m||_HS >
    eq_tol * ||seed||_HS, sorted by m: slot[a, b] is the index in ms of
    s_a - s_b (-1 if dropped), F is M' = W^dagger M W divided on each entry by
    the HS norm of its component (0 if dropped), and A_m is W A'_m W^dagger
    with A'_m = norms[j] F on the entries of slot j.  Needs a valid
    representation."""
    seed = rep._operator(seed)
    _require_finite(seed)  # a NaN cut would drop every component
    labels, w = rep._block_basis
    freqs = np.array(rep.freqs, dtype=object)  # exact differences of int64 frequencies
    ms, pair = np.unique(np.subtract.outer(freqs, freqs), return_inverse=True)
    pair = pair.reshape(len(freqs), -1)[labels[:, None], labels]  # index in ms of s_a - s_b
    frame = adjoint(w) @ seed @ w
    scale = max_abs(frame) or 1.0  # so that no square overflows or underflows
    squares = np.bincount(pair.ravel(), np.abs(frame.ravel() / scale) ** 2, len(ms))
    kept = squares > tol.eq_tol**2 * squares.sum()
    norms = scale * np.sqrt(squares)
    f = np.divide(frame, norms[pair], out=np.zeros_like(frame), where=kept[pair])
    slot = np.where(kept, np.cumsum(kept) - 1, -1)[pair]
    return ms[kept], f, slot, norms[kept]


def frequency_components(
    rep: CircleRep, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> list[FrequencyComponent]:
    """Components A_m = sum_{s_j - s_k = m} P_j seed P_k, sorted by m, with
    ||A_m||_HS > eq_tol * ||seed||_HS; the representation must be valid."""
    ms, f, slot, norms = _frame_span(rep, seed, tol)
    comps = _from_frame(rep._block_basis[1], _unpack(f, slot, len(ms)) * norms[:, None, None])
    return [FrequencyComponent(m, a) for m, a in zip(ms.tolist(), comps)]


def _positivity_check(seed: np.ndarray, tol: Tolerance) -> None:
    cut = tol.eq_tol * max_abs(seed)  # relative, so the verdict ignores the seed's scale
    if max_abs(seed - adjoint(seed)) > cut:
        raise ValueError(
            "seed is not positive semidefinite (not Hermitian); "
            "pass allow_nonpositive=True to explore anyway"
        )
    eigvals, _ = eig_hermitian(seed, tol)  # diagonalizes the Hermitian part
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
    """Span of the conjugation orbit of the seed: the components A_m / ||A_m||_HS,
    held in the rep's block frame as one matrix F and its slots.  The rep must
    be valid; that is not checked."""
    seed = np.asarray(seed, dtype=complex)
    if not allow_nonpositive:
        _positivity_check(seed, tol)
    ms, f, slot, _ = _frame_span(rep, seed, tol)
    source = {"method": "frequency-components", "freqs": rep.freqs, "seed": fingerprint(seed)}
    return OperatorGraph._compact(rep._block_basis[1], f, slot, len(ms), source)


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


def _compact_residuals(graph: OperatorGraph) -> tuple[np.ndarray, float]:
    """is_operator_system's frame identity residual and adjoint residual for a
    compact graph, in O(n^2).  The adjoint of the element at m lies on the
    entries of the one at -m, so its projection has the one coefficient
    <B'_{-m}, B'_m^dagger> = sum conj(F) conj(F^T) over those entries.  The
    identity lies on the diagonal, all at m = 0."""
    f, slot, k = graph._f, graph._slot, graph.span_dim
    adj = f.T.conj()  # B'_j^dagger on the entries where slot.T == j
    on = slot >= 0
    terms = f[on].conj() * adj[on]
    coeffs = np.bincount(slot[on], terms.real, k) + 1j * np.bincount(slot[on], terms.imag, k)
    adj[on] -= coeffs[slot[on]] * f[on]
    owner = slot.T >= 0
    squares = np.bincount(slot.T[owner], np.abs(adj[owner]) ** 2, k)
    at_zero = slot == slot[0, 0]  # the entries at m = 0, or the dropped ones (F = 0)
    id_res = np.eye(graph.dim) - np.trace(f).conj() * np.where(at_zero, f, 0.0)
    return id_res, float(np.sqrt(squares.max(initial=0.0)))


def is_operator_system(
    graph: OperatorGraph, tol: Tolerance = DEFAULT_TOL
) -> OperatorSystemCheck:
    """Check the two operator-system axioms: identity membership, adjoint closure.

    The identity residual is max_abs(I - Pi(I)) in the original frame and the
    adjoint residual is max_j ||B_j^dagger - Pi(B_j^dagger)||_HS over the unit
    basis elements, Pi the HS projection onto the span.  Both are computed in
    the graph's frame, where I stays I and the HS distance is unchanged; only
    the identity residual is transformed back.  A compact (orbit) graph gets
    both from F and its slots in O(n^2), a graph built from a basis from the
    Gram products of its stack."""
    if graph._f is None:
        eye = np.eye(graph.dim, dtype=complex)
        id_res = eye - graph._project_frame(eye)
        adj = np.conj(graph._frame_basis.transpose(0, 2, 1))
        adj -= graph._project_frame(adj)
        adj_res = float(np.linalg.norm(adj, axis=(1, 2)).max(initial=0.0))
    else:
        id_res, adj_res = _compact_residuals(graph)
    id_res = max_abs(_from_frame(graph._w, id_res))
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
    rep = two_block_rep(p_plus, tol)  # raises unless a projection
    n = rep.dim
    plus, minus = rep._isometry(0), rep._isometry(1)
    blocks = [w @ adjoint(w) / math.sqrt(w.shape[1]) for w in (plus, minus) if w.shape[1]]
    corner = np.einsum("ia,jb->abij", plus, minus.conj()).reshape(-1, n, n)
    return OperatorGraph(
        dim=n,
        basis=np.concatenate([np.array(blocks), corner, corner.conj().transpose(0, 2, 1)]),
        source={"method": "two-block-maximal", "seed": fingerprint(p_plus)},
    )
