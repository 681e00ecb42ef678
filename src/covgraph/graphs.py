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
    DEFAULT_TOL, Tolerance, _unit_scale, adjoint, eig_hermitian, gram_schmidt_operators, max_abs,
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
    with the index of its element (-1 on no element).  It keeps the rest of its
    seed's decomposition: the kept m, the norms ||A_m||_HS / s and the scale s."""

    def __init__(self, dim: int, basis):
        basis = np.asarray(basis, dtype=complex)
        if basis.size == 0:
            basis = basis.reshape(0, dim, dim)
        if basis.shape[1:] != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} basis matrices, got {basis.shape}")
        self.dim, self.span_dim = dim, len(basis)
        self.basis = self._frame_basis = basis  # W = I: the frame basis is the basis
        self._w, self._f, self._slot = np.eye(dim, dtype=complex), None, None

    @classmethod
    def _compact(cls, w: np.ndarray, f: np.ndarray, slot: np.ndarray, ms: np.ndarray,
                 norms: np.ndarray, scale: float) -> OperatorGraph:
        graph = cls.__new__(cls)
        graph.dim, graph.span_dim = len(w), len(ms)
        graph._w, graph._f, graph._slot = w, f, slot
        graph._ms, graph._norms, graph._scale = ms, norms, scale
        return graph

    @functools.cached_property
    def _frame_basis(self) -> np.ndarray:
        return _unpack(self._f, self._slot, self.span_dim)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return _from_frame(self._w, self._frame_basis)

    @functools.cached_property
    def _f_zero(self) -> np.ndarray:
        """W F_0 W^dagger, F_0 = F on the slot of entry (0, 0): the unit element at
        m = 0, or 0 if dropped; shared by the identity residual and _pinched_seed."""
        return _from_frame(self._w, np.where(self._slot == self._slot[0, 0], self._f, 0.0))

    def _pinched_seed(self) -> np.ndarray:
        """The seed's pinching sum_j P_j M P_j: its component s ||A'_0||_HS W F_0 W^dagger."""
        return self._f_zero * self._norms[self._ms == 0].sum() * self._scale  # 0 if dropped

    def _frame_block(self, rows: np.ndarray) -> np.ndarray:
        """B'[:, rows, rows] of a compact graph, scattered from F without the
        (span_dim, dim, dim) stack."""
        block = rows[:, None], rows
        return _unpack(self._f[block], self._slot[block], self.span_dim)

    def project(self, a: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the span of one matrix or a stack of
        them, by least squares against the flattened basis: exact for any basis."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrices, got {a.shape}")
        flat = _flat_basis(self)
        targets = a.reshape(-1, self.dim * self.dim).T
        return (flat @ np.linalg.lstsq(flat, targets, rcond=None)[0]).T.reshape(a.shape)


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


def frequency_components(
    rep: CircleRep, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> list[FrequencyComponent]:
    """Components A_m = sum_{s_j - s_k = m} P_j seed P_k, sorted by m, with
    ||A_m||_HS > eq_tol * ||seed||_HS; the representation must be valid.  Read
    from the seed's orbit graph as s ||A'_m||_HS B_m.  Raises ValueError if a
    component has an entry too large for a float."""
    graph = orbit_graph(rep, seed, tol, allow_nonpositive=True)
    comps = graph.basis * graph._norms[:, None, None]
    if max_abs(comps) * graph._scale == math.inf:
        raise ValueError("a frequency component has an entry too large for a float")
    return [FrequencyComponent(m, a) for m, a in zip(graph._ms.tolist(), comps * graph._scale)]


_EXPLORE = "pass allow_nonpositive=True (--allow-nonpositive) to explore anyway"


def _positivity_check(seed: np.ndarray, scale: float, tol: Tolerance) -> None:
    """Raise ValueError unless eig_hermitian finds the seed, as seed / s and s from
    orbit_graph, Hermitian (the only error it can raise here) and its smallest
    eigenvalue is >= -eq_tol * (its spectral norm), decided on seed / s: scale-free."""
    try:
        eigvals, _ = eig_hermitian(seed, tol)  # diagonalizes the Hermitian part
    except ValueError:
        raise ValueError(f"seed is not positive semidefinite (not Hermitian); {_EXPLORE}") from None
    if eigvals[0] < -tol.eq_tol * max(-eigvals[0], eigvals[-1]):
        low = float(eigvals[0]) * scale  # a Python float: an overflow reads -inf, no numpy warning
        raise ValueError(f"seed is not positive semidefinite (min eigenvalue {low:.3g}); {_EXPLORE}")


def orbit_graph(
    rep: CircleRep,
    seed: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    allow_nonpositive: bool = False,
) -> OperatorGraph:
    """Span of the conjugation orbit of the seed: the components A_m with
    ||A_m||_HS > eq_tol * ||seed||_HS, normalized.  The seed is decomposed here,
    once: F is M' = W^dagger (seed / s) W (s from _unit_scale, so no square
    overflows) divided on each entry by the norm of its component, 0 if dropped.
    ValueError on a malformed or non-finite seed, then, unless allow_nonpositive,
    on a non-PSD one.  The rep must be valid; that is not checked."""
    unit, scale = _unit_scale(rep._operator(seed))
    labels, w = rep._block_basis
    freqs = np.array(rep.freqs, dtype=object)  # exact differences of int64 frequencies
    ms, pair = np.unique(np.subtract.outer(freqs, freqs), return_inverse=True)
    pair = pair.reshape(len(freqs), -1)[labels[:, None], labels]  # index in ms of s_a - s_b
    frame = adjoint(w) @ unit @ w
    squares = np.bincount(pair.ravel(), np.abs(frame.ravel()) ** 2, len(ms))
    kept = squares > tol.eq_tol**2 * squares.sum()
    norms = np.sqrt(squares)
    f = np.divide(frame, norms[pair], out=np.zeros_like(frame), where=kept[pair])
    slot = np.where(kept, np.cumsum(kept) - 1, -1)[pair]
    if not allow_nonpositive:
        _positivity_check(unit, scale, tol)
    return OperatorGraph._compact(w, f, slot, ms[kept], norms[kept], scale)


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
    # the span ignores the seed's scale; taking it out keeps the conjugates finite
    seed, _ = _unit_scale(rep._operator(seed))
    basis, _ = gram_schmidt_operators(rep._conjugates(seed, n_samples), tol)
    return OperatorGraph(dim=rep.dim, basis=basis)


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
    and ||(I - P_b) B_a||_2 (Kato 1966): equal for spans of one dimension, and
    1 for B from the larger span otherwise, so only that n^2-by-k one is formed.
    Read as sqrt(1 - sigma_min^2) of B_a^dagger B_b, the same angles would lose
    ~1e-8 to cancellation on spans that agree.
    """
    x, y = sorted((_flat_basis(a), _flat_basis(b)), key=lambda flat: flat.shape[1])
    return float(np.linalg.norm(y - x @ (adjoint(x) @ y), 2)) if y.shape[1] else 0.0


def _compact_adjoint_residual(graph: OperatorGraph) -> float:
    """is_operator_system's adjoint residual for a compact graph, in O(n^2).
    The adjoint of the element at m lies on the entries of the one at -m, so
    its projection has the one coefficient <B'_{-m}, B'_m^dagger> = sum
    conj(F) conj(F^T) over those entries."""
    f, slot, k = graph._f, graph._slot, graph.span_dim
    adj = f.T.conj()  # B'_j^dagger on the entries where slot.T == j
    on = slot >= 0
    terms = f[on].conj() * adj[on]
    coeffs = np.bincount(slot[on], terms.real, k) + 1j * np.bincount(slot[on], terms.imag, k)
    adj[on] -= coeffs[slot[on]] * f[on]
    owner = slot.T >= 0
    squares = np.bincount(slot.T[owner], np.abs(adj[owner]) ** 2, k)
    return float(np.sqrt(squares.max(initial=0.0)))


def is_operator_system(
    graph: OperatorGraph, tol: Tolerance = DEFAULT_TOL
) -> OperatorSystemCheck:
    """Check the two operator-system axioms: identity membership, adjoint closure.

    The identity residual is max_abs(I - Pi(I)) in the original frame and the
    adjoint residual is max_j ||B_j^dagger - Pi(B_j^dagger)||_HS over the unit
    basis elements, Pi the HS projection onto the span.  A compact (orbit)
    graph gets the adjoint residual from F and its slots in O(n^2), in the
    frame, and Pi(I) = conj(tr F) W F_0 W^dagger (I is all at m = 0) from the
    product it shares with its seed's pinching.  A graph built from a basis
    projects its stack; that basis must be HS-orthonormal within eq_tol, else
    ValueError names the Gram residual."""
    if graph._f is None:
        flat = graph.basis.reshape(graph.span_dim, graph.dim * graph.dim)
        gram_res = max_abs(flat.conj() @ flat.T - np.eye(graph.span_dim))
        if gram_res > tol.eq_tol:
            raise ValueError(f"graph basis is not HS-orthonormal (Gram residual {gram_res:.3g})")
        eye = np.eye(graph.dim, dtype=complex)
        id_res = max_abs(eye - graph.project(eye))
        adj = np.conj(graph.basis.transpose(0, 2, 1))
        adj_res = float(np.linalg.norm(adj - graph.project(adj), axis=(1, 2)).max(initial=0.0))
    else:
        id_res = max_abs(np.eye(graph.dim) - np.trace(graph._f).conj() * graph._f_zero)
        adj_res = _compact_adjoint_residual(graph)
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

    Read from the seed's orbit graph, in the block frame, where HS products
    and the adjoint are unchanged, from the unit-norm F^ and G^ and the kept
    norms: h = <F^^dagger, G^> ||G|| / ||F||.
    """
    if sorted(rep.freqs) != [-1, 1]:
        raise ValueError("adjoint_closure_scalar requires a two-block representation")
    graph = orbit_graph(rep, seed, tol, allow_nonpositive=True)
    f, slot, norms = graph._f, graph._slot, graph._norms
    # F or G is zero when orbit_graph drops it, a cut relative to the seed
    index = {m: j for j, m in enumerate(graph._ms.tolist())}
    if 2 not in index:
        return 0.0 if -2 not in index else None
    f_star = np.where(slot == index[2], f, 0.0).T.conj()
    g = np.where(slot == index.get(-2, -1), f, 0.0)  # F is 0 where slot is -1
    c = np.vdot(f_star, g)
    if np.linalg.norm(g - c * f_star) > tol.eq_tol:
        return None
    ratio = norms[index[-2]] / norms[index[2]] if -2 in index else 0.0  # ||G||_HS / ||F||_HS
    return complex(c * ratio)


def two_block_maximal_graph(
    p_plus: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> OperatorGraph:
    """Largest span invariant under a two-block action, h*P+ + q*P- + (off-block
    part): with eigenvectors u_a of P+ and w_b of P-, the basis is P+/sqrt(r),
    P-/sqrt(n-r) (unless zero) and the matrix units |u_a><w_b|, |w_b><u_a|."""
    rep = two_block_rep(p_plus, tol)  # raises unless a projection
    n = rep.dim
    labels, frame = rep._block_basis
    plus, minus = frame[:, labels == 0], frame[:, labels == 1]
    blocks = [w @ adjoint(w) / math.sqrt(w.shape[1]) for w in (plus, minus) if w.shape[1]]
    corner = np.einsum("ia,jb->abij", plus, minus.conj()).reshape(-1, n, n)
    basis = np.concatenate([np.array(blocks), corner, corner.conj().transpose(0, 2, 1)])
    return OperatorGraph(dim=n, basis=basis)
