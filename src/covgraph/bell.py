"""Generalized Bell states on C^d (x) C^d and the circle representation they
carry: d orthogonal rank-d projections P_s summing to the identity, with
U_phi = sum_s exp(i*s*phi) P_s.

Labels follow the 1-based convention psi_{s,n} = (1/sqrt d) sum_k
exp(2 pi i s k / d) |k>|k - n mod d> with s, n, k in 1..d, stored in the
lexicographic product index d*(i-1) + (j-1).  Seeding the orbit span with
the projection onto |j> (x) C^d pinches to I/d, which makes every P_s a
code of dimension d for the resulting graph; ``bell_code_report`` runs
that whole certification pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .anticlique import AnticliqueVerdict, Assertion, _knill_laflamme
from .circle import CircleRep
from .graphs import OperatorGraph, is_operator_system, orbit_graph
from .linalg import DEFAULT_TOL, Tolerance, max_abs

__all__ = [
    "bell_state",
    "bell_rep",
    "first_factor_projection",
    "BellCodeReport",
    "bell_code_report",
]


def _require_dimension(d: int) -> None:
    if d < 2:
        raise ValueError("dimension d must be at least 2")


def _bell_vectors(d: int, s, n) -> np.ndarray:
    """The Bell vectors psi_{s,n} for arrays of 1-based indices s and n,
    broadcast together, as an array of shape (*broadcast shape, d*d)."""
    s, n = (a[..., None] for a in np.broadcast_arrays(s, n))
    k0 = np.arange(d)  # k - 1
    support = d * k0 + (k0 - n) % d  # index of |k>|k - n mod d>
    phases = np.exp(1j * (2 * np.pi * s * (k0 + 1) / d)) / np.sqrt(d)
    vecs = np.zeros((*support.shape[:-1], d * d), dtype=complex)
    np.put_along_axis(vecs, support, phases, axis=-1)
    return vecs


def bell_state(d: int, s: int, n: int) -> np.ndarray:
    """The generalized Bell vector psi_{s,n} in C^(d*d); the d*d of them are
    pairwise orthonormal."""
    _require_dimension(d)
    if not (1 <= s <= d and 1 <= n <= d):
        raise ValueError(f"indices s, n must lie in 1..{d}")
    return _bell_vectors(d, s, n)


@functools.lru_cache(maxsize=8)
def bell_rep(d: int) -> CircleRep:
    """Circle representation with frequencies 1..d and P_s spanning the d
    Bell vectors psi_{s,1..d}.  Its block frame is the Bell vectors
    themselves, so no eigh recovers one.  Cached per d and read-only, so a
    repeated report does not rebuild the (d, n, n) projection stack."""
    _require_dimension(d)
    index = np.arange(1, d + 1)
    # column d(s-1)+(n-1) is psi_{s,n}
    frame = _bell_vectors(d, index[:, None], index).reshape(d * d, d * d).T
    return CircleRep._from_frame(tuple(range(1, d + 1)), frame, np.repeat(np.arange(d), d))


def first_factor_projection(d: int, j: int) -> np.ndarray:
    """Rank-d projection onto |j> (x) C^d, the Kronecker product E_jj (x) I_d."""
    _require_dimension(d)
    if not 1 <= j <= d:
        raise ValueError(f"index j must lie in 1..{d}")
    return np.kron(np.diag(np.arange(1, d + 1) == j), np.eye(d, dtype=complex))


@dataclass(frozen=True)
class BellCodeReport:
    """Outcome of the full pipeline seeded by the first-factor projection."""

    d: int
    j: int
    pinch_residual: float  # || pinch(Q_j) - I/d ||_max
    graph: OperatorGraph
    contains_identity: bool
    adjoint_closed: bool
    identity_residual: float
    adjoint_residual: float
    verdicts: tuple[AnticliqueVerdict, ...]  # one per P_s, s = 1..d
    assertions: tuple[Assertion, ...]  # the pinch, the two axioms, then one per P_s

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def bell_code_report(d: int, j: int, tol: Tolerance = DEFAULT_TOL) -> BellCodeReport:
    """Certify that the first-factor projection seeds an operator system for
    which every spectral block P_s is a code of dimension d.

    Asserts three facts: the pinching of the seed is I/d, the orbit span
    contains the identity and is adjoint-closed, and every P_s passes the
    compression check at code dimension d.  The pinching is read from the
    orbit graph.
    """
    rep = bell_rep(d)
    seed = first_factor_projection(d, j)
    graph = orbit_graph(rep, seed, tol)
    pinch_residual = max_abs(graph._pinched_seed() - np.eye(d * d) / d)
    system = is_operator_system(graph, tol)
    verdicts = tuple(_knill_laflamme(rep._frame_rows(s), graph, tol) for s in range(d))
    assertions = (
        Assertion("pinch-is-identity-over-d", pinch_residual <= tol.eq_tol, pinch_residual,
                  {"span_dim": graph.span_dim}),
        Assertion("graph-contains-identity", system.contains_identity, system.identity_residual),
        Assertion("graph-adjoint-closed", system.adjoint_closed, system.adjoint_residual),
        *(v.assertion(f"anticlique-s-{s}", v.passed and v.code_dimension == d)
          for s, v in enumerate(verdicts, start=1)),
    )
    return BellCodeReport(
        d=d,
        j=j,
        pinch_residual=pinch_residual,
        graph=graph,
        contains_identity=system.contains_identity,
        adjoint_closed=system.adjoint_closed,
        identity_residual=system.identity_residual,
        adjoint_residual=system.adjoint_residual,
        verdicts=verdicts,
        assertions=assertions,
    )
