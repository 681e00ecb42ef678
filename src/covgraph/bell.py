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

from dataclasses import dataclass

import numpy as np

from .anticlique import AnticliqueVerdict, verify_anticlique
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


def bell_state(d: int, s: int, n: int) -> np.ndarray:
    """The generalized Bell vector psi_{s,n} in C^(d*d); the d*d of them are
    pairwise orthonormal."""
    if d < 2:
        raise ValueError("dimension d must be at least 2")
    if not (1 <= s <= d and 1 <= n <= d):
        raise ValueError(f"indices s, n must lie in 1..{d}")
    v = np.zeros(d * d, dtype=complex)
    for k0 in range(d):  # k0 = k - 1
        j0 = (k0 - n) % d  # 0-based second-factor index of |k - n mod d>
        v[d * k0 + j0] = np.exp(2j * np.pi * s * (k0 + 1) / d)
    return v / np.sqrt(d)


def bell_rep(d: int) -> CircleRep:
    """Circle representation with frequencies 1..d and P_s spanning the d
    Bell vectors psi_{s,1..d}."""
    if d < 2:
        raise ValueError("dimension d must be at least 2")
    projections = []
    for s in range(1, d + 1):
        p = np.zeros((d * d, d * d), dtype=complex)
        for n in range(1, d + 1):
            v = bell_state(d, s, n)
            p += np.outer(v, v.conj())
        projections.append(p)
    return CircleRep(freqs=tuple(range(1, d + 1)), projections=tuple(projections))


def first_factor_projection(d: int, j: int) -> np.ndarray:
    """Rank-d projection onto |j> (x) C^d, built from the defining sum of
    product-basis outer products."""
    if d < 2:
        raise ValueError("dimension d must be at least 2")
    if not 1 <= j <= d:
        raise ValueError(f"index j must lie in 1..{d}")
    p = np.zeros((d * d, d * d), dtype=complex)
    for k in range(1, d + 1):
        v = np.zeros(d * d, dtype=complex)
        v[d * (j - 1) + (j - k) % d] = 1.0
        p += np.outer(v, v.conj())
    return p


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
    passed: bool


def bell_code_report(d: int, j: int, tol: Tolerance = DEFAULT_TOL) -> BellCodeReport:
    """Certify that the first-factor projection seeds an operator system for
    which every spectral block P_s is a code of dimension d.

    Asserts three facts: the pinching of the seed is I/d, the orbit span
    contains the identity and is adjoint-closed, and every P_s passes the
    compression check.
    """
    rep = bell_rep(d)
    seed = first_factor_projection(d, j)
    pinch_residual = max_abs(rep.pinch(seed) - np.eye(d * d) / d)
    graph = orbit_graph(rep, seed, tol)
    system = is_operator_system(graph, tol)
    verdicts = tuple(verify_anticlique(p, graph, tol) for p in rep.projections)
    passed = (
        pinch_residual <= tol.eq_tol
        and system.contains_identity
        and system.adjoint_closed
        and all(v.passed and v.code_dimension == d for v in verdicts)
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
        passed=passed,
    )
