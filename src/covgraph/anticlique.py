"""Certification of projections as quantum codes for operator graphs.

A projection P of rank >= 2 is an anticlique for a span V when every
element compresses to a multiple of P:  P A P = c_A P.  Over an
HS-orthonormal basis the check is linear, so certifying the basis
certifies the whole span.  The best constant for a basis element is the
least-squares one, c_A = Tr(P A P) / Tr(P).

The check runs in Knill-Laflamme form (Knill & Laflamme, PRA 55, 900,
1997): with V (n x r) an isometry onto the range of P, P A P = c_A P
exactly when V^dagger A V = c_A I_r.  That costs 2 n^2 r operations per
basis element instead of the 2 n^3 of forming P A P, and the residual
V (V^dagger A V - c_A I) V^dagger is the same matrix P A P - c_A P.
``verify_anticlique`` gets V from one eigh of P; a representation's own
blocks come with their isometries (``CircleRep._block_basis``).

Spectral candidates come from the frequency partition: each spectral
projection of U_phi is a sum of rep projections, so no eigensolver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleRep
from .graphs import OperatorGraph
from .linalg import DEFAULT_TOL, Tolerance, _phase_clusters, adjoint, fingerprint, is_projection

__all__ = [
    "AnticliqueVerdict",
    "SpectralVerdict",
    "MergedSpectrum",
    "verify_anticlique",
    "anticliques_from_spectrum",
    "merged_spectrum_angles",
]


@dataclass(frozen=True)
class AnticliqueVerdict:
    """Outcome of one compression check: constants, worst residual, pass flag."""

    passed: bool
    constants: tuple[complex, ...]
    max_residual: float
    code_dimension: int
    witness: tuple[int, str] | None  # (worst basis index, residual fingerprint)


@dataclass(frozen=True)
class SpectralVerdict:
    phi: float
    eigenphase: float
    verdict: AnticliqueVerdict


@dataclass(frozen=True)
class MergedSpectrum:
    """Angle 2*pi*p/q at which representation eigenphases collide."""

    numerator: int
    denominator: int
    phi: float
    partition: tuple[tuple[int, ...], ...]  # groups of frequency indices


def verify_anticlique(
    p: np.ndarray, graph: OperatorGraph, tol: Tolerance = DEFAULT_TOL
) -> AnticliqueVerdict:
    """Check P A P = c_A P over the graph basis.

    Passes iff the worst residual is <= eq_tol and the code dimension
    (rank of P) is at least 2.  Rank-1 projections are admitted but can
    never pass; rank 0 and non-projections are rejected outright.
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (graph.dim, graph.dim):
        raise ValueError(f"expected a {graph.dim}x{graph.dim} projection, got {p.shape}")
    if not is_projection(p, tol):
        raise ValueError("candidate is not an orthogonal projection within eq_tol")
    rank = int(round(np.trace(p).real))
    if rank == 0:
        raise ValueError("candidate projection has rank 0")
    _, vecs = np.linalg.eigh(p)  # ascending: the last rank columns span the range
    return _knill_laflamme(adjoint(graph._w) @ vecs[:, -rank:], graph, tol)


def _knill_laflamme(v: np.ndarray, graph: OperatorGraph, tol: Tolerance) -> AnticliqueVerdict:
    """The compression check on an isometry V' (n x r) onto the range of P, in
    the graph's frame W (V = W V').

    X_A = V'^dagger B' V' over the rows where V' is nonzero, for the whole frame
    basis in one product, c_A = tr X_A / r, and the residual of A is
    max_abs(V (X_A - c_A I) V^dagger) = max_abs(P A P - c_A P), 0 where
    X_A - c_A I is.  The witness is the last basis index attaining the maximum.
    """
    rank = v.shape[1]
    rows = np.flatnonzero(v.any(axis=1))
    v = v[rows]
    iso = graph._w[:, rows] @ v  # V
    x = adjoint(v) @ graph._frame_block(rows) @ v
    diagonals = x.reshape(len(x), rank * rank)[:, :: rank + 1]  # a view: x is a fresh product
    constants = diagonals.sum(axis=1) / rank
    diagonals -= constants[:, None]
    live = x.reshape(len(x), rank * rank).any(axis=1)
    residuals = np.zeros(len(x))
    residuals[live] = np.abs(iso @ x[live] @ adjoint(iso)).max(axis=(1, 2))
    worst = len(residuals) - 1 - int(np.argmax(residuals[::-1])) if len(residuals) else None
    max_residual = 0.0 if worst is None else float(residuals[worst])
    passed = max_residual <= tol.eq_tol and rank >= 2
    return AnticliqueVerdict(
        passed=passed,
        constants=tuple(constants.tolist()),
        max_residual=max_residual,
        code_dimension=rank,
        witness=None if passed or worst is None else (
            worst, fingerprint(iso @ x[worst] @ adjoint(iso))),
    )


def anticliques_from_spectrum(
    rep: CircleRep,
    graph: OperatorGraph,
    phis: list[float],
    tol: Tolerance = DEFAULT_TOL,
) -> list[SpectralVerdict]:
    """Certify every rank >= 2 spectral projection of U_phi, for each phi.

    Each is the sum of the P_j whose phases s_j*phi agree within
    degeneracy_tol (chained), at their rank-weighted circular mean phase.
    Returns all verdicts, passing and failing, tagged by the angle and the
    eigenphase, in ascending eigenphase per angle.
    """
    if graph.dim != rep.dim:
        raise ValueError("graph and representation dimensions differ")
    rep._require_valid(tol)
    ranks = np.bincount(rep._block_basis[0], minlength=len(rep.freqs))
    blocks = np.flatnonzero(ranks)  # a zero projection adds no eigenvalue
    results = []
    for phi in phis:
        phases = np.multiply(rep.freqs, phi)[blocks] % (2.0 * math.pi)
        for eigenphase, group in _phase_clusters(phases, ranks[blocks], tol.degeneracy_tol):
            if ranks[blocks[group]].sum() >= 2:
                verdict = _knill_laflamme(rep._isometry(blocks[group], graph._w), graph, tol)
                results.append(SpectralVerdict(phi=phi, eigenphase=eigenphase, verdict=verdict))
    return results


def merged_spectrum_angles(rep: CircleRep) -> list[MergedSpectrum]:
    """All angles 2*pi*p/q (q up to the max frequency difference) where at
    least two representation frequencies share an eigenphase.

    exp(i*s_j*phi) = exp(i*s_k*phi) at phi = 2*pi*p/q (p, q coprime) exactly
    when q divides s_j - s_k, so the induced grouping is s mod q, computed
    in integer arithmetic.  phi = 0 merges everything trivially and is not
    reported.
    """
    freqs = rep.freqs
    diffs = {abs(a - b) for a in freqs for b in freqs if a != b}
    if not diffs:
        return []
    out = []
    for q in range(2, max(diffs) + 1):
        classes: dict[int, list[int]] = {}
        for idx, s in enumerate(freqs):
            classes.setdefault(s % q, []).append(idx)
        if all(len(group) < 2 for group in classes.values()):
            continue
        partition = tuple(
            sorted((tuple(group) for group in classes.values()), key=lambda g: g[0])
        )
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue  # reduces to a smaller denominator already emitted
            out.append(
                MergedSpectrum(
                    numerator=p,
                    denominator=q,
                    phi=2.0 * math.pi * p / q,
                    partition=partition,
                )
            )
    out.sort(key=lambda ms: ms.phi)
    return out
