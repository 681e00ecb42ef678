"""Certification of projections as quantum codes for operator graphs.

A projection P of rank >= 2 is an anticlique for a span V when every
element compresses to a multiple of P:  P A P = c_A P.  Over an
HS-orthonormal basis the check is linear, so certifying the basis
certifies the whole span.  The best constant for a basis element is the
least-squares one, c_A = Tr(P A P) / Tr(P).

The check runs in Knill-Laflamme form (Knill & Laflamme, PRA 55, 900,
1997): with V (n x r) an isometry onto the range of P, P A P = c_A P
exactly when V^dagger A V = c_A I_r.  That costs 2 n^2 r operations per
basis element instead of the 2 n^3 of forming P A P, and since
P A P - c_A P = V (V^dagger A V - c_A I) V^dagger with V an isometry, the
residual ||V^dagger A V - c_A I||_HS is ||P A P - c_A P||_HS without a
return to the n x n basis.  ``verify_anticlique`` gets V from one eigh of P;
a sum of a representation's blocks is a set of rows of its block frame W,
and V = W[:, rows].

Spectral candidates come from the frequency partition: each spectral
projection of U_phi is a sum of rep projections, so no eigensolver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleRep, _require_finite_angles
from .graphs import OperatorGraph
from .linalg import DEFAULT_TOL, Tolerance, _phase_clusters, adjoint, is_projection

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
    """Outcome of one compression check: constants, worst residual
    max_j ||P B_j P - c_j P||_HS, pass flag, and a failed check's witness."""

    passed: bool
    constants: tuple[complex, ...]
    max_residual: float
    code_dimension: int
    witness: tuple[int, int, int] | None  # (worst j, row, col) of its largest entry


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

    Passes iff the worst residual ||P B_j P - c_j P||_HS is <= eq_tol and
    the code dimension (rank of P) is at least 2.  Rank-1 projections are
    admitted but can never pass; rank 0 and non-projections are rejected
    outright.
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


def _knill_laflamme(code: np.ndarray, graph: OperatorGraph, tol: Tolerance) -> AnticliqueVerdict:
    """The compression check on a code in the graph's frame W, given as the
    frame rows it occupies (V = W[:, rows], for an orbit graph of the rep whose
    blocks they are) or as an isometry V' (n x r) onto the range of P (V = W V').

    X_A = V^dagger A V for the whole frame basis in one product, c_A = tr X_A / r,
    and the residual of A is ||X_A - c_A I||_HS = ||P A P - c_A P||_HS, read in
    the frame.  A failed check's witness is (j, row, col): the last basis index
    attaining the maximum and the first largest entry, row-major, of
    P B_j P - c_j P, the one matrix transformed back; None when every residual
    is exactly 0.
    """
    if code.ndim == 1:
        rank, x = len(code), graph._frame_block(code)
    else:
        rank, x = code.shape[1], adjoint(code) @ graph._frame_basis @ code
    flat = x.reshape(len(x), rank * rank)  # a view: x is a fresh array
    constants = flat[:, :: rank + 1].sum(axis=1) / rank
    flat[:, :: rank + 1] -= constants[:, None]
    residuals = np.linalg.norm(flat, axis=1)
    worst = len(residuals) - 1 - int(np.argmax(residuals[::-1])) if len(residuals) else None
    max_residual = 0.0 if worst is None else float(residuals[worst])
    passed = max_residual <= tol.eq_tol and rank >= 2
    witness = None
    if not passed and max_residual > 0.0:
        iso = graph._w[:, code] if code.ndim == 1 else graph._w @ code
        flat_index = int(np.argmax(np.abs(iso @ x[worst] @ adjoint(iso))))  # row-major
        witness = (worst, *divmod(flat_index, len(iso)))
    return AnticliqueVerdict(
        passed=passed,
        constants=tuple(constants.tolist()),
        max_residual=max_residual,
        code_dimension=rank,
        witness=witness,
    )


def anticliques_from_spectrum(
    rep: CircleRep,
    graph: OperatorGraph,
    phis: list[float],
    tol: Tolerance = DEFAULT_TOL,
) -> list[SpectralVerdict]:
    """Certify every rank >= 2 spectral projection of U_phi, for each phi.

    Each is the sum of the P_j whose phases s_j*phi agree within
    1e-8 (chained), at their rank-weighted circular mean phase.
    Returns all verdicts, passing and failing, tagged by the angle and the
    eigenphase, in ascending eigenphase per angle.
    """
    if graph.dim != rep.dim:
        raise ValueError("graph and representation dimensions differ")
    _require_finite_angles(phis)
    rep._require_valid(tol)
    labels, w = rep._block_basis
    ranks = np.bincount(labels, minlength=len(rep.freqs))
    blocks = np.flatnonzero(ranks)  # a zero projection adds no eigenvalue
    results = []
    for phi in phis:
        phases = np.multiply(rep.freqs, phi)[blocks] % (2.0 * math.pi)
        for eigenphase, group in _phase_clusters(phases, ranks[blocks]):
            if ranks[blocks[group]].sum() >= 2:
                rows = rep._frame_rows(blocks[group])  # rows of this rep's frame W
                code = rows if graph._w is w else adjoint(graph._w) @ w[:, rows]
                verdict = _knill_laflamme(code, graph, tol)
                results.append(SpectralVerdict(phi=phi, eigenphase=eigenphase, verdict=verdict))
    return results


def merged_spectrum_angles(rep: CircleRep) -> list[MergedSpectrum]:
    """All angles 2*pi*p/q (q up to the max frequency difference) where at
    least two representation frequencies share an eigenphase.

    exp(i*s_j*phi) = exp(i*s_k*phi) at phi = 2*pi*p/q (p, q coprime) exactly
    when q divides s_j - s_k, so the induced grouping is s mod q, computed
    in integer arithmetic.  phi = 0 merges everything trivially and is not
    reported.  Each q dividing the span D = max s - min s adds angles, at
    least D - 1 in all, so a span above 10**5 raises ValueError.
    """
    freqs = rep.freqs
    span = max(freqs) - min(freqs)
    if span > 10**5:
        raise ValueError(f"frequencies span {span}, above 10**5: "
                         f"the merged angles would number at least {span - 1}")
    out = []
    for q in range(2, span + 1):
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
