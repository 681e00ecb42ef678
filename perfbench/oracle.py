"""Independent numpy oracle for the benchmark's certification jobs.

Nothing here imports covgraph.  Each construction is written from its
defining formula (generalized Bell vectors, the 4x4 projection family, the
two-block representation) and each decision uses a different numerical
route from the library:

* the orbit span is the row space of the stacked, flattened frequency
  components, found by SVD (the library uses modified Gram-Schmidt);
* the compression check P B P = c P runs over that SVD basis;
* spectral projections of U_phi come from ``np.linalg.eigh`` of the single
  Hermitian matrix cos(a) C + sin(a) S at a generic angle a (the library
  diagonalizes C first and then S inside each degenerate block).

Verdicts are compared with the library's default equality tolerance, so a
disagreement is a library defect rather than a different convention.
"""

from __future__ import annotations

import math

import numpy as np

EQ_TOL = 1e-10  # the library's documented default equality tolerance
RANK_TOL = 1e-9  # relative singular-value cut for span dimensions
CLUSTER_GAP = 1e-6  # eigenvalue gap separating spectral projections
GENERIC_ANGLE = 1.0  # radians; cos(t - 1) separates every rational eigenphase t


# ---------------------------------------------------------------------------
# constructions


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def bell_projections(d: int) -> list[np.ndarray]:
    """P_s = sum_n |psi_{s,n}><psi_{s,n}| for s = 1..d, with
    psi_{s,n} = d^{-1/2} sum_{k=1..d} exp(2 pi i s k / d) |k> |k - n mod d>."""
    projs = []
    for s in range(1, d + 1):
        vecs = np.zeros((d, d * d), dtype=complex)
        for n in range(1, d + 1):
            for k in range(1, d + 1):
                second = (k - n) % d  # |k - n mod d>, 0-based
                vecs[n - 1, d * (k - 1) + second] = np.exp(2j * math.pi * s * k / d)
        vecs /= math.sqrt(d)
        projs.append(vecs.T @ vecs.conj())
    return projs


def first_factor_projection(d: int, j: int) -> np.ndarray:
    """Projection onto |j> (x) C^d."""
    diag = np.zeros(d * d)
    diag[d * (j - 1) : d * j] = 1.0
    return np.diag(diag).astype(complex)


def family_matrix(tau: float, z1: float, z2: float, z4: float, k: int) -> np.ndarray:
    """The 4x4 rank-2 family member in the basis (e+, h+, e-, h-)."""
    rho = math.sqrt(max(0.25 - tau * tau, 0.0))
    z3 = z1 + z4 - z2 + math.pi * (2 * k + 1)
    corner = np.array(
        [[tau * np.exp(1j * z1), rho * np.exp(1j * z2)],
         [rho * np.exp(1j * z3), tau * np.exp(1j * z4)]]
    )
    q = np.eye(4, dtype=complex) / 2.0
    q[:2, 2:] = corner
    q[2:, :2] = corner.conj().T
    return q


TWO_BLOCK_FREQS = (1, -1)
TWO_BLOCK_PROJS = (np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
                   np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))


# ---------------------------------------------------------------------------
# pipeline


def span_basis(freqs, projs, seed) -> np.ndarray:
    """Orthonormal basis, shape (k, n, n), of the conjugation-orbit span."""
    n = seed.shape[0]
    comps: dict[int, np.ndarray] = {}
    for sj, pj in zip(freqs, projs):
        for sk, pk in zip(freqs, projs):
            comps[sj - sk] = comps.get(sj - sk, 0) + pj @ seed @ pk
    return row_space(np.array([c.reshape(-1) for c in comps.values()])).reshape(-1, n, n)


def row_space(flat: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``flat``, by SVD."""
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > RANK_TOL * max(1.0, s[0] if s.size else 0.0)
    return vh[keep]


def span_residual(basis: np.ndarray, ops: np.ndarray) -> float:
    """Largest max-norm distance of the operators in ``ops`` from the span."""
    flat_b = basis.reshape(len(basis), -1)
    flat_o = ops.reshape(len(ops), -1)
    proj = (flat_o @ flat_b.conj().T) @ flat_b
    return float(np.max(np.abs(flat_o - proj))) if len(ops) else 0.0


def sampled_rank_consistent(freqs, projs, seed, basis, n_samples: int) -> tuple[int, bool]:
    """Rank of N uniformly sampled conjugates, and whether they lie in the span."""
    phases = [np.exp(1j * np.array(freqs) * 2.0 * math.pi * k / n_samples) for k in range(n_samples)]
    us = [sum(c * p for c, p in zip(ph, projs)) for ph in phases]
    orbit = np.array([u @ seed @ u.conj().T for u in us])
    rank = len(row_space(orbit.reshape(n_samples, -1)))
    return rank, rank == len(basis) and span_residual(basis, orbit) <= 1e-8


def compression(p: np.ndarray, basis: np.ndarray) -> tuple[bool, int]:
    """(P passes P B P = c P over the basis, code dimension of P)."""
    rank = int(round(np.trace(p).real))
    pbp = p @ basis @ p
    consts = np.trace(pbp, axis1=1, axis2=2) / rank
    residual = float(np.max(np.abs(pbp - consts[:, None, None] * p))) if len(basis) else 0.0
    return residual <= EQ_TOL and rank >= 2, rank


def operator_system(basis: np.ndarray) -> tuple[bool, bool]:
    """(span contains the identity, span is closed under adjoint)."""
    n = basis.shape[1]
    contains_identity = span_residual(basis, np.eye(n, dtype=complex)[None]) <= EQ_TOL
    adjoint_closed = span_residual(basis, basis.conj().transpose(0, 2, 1)) <= EQ_TOL
    return contains_identity, adjoint_closed


def merged_angles(freqs) -> list[tuple[int, int]]:
    """(p, q) with phi = 2 pi p / q, sorted by phi, at which two of the
    frequencies share an eigenphase: q divides s_j - s_k, p coprime to q."""
    out = []
    max_diff = max(freqs) - min(freqs)
    for q in range(2, max_diff + 1):
        if any((a - b) % q == 0 for a in freqs for b in freqs if a != b):
            out.extend((p, q) for p in range(1, q) if math.gcd(p, q) == 1)
    return sorted(out, key=lambda pq: pq[0] / pq[1])


def spectral_projections(u: np.ndarray) -> list[np.ndarray]:
    """Spectral projections of a unitary via eigh of cos(a) C + sin(a) S."""
    c = (u + u.conj().T) / 2.0
    s = (u - u.conj().T) / 2.0j
    vals, vecs = np.linalg.eigh(math.cos(GENERIC_ANGLE) * c + math.sin(GENERIC_ANGLE) * s)
    groups = np.split(np.arange(len(vals)), np.nonzero(np.diff(vals) > CLUSTER_GAP)[0] + 1)
    return [vecs[:, g] @ vecs[:, g].conj().T for g in groups]


def spectrum_verdicts(freqs, projs, basis, n_angles: int = 2) -> tuple[list, list]:
    """Merged angles used and the sorted [angle index, code dimension, passed]
    of every rank >= 2 spectral projection of U_phi at those angles."""
    angles = merged_angles(freqs)[:n_angles]
    verdicts = []
    for idx, (p, q) in enumerate(angles):
        phi = 2.0 * math.pi * p / q
        u = sum(np.exp(1j * s * phi) * proj for s, proj in zip(freqs, projs))
        for proj in spectral_projections(u):
            if int(round(np.trace(proj).real)) >= 2:
                passed, rank = compression(proj, basis)
                verdicts.append([idx, rank, passed])
    return [list(a) for a in angles], sorted(verdicts)


# ---------------------------------------------------------------------------
# expected reports, keyed by assertion name


def _expect(passed: bool, **details) -> dict:
    return {"passed": bool(passed), "details": details}


def _rc(assertions: dict) -> int:
    return 0 if all(a["passed"] for a in assertions.values()) else 1


def expect_bell(d: int, j: int) -> dict:
    projs = bell_projections(d)
    freqs = tuple(range(1, d + 1))
    seed = first_factor_projection(d, j)
    basis = span_basis(freqs, projs, seed)
    pinch = sum(p @ seed @ p for p in projs)
    pinch_ok = float(np.max(np.abs(pinch - np.eye(d * d) / d))) <= EQ_TOL
    ident, adj = operator_system(basis)
    assertions = {
        "pinch-is-identity-over-d": _expect(pinch_ok, span_dim=len(basis)),
        "graph-contains-identity": _expect(ident),
        "graph-adjoint-closed": _expect(adj),
    }
    for s, p in enumerate(projs, start=1):
        passed, rank = compression(p, basis)
        assertions[f"anticlique-s-{s}"] = _expect(passed and rank == d, code_dimension=rank)
    return {"rc": _rc(assertions), "assertions": assertions}


def _family_point(tau, z1, z2, z4, k) -> tuple[np.ndarray, np.ndarray, list]:
    q = family_matrix(tau, z1, z2, z4, k)
    basis = span_basis(TWO_BLOCK_FREQS, TWO_BLOCK_PROJS, q)
    verdicts = [compression(p, basis) for p in TWO_BLOCK_PROJS]
    return q, basis, verdicts


def expect_demo4(tau, z1, z2, z4, k) -> dict:
    q, basis, verdicts = _family_point(tau, z1, z2, z4, k)
    ident, adj = operator_system(basis)
    assertions = {
        "projection-idempotent": _expect(float(np.max(np.abs(q @ q - q))) <= 1e-12),
        "projection-trace-2": _expect(abs(np.trace(q).real - 2.0) <= 1e-12),
        # I - Q negates the corner, which keeps the magnitudes and the phase
        # constraint, so the complement is always a family member.
        "complement-in-family": _expect(True),
        "graph-contains-identity": _expect(ident, span_dim=len(basis)),
        "graph-adjoint-closed": _expect(adj),
    }
    for name, (passed, rank) in zip(("anticlique-p-plus", "anticlique-p-minus"), verdicts):
        assertions[name] = _expect(passed, code_dimension=rank)
    return {"rc": _rc(assertions), "assertions": assertions}


def expect_scan(taus: list[float], seed: int) -> dict:
    """Scan draws (z1, z2, z4) per point from default_rng(seed), k = 0."""
    rng = np.random.default_rng(seed)
    assertions = {}
    for i, tau in enumerate(taus):
        z1, z2, z4 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=3))
        q, basis, verdicts = _family_point(tau, z1, z2, z4, 0)
        idem = float(np.max(np.abs(q @ q - q))) <= 1e-12
        ok = idem and all(passed for passed, _ in verdicts)
        assertions[f"point-{i}"] = _expect(ok, span_dim=len(basis))
    assertions["aggregate"] = _expect(
        all(a["passed"] for a in assertions.values()), points=len(taus)
    )
    return {"rc": _rc(assertions), "assertions": assertions}


def expect_verify(freqs, projs, seed, candidate, n_samples: int, spectrum: bool) -> dict:
    """Expected ``verify --samples N`` report, and optionally the verdicts of
    the spectral search at the first two merged angles."""
    basis = span_basis(freqs, projs, seed)
    sampled_dim, consistent = sampled_rank_consistent(freqs, projs, seed, basis, n_samples)
    passed, rank = compression(candidate, basis)
    assertions = {
        "sampled-span-consistent": _expect(
            consistent, analytic_dim=len(basis), sampled_dim=sampled_dim
        ),
        "anticlique": _expect(passed, code_dimension=rank),
    }
    out = {"rc": _rc(assertions), "assertions": assertions}
    if spectrum:
        out["angles"], out["spectrum"] = spectrum_verdicts(freqs, projs, basis)
    return out
