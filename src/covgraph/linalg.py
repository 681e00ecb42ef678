"""Dense complex linear algebra over the Hilbert-Schmidt geometry.

Everything here works on plain ``numpy`` arrays with complex entries;
column vectors are either 1-D arrays or n-by-1 matrices.  Eigenvalue and
singular-value problems go to LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "adjoint",
    "max_abs",
    "num_close",
    "hs_inner",
    "hs_norm",
    "is_projection",
    "gram_schmidt_operators",
    "eig_hermitian",
    "spectral_projections_unitary",
    "schmidt",
    "fingerprint",
]

@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared across the package.

    ``eq_tol`` governs equality/residual checks, ``degeneracy_tol`` the
    clustering of eigenphases.  ``eig_tol`` is kept for compatibility and
    must not exceed ``eq_tol``, but no eigensolver reads it: LAPACK solves
    to rounding without a convergence target.
    """

    eq_tol: float = 1e-10
    eig_tol: float = 1e-12
    degeneracy_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 <= t < math.inf for t in (self.eq_tol, self.eig_tol, self.degeneracy_tol)):
            raise ValueError("tolerances must be finite and non-negative")
        if self.eq_tol < self.eig_tol:
            raise ValueError("eq_tol must be >= eig_tol")


DEFAULT_TOL = Tolerance()


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint (conjugate transpose)."""
    return _as_complex(a).conj().T


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm; 0 for empty arrays."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def num_close(x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Absolute-plus-relative scalar comparison: |x-y| <= eq_tol*(1+max(|x|,|y|))."""
    return abs(x - y) <= tol.eq_tol * (1.0 + max(abs(x), abs(y)))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dagger B), conjugate-linear in A."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Frobenius norm, i.e. sqrt of the HS inner product of a with itself."""
    a = _as_complex(a)
    return float(math.sqrt(max(np.vdot(a, a).real, 0.0)))


def is_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff p is Hermitian and idempotent within eq_tol (max-norm)."""
    p = _as_complex(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    return max_abs(p - adjoint(p)) <= tol.eq_tol and max_abs(p @ p - p) <= tol.eq_tol


def fingerprint(a: np.ndarray, digits: int = 12) -> str:
    """Short deterministic hex digest of a matrix, for provenance metadata:
    entries rounded relative to the largest one, which is hashed with them."""
    a = _as_complex(a)
    scale = max_abs(a) or 1.0
    data = np.round(a / scale, digits) + 0.0  # normalize -0.0
    h = hashlib.sha1()
    h.update(str(a.shape).encode())
    h.update(f"{scale:.{digits - 1}e}".encode())
    h.update(data.tobytes())
    return h.hexdigest()[:16]


def gram_schmidt_operators(
    ops: list[np.ndarray] | tuple[np.ndarray, ...] | np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Orthonormalize a family of same-shape operators in the HS inner product.

    Gram-Schmidt in input order, projecting each input against the whole kept
    block at once, twice, on a copy divided by its largest entry.  An input
    whose residual is <= eq_tol * (largest input norm) is dropped as dependent,
    so the rank ignores the overall scale.  Raises ValueError on non-finite input.
    Returns (basis, rank, coefficients): basis is a (rank, *shape) array and
    ops_i = sum_j coefficients[i, j] basis_j, up to a dropped input's residual.
    """
    work = np.array(ops, dtype=complex)  # one stacked copy, orthonormalized in place
    _require_finite(work)
    scale = max_abs(work) or 1.0
    work /= scale  # so that no norm underflows or overflows
    k = len(work)
    flat = work.reshape(k, math.prod(work.shape[1:]))
    cut = tol.eq_tol * max(map(np.linalg.norm, flat), default=0.0)
    coeffs = np.zeros((k, k), dtype=complex)
    rank = 0
    for i in range(k):
        v, kept = flat[i], flat[:rank]
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            c = (kept @ v.conj()).conj()  # <b_j, v>
            v -= c @ kept
            coeffs[i, :rank] += c
        r = float(np.linalg.norm(v))
        if r > cut:
            flat[rank] = v / r
            coeffs[i, rank] = r
            rank += 1
    return work[:rank], rank, coeffs[:, :rank] * scale


def _require_finite(a: np.ndarray) -> None:
    # NaN compares false, so it would slip through every tolerance check
    if not np.all(np.isfinite(a)):
        raise ValueError("input has non-finite entries")


def _as_integer(value, message: str) -> int:
    """An int or an integral float as an int; anything else (2.5, "2", inf,
    nan, True) raises ValueError(message + ", got value")."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{message}, got {value!r}")


def _shannon_bits(weights) -> float:
    """Shannon entropy in bits of a probability vector; zero weights add nothing."""
    return float(-sum(w * math.log2(w) for w in weights if w > 0.0))


def eig_hermitian(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK, via numpy's eigh).

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    a @ V ~ V @ diag(eigenvalues).  Raises ValueError on non-square,
    non-finite or non-Hermitian input; the Hermitian part (A + A^dagger)/2
    is what gets diagonalized.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
    if max_abs(a - adjoint(a)) > tol.eq_tol:
        raise ValueError("matrix is not Hermitian within eq_tol")
    eigvals, v = np.linalg.eigh((a + adjoint(a)) / 2.0)
    return eigvals, v


def _cluster_sorted(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split the indices of an ascending array where neighbors differ by more than gap."""
    splits = np.flatnonzero(np.diff(values) > gap) + 1
    return np.split(np.arange(len(values)), splits) if len(values) else []


def _phase_clusters(phases: np.ndarray, weights: np.ndarray, gap: float) -> list[tuple]:
    """(weighted circular mean, indices) of each group of phases in [0, 2pi)
    whose circular neighbors differ by <= gap, sorted by the mean.  A mean
    within gap of 0 mod 2pi is 0.0, so it sorts first however it rounded."""
    order = np.argsort(phases, kind="stable")
    clusters = [order[c] for c in _cluster_sorted(phases[order], gap)]
    # the circle wraps: a cluster near 2pi may continue at 0
    if len(clusters) > 1 and (
        phases[clusters[0][0]] + 2.0 * math.pi - phases[clusters[-1][-1]] <= gap
    ):
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    result = []
    for idx in clusters:
        mean = float(np.angle(weights[idx] @ np.exp(1j * phases[idx])) % (2.0 * math.pi))
        result.append((0.0 if min(mean, 2.0 * math.pi - mean) <= gap else mean, idx))
    return sorted(result, key=lambda item: item[0])


def spectral_projections_unitary(
    u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]]:
    """Spectral resolution of a unitary: list of (eigenphase in [0, 2pi), projection).

    The commuting Hermitian pair C = (U+U^dagger)/2, S = (U-U^dagger)/(2i) is
    diagonalized jointly: C first, then S restricted to each degenerate
    eigenspace of C.  Eigenphases whose circular distance is at most
    degeneracy_tol are merged into a single projection.
    """
    u = _as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    n = u.shape[0]
    if max_abs(adjoint(u) @ u - np.eye(n)) > tol.eq_tol:
        raise ValueError("matrix is not unitary within eq_tol")
    c = (u + adjoint(u)) / 2.0
    s = (u - adjoint(u)) / 2.0j
    cvals, v = eig_hermitian(c, tol)
    for group in _cluster_sorted(cvals, tol.degeneracy_tol):
        if len(group) > 1:
            w = v[:, group]
            sub = adjoint(w) @ s @ w
            sub = (sub + adjoint(sub)) / 2.0
            _, y = eig_hermitian(sub, tol)
            v[:, group] = w @ y
    # <v|U|v> = <v|C|v> + i <v|S|v> for each eigenvector v
    phases = np.angle(np.einsum("ij,ij->j", v.conj(), u @ v)) % (2.0 * math.pi)

    result = []
    for phase, idx in _phase_clusters(phases, np.ones(n), tol.degeneracy_tol):
        proj = v[:, idx] @ adjoint(v[:, idx])
        result.append((phase, (proj + adjoint(proj)) / 2.0))
    return result


def schmidt(
    v: np.ndarray, d_a: int, d_b: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Schmidt coefficients and entanglement entropy of a bipartite unit vector.

    ``v`` lives in the d_a*d_b-dimensional product space with lexicographic
    index d_b*i + j for |i>|j>.  The coefficients are the singular values of
    the d_a-by-d_b reshaping, in descending order; the entropy is in bits.
    """
    vec = _as_complex(v).reshape(-1)
    if vec.size != d_a * d_b:
        raise ValueError(f"vector length {vec.size} != {d_a}*{d_b}")
    _require_finite(vec)
    norm = float(np.linalg.norm(vec))
    if not num_close(norm, 1.0, tol):
        raise ValueError(f"vector norm {norm} is not 1 within eq_tol")
    coeffs = np.linalg.svd(vec.reshape(d_a, d_b), compute_uv=False)
    return coeffs, _shannon_bits(coeffs * coeffs)
