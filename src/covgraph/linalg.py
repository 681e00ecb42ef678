"""Dense complex linear algebra over the Hilbert-Schmidt geometry.

Everything here works on plain ``numpy`` arrays with complex entries;
column vectors are either 1-D arrays or n-by-1 matrices.  Eigenvalue and
singular-value problems go to LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "adjoint",
    "max_abs",
    "hs_inner",
    "is_projection",
    "gram_schmidt_operators",
    "eig_hermitian",
    "spectral_projections_unitary",
    "schmidt",
]

@dataclass(frozen=True, kw_only=True)
class Tolerance:
    """The numerical threshold shared across the package; the CLI applies the
    same rule.  ``eq_tol`` governs equality/residual checks, must be finite and
    at least 1e-14: below it rounding alone fails exact inputs (the Bell d = 8,
    j = 7 graph has adjoint residual 1.6e-15).  It is keyword-only.
    """

    eq_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.eq_tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.eq_tol}")
        if self.eq_tol < 1e-14:
            raise ValueError(f"tolerance must be at least 1e-14, got {self.eq_tol}: "
                             "below it, rounding error alone fails exact inputs")


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


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dagger B), conjugate-linear in A."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def is_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff p is Hermitian and idempotent within eq_tol (max-norm)."""
    p = _as_complex(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    return all(r <= tol.eq_tol for r in _projection_residuals(p))


def _worst(r: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix; inf where overflow left inf or NaN (warnings off)."""
    worst = np.abs(r).max(axis=(-2, -1), initial=0.0)
    return np.where(np.isnan(worst), np.inf, worst)


@np.errstate(over="ignore", invalid="ignore")
def _projection_residuals(p: np.ndarray) -> tuple:
    """(max|P - P^dagger|, max|P P - P|) of a matrix or of each of a stack; one
    that overflows is inf, not a numpy warning."""
    return _worst(p - p.conj().swapaxes(-1, -2)), _worst(p @ p - p)


def _unit_scale(a) -> tuple[np.ndarray, float]:
    """(a / s, s), s the power of two at or below a's largest real or imaginary part
    (1 if a is 0), divided exactly on the float parts, also for a subnormal s: the
    largest part of a / s is in [1, 2).  ValueError if that largest part is not finite."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    top = float(np.max(np.abs(parts), initial=0.0))
    if not math.isfinite(top):  # NaN compares false, so it would pass every cut
        raise ValueError("input has non-finite entries")
    exponent = math.frexp(top)[1] - 1 if top else 0
    return np.ldexp(parts, -exponent).view(complex), math.ldexp(1.0, exponent)


def gram_schmidt_operators(
    ops: list[np.ndarray] | tuple[np.ndarray, ...] | np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, int]:
    """Orthonormalize a family of same-shape operators in the HS inner product.

    Gram-Schmidt in input order, projecting each input against the whole kept
    block at once, twice, on one stacked copy divided exactly by its scale s
    (_unit_scale).  An input whose residual is <= eq_tol * (largest input
    norm) is dropped as dependent, so the rank ignores the overall scale over
    the whole float range.  Raises ValueError on non-finite input.  Returns
    (basis, rank): basis is a (rank, *shape) array whose span holds every
    input, up to a dropped input's residual.
    """
    work, _ = _unit_scale(ops)  # a fresh stacked copy, orthonormalized in place
    k = len(work)
    flat = work.reshape(k, math.prod(work.shape[1:]))
    cut = tol.eq_tol * max(map(np.linalg.norm, flat), default=0.0)
    rank = 0
    for v in flat:
        kept = flat[:rank]
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            v -= (kept @ v.conj()).conj() @ kept  # minus sum_j <b_j, v> b_j
        r = float(np.linalg.norm(v))
        if r > cut:
            flat[rank] = v / r
            rank += 1
    return work[:rank], rank


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
    a @ V ~ V @ diag(eigenvalues).  Decides and diagonalizes (A + A^dagger)/2
    on A / s (_unit_scale) and multiplies the eigenvalues back by s.  Raises
    ValueError on non-square, non-finite or non-Hermitian input, the last when
    max_abs(A - A^dagger) > eq_tol * max_abs(A), so scaling A keeps the
    decision, and when an eigenvalue is too large for a float.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a, scale = _unit_scale(a)
    if max_abs(a - adjoint(a)) > tol.eq_tol * max_abs(a):  # a / s cannot overflow here
        raise ValueError("matrix is not Hermitian within eq_tol")
    eigvals, vecs = np.linalg.eigh((a + adjoint(a)) / 2.0)
    if max_abs(eigvals) * scale == math.inf:
        raise ValueError("an eigenvalue is too large for a float")
    return eigvals * scale, vecs


_DEGENERACY_TOL = 1e-8  # eigenvalues or eigenphases this close, chained, are one


def _cluster_sorted(values: np.ndarray) -> list[np.ndarray]:
    """Split the indices of an ascending array where neighbors differ by more than 1e-8."""
    splits = np.flatnonzero(np.diff(values) > _DEGENERACY_TOL) + 1
    return np.split(np.arange(len(values)), splits) if len(values) else []


def _phase_clusters(phases: np.ndarray, weights: np.ndarray) -> list[tuple]:
    """(weighted circular mean, indices) of each group of phases in [0, 2pi)
    whose circular neighbors differ by <= 1e-8, sorted by the mean.  A mean
    within 1e-8 of 0 mod 2pi is 0.0, so it sorts first however it rounded."""
    order = np.argsort(phases, kind="stable")
    clusters = [order[c] for c in _cluster_sorted(phases[order])]
    # the circle wraps: a cluster near 2pi may continue at 0
    if len(clusters) > 1 and (
        phases[clusters[0][0]] + 2.0 * math.pi - phases[clusters[-1][-1]] <= _DEGENERACY_TOL
    ):
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    result = []
    for idx in clusters:
        mean = float(np.angle(weights[idx] @ np.exp(1j * phases[idx])) % (2.0 * math.pi))
        result.append((0.0 if min(mean, 2.0 * math.pi - mean) <= _DEGENERACY_TOL else mean, idx))
    return sorted(result, key=lambda item: item[0])


def spectral_projections_unitary(
    u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]]:
    """Spectral resolution of a unitary: list of (eigenphase in [0, 2pi), projection).

    The commuting Hermitian pair C = (U+U^dagger)/2, S = (U-U^dagger)/(2i) is
    diagonalized jointly: C first, then S restricted to each degenerate
    eigenspace of C.  Eigenphases whose circular distance is at most
    1e-8 are merged into a single projection.
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
    for group in _cluster_sorted(cvals):
        if len(group) > 1:
            w = v[:, group]
            sub = adjoint(w) @ s @ w
            sub = (sub + adjoint(sub)) / 2.0
            _, y = eig_hermitian(sub, tol)
            v[:, group] = w @ y
    # <v|U|v> = <v|C|v> + i <v|S|v> for each eigenvector v
    phases = np.angle(np.einsum("ij,ij->j", v.conj(), u @ v)) % (2.0 * math.pi)

    result = []
    for phase, idx in _phase_clusters(phases, np.ones(n)):
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
    unit, scale = _unit_scale(vec)
    norm = float(np.linalg.norm(unit)) * scale  # inf when the norm is past the float range
    if norm == math.inf or abs(norm - 1.0) > tol.eq_tol * (1.0 + max(norm, 1.0)):
        raise ValueError(f"vector norm {norm} is not 1 within eq_tol")
    coeffs = np.linalg.svd(vec.reshape(d_a, d_b), compute_uv=False)
    return coeffs, _shannon_bits(coeffs * coeffs)
