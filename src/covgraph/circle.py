"""Circle-group representations built from orthogonal projection families.

A representation is a list of distinct integer frequencies s_j with one
orthogonal projection P_j per frequency; the unitary at angle phi is
U_phi = sum_j exp(i*s_j*phi) P_j.  The pinching map sum_j P_j A P_j is the
conditional expectation onto the commutant of the family, and the uniform
N-point average of conjugated copies reproduces it exactly as soon as N
exceeds every nonzero frequency difference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _as_integer, adjoint, is_projection, max_abs

__all__ = ["CircleRep", "RepViolation", "two_block_rep"]


@dataclass(frozen=True)
class RepViolation:
    """One failed representation invariant, with its worst residual."""

    invariant: str  # "hermiticity" | "idempotence" | "orthogonality" | "completeness"
    detail: str
    residual: float


@dataclass(frozen=True)
class CircleRep:
    """Frequencies s_j and their projections P_j as one (k, n, n) complex array."""

    freqs: tuple[int, ...]
    projections: np.ndarray

    def __post_init__(self):
        freqs = tuple(_as_integer(s, "frequencies must be integers") for s in self.freqs)
        # the unitaries take exp(i s phi) of an int64 array of the s; a larger s
        # makes it an object array, which np.exp rejects
        big = next((s for s in freqs if abs(s) >= 2**63), None)
        if big is not None:
            raise ValueError(f"frequencies must be below 2**63 in magnitude, got {big:.3g}")
        if len(freqs) != len(self.projections) or not freqs:
            raise ValueError("freqs and projections must be non-empty and equal-length")
        if len(set(freqs)) != len(freqs):
            raise ValueError(
                "repeated frequency: merge projections sharing a frequency into one"
            )
        try:
            projs = np.asarray(self.projections, dtype=complex)
        except ValueError:  # ragged input
            projs = None
        if projs is None or projs.ndim != 3 or projs.shape[1] != projs.shape[2]:
            raise ValueError("projections must be square matrices of equal size")
        # NaN compares false, so it would pass every invariant check
        if not np.isfinite(projs).all():
            raise ValueError("projections have non-finite entries")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "projections", projs)

    @property
    def dim(self) -> int:
        return self.projections.shape[1]

    @property
    def max_freq(self) -> int:
        return max(abs(s) for s in self.freqs)

    @functools.cached_property
    def _block_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, W): a unitary W whose columns labelled j span the range of
        P_j, so W[:, labels == j] is an isometry V with V V^dagger = P_j.

        One eigh of sum_j j P_j: its eigenvalues are the indices j, a gap of 1
        apart, up to the rep's rounding.  Computed once per instance, read-only,
        and meaningful only for a valid representation.
        """
        k, n = len(self.freqs), self.dim
        weighted = np.arange(k) @ self.projections.reshape(k, n * n)  # sum_j j P_j, flattened
        eigvals, w = np.linalg.eigh(weighted.reshape(n, n))
        labels = np.rint(eigvals).astype(int)
        labels.flags.writeable = w.flags.writeable = False
        return labels, w

    def _isometry(self, blocks, frame: np.ndarray | None = None) -> np.ndarray:
        """Isometry onto the range of the sum of P_j over the block indices given,
        in the coordinates of a unitary frame if one is given."""
        labels, w = self._block_basis
        chosen = np.zeros(len(self.freqs), dtype=bool)
        chosen[blocks] = True
        if frame is w:  # W^dagger W = I exactly: columns of the identity
            return np.eye(self.dim)[:, chosen[labels]]
        iso = w[:, chosen[labels]]
        return iso if frame is None else frame.conj().T @ iso

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> list[RepViolation]:
        """Check projection/orthogonality/completeness invariants; empty list iff valid."""
        p = self.projections
        # [hermiticity, idempotence] residual of each projection, reported row by row
        own = np.stack([np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
                        np.abs(p @ p - p).max(axis=(1, 2))], axis=1)
        violations = [
            RepViolation(("hermiticity", "idempotence")[i], f"projection {j}", float(own[j, i]))
            for j, i in np.argwhere(own > tol.eq_tol)
        ]
        for j in range(len(p) - 1):  # P_j against every later P_k, one row at a time
            orth = np.abs(p[j] @ p[j + 1 :]).max(axis=(1, 2))
            violations += [
                RepViolation("orthogonality", f"projections {j},{j + 1 + k}", float(orth[k]))
                for k in np.flatnonzero(orth > tol.eq_tol)
            ]
        r = max_abs(p.sum(axis=0) - np.eye(self.dim))
        if r > tol.eq_tol:
            violations.append(RepViolation("completeness", "sum of projections", r))
        return violations

    def is_valid(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return not self.validate(tol)

    def _unitary(self, phi: float | np.ndarray) -> np.ndarray:
        phases = np.exp(1j * np.multiply.outer(phi, self.freqs))
        return np.tensordot(phases, self.projections, axes=1)

    def _require_valid(self, tol: Tolerance) -> None:
        """Raise ValueError naming the worst violated invariant, if any."""
        bad = self.validate(tol)
        if bad:
            worst = max(bad, key=lambda v: v.residual)
            raise ValueError(
                f"invalid representation: {worst.invariant} violation "
                f"({worst.detail}, residual {worst.residual:.3g})"
            )

    def unitary(self, phi: float | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """The representation unitary at angle phi, or one per angle for an
        array of angles; requires a valid representation."""
        self._require_valid(tol)
        return self._unitary(phi)

    def _operator(self, a: np.ndarray) -> np.ndarray:
        """``a`` as a complex matrix on this representation's space, or ValueError."""
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {a.shape}")
        return a

    def pinch(self, a: np.ndarray) -> np.ndarray:
        """Conditional expectation sum_j P_j A P_j onto the fixed-point algebra,
        formed as the diagonal blocks of W^dagger A W in the block frame.  The
        representation must be valid; that is not checked."""
        a = self._operator(a)
        labels, w = self._block_basis
        return _from_frame(w, adjoint(w) @ a @ w * (labels[:, None] == labels))

    def _conjugates(self, a: np.ndarray, n_samples: int) -> np.ndarray:
        """U A U^dagger at the N angles 2pi k/N, as one (N, n, n) array."""
        a = self._operator(a)
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        u = self._unitary(2.0 * math.pi * np.arange(n_samples) / n_samples)
        return u @ a @ u.conj().transpose(0, 2, 1)

    def haar_average(self, a: np.ndarray, n_samples: int) -> np.ndarray:
        """Uniform quadrature (1/N) sum_k U_{2pi k/N} A U_{2pi k/N}^dagger.

        Exactly equals pinch(a) whenever N exceeds every nonzero frequency
        difference |s_j - s_k| (in particular whenever N > 2*max|s_j|).
        """
        return self._conjugates(a, n_samples).sum(axis=0) / n_samples


def _from_frame(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """W A W^dagger for a frame matrix or stack, the right product as one GEMM."""
    return w @ (a.reshape(-1, len(w)) @ adjoint(w)).reshape(a.shape)


def two_block_rep(p_plus: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> CircleRep:
    """Representation with frequencies (+1, -1) on a projection and its complement."""
    p_plus = np.asarray(p_plus, dtype=complex)
    if not is_projection(p_plus, tol):
        raise ValueError("p_plus is not an orthogonal projection within eq_tol")
    p_minus = np.eye(p_plus.shape[0]) - p_plus
    return CircleRep(freqs=(1, -1), projections=(p_plus, p_minus))
