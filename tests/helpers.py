"""Shared fixtures-by-hand for the test suite: Pauli matrices, seeded random
operators, a couple of independent oracles used to cross-check the
library's own routines, and the golden reports as test parameters."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from covgraph import (
    CircleRep,
    OperatorGraph,
    Tolerance,
    adjoint,
    gram_schmidt_operators,
    hs_inner,
    max_abs,
)
from covgraph.cli import build_parser
from covgraph.linalg import DEFAULT_TOL
from golden.regen import CASES, REPORTS

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

P_PLUS_4 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def random_unitary_givens(rng: np.random.Generator, n: int) -> np.ndarray:
    """Product of complex Givens rotations and a diagonal phase: unitary by
    construction, no matrix exponentials involved."""
    u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))
    for i in range(n - 1):
        for j in range(i + 1, n):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            g = np.eye(n, dtype=complex)
            g[i, i] = np.cos(theta)
            g[j, j] = np.cos(theta)
            g[i, j] = np.sin(theta) * phase
            g[j, i] = -np.sin(theta) * np.conj(phase)
            u = u @ g
    return u


def random_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Rank-k orthogonal projection from the first k columns of a random unitary."""
    u = random_unitary_givens(rng, n)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# distinct frequencies of both signs for random_rep, at most four of them
FREQS = st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True)


def random_rep(rng: np.random.Generator, n: int, freqs) -> CircleRep:
    """Representation on C^n with one block per frequency: the blocks have
    random positive ranks summing to n and are rotated by a Haar unitary."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=len(freqs) - 1, replace=False))
    cols = np.split(haar_unitary(rng, n), cuts, axis=1)
    return CircleRep(freqs=tuple(freqs), projections=tuple(c @ c.conj().T for c in cols))


def _pair_loop(rep: CircleRep, seed: np.ndarray) -> dict[int, np.ndarray]:
    """m -> A_m = sum_{s_j - s_k = m} P_j M P_k, from the loop over pairs of projections."""
    acc: dict[int, np.ndarray] = {}
    for sj, pj in zip(rep.freqs, rep.projections):
        for sk, pk in zip(rep.freqs, rep.projections):
            acc[sj - sk] = acc.get(sj - sk, 0.0) + pj @ seed @ pk
    return acc


def pair_loop_graph(rep: CircleRep, seed: np.ndarray, tol=DEFAULT_TOL) -> OperatorGraph:
    """Reference orbit span without the block frame: the components
    A_m = sum_{s_j - s_k = m} P_j M P_k from the pair loop over the
    projections, those with max_abs(A_m) > eq_tol * max_abs(seed), then
    Gram-Schmidt."""
    acc = _pair_loop(rep, seed)
    cut = tol.eq_tol * max_abs(seed)
    kept = [acc[m] for m in sorted(acc) if max_abs(acc[m]) > cut]
    basis, _ = gram_schmidt_operators(kept, tol)
    return OperatorGraph(rep.dim, basis)


def operator_system_reference(graph: OperatorGraph) -> tuple[float, float]:
    """(identity residual, adjoint residual) of is_operator_system by brute
    force on the dense basis: Q is an orthonormal basis (QR) of the flattened
    ``graph.basis``; the adjoint residual is max_j ||b_j^dagger - Q Q^dagger
    vec b_j^dagger||_2 and the identity residual max_abs(I - Q Q^dagger vec I)."""
    n, k = graph.dim, graph.span_dim
    q, _ = np.linalg.qr(graph.basis.reshape(k, n * n).T)

    def residual(a):
        return a - q @ (q.conj().T @ a)

    identity = max_abs(residual(np.eye(n).reshape(n * n)))
    adjoints = graph.basis.conj().transpose(0, 2, 1).reshape(k, n * n).T
    return identity, max((float(np.linalg.norm(r)) for r in residual(adjoints).T), default=0.0)


def adjoint_closure_reference(rep: CircleRep, seed: np.ndarray, tol=DEFAULT_TOL):
    """adjoint_closure_scalar without the block frame: F (m = +2) and G (m = -2)
    from the pair loop over the projections, each kept when its HS norm
    exceeds eq_tol * ||seed||_HS; h = <F^dagger, G> / <F^dagger, F^dagger>,
    returned when ||G - h F^dagger||_HS <= eq_tol ||G||_HS; 0.0 when both are
    dropped and None when only F is."""
    seed = np.divide(seed, max_abs(seed) or 1.0)  # so that |F|^2 neither underflows nor overflows
    cut = tol.eq_tol * np.linalg.norm(seed)
    comps = {m: a for m, a in _pair_loop(rep, seed).items() if np.linalg.norm(a) > cut}
    if 2 not in comps:
        return 0.0 if -2 not in comps else None
    f_star = adjoint(comps[2])
    g = comps.get(-2, np.zeros_like(f_star))
    h = hs_inner(f_star, g) / hs_inner(f_star, f_star).real
    if np.linalg.norm(g - h * f_star) <= tol.eq_tol * np.linalg.norm(g):
        return h
    return None


def random_offblock(rng: np.random.Generator) -> np.ndarray:
    """4x4 matrix supported on the two off-diagonal 2x2 corners of the
    standard two-block split, Hermitian by construction."""
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = np.zeros((4, 4), dtype=complex)
    s[:2, 2:] = b
    s[2:, :2] = b.conj().T
    return s


def gram_rank_by_elimination(ops: list[np.ndarray], tol: float = 1e-9) -> int:
    """Rank of span{ops} via pivoted Gaussian elimination on the Gram matrix.

    Independent of any orthonormalization code: builds G[i,j] = <ops_i, ops_j>
    and counts pivots above tol, with full pivoting on the residual block.
    """
    k = len(ops)
    g = np.array(
        [[np.vdot(a, b) for b in ops] for a in ops], dtype=complex
    ).reshape(k, k)
    rank = 0
    active = list(range(k))
    while active:
        sub = g[np.ix_(active, active)]
        idx = np.unravel_index(np.argmax(np.abs(sub)), sub.shape)
        pivot = sub[idx]
        if abs(pivot) <= tol:
            break
        r, c = active[idx[0]], active[idx[1]]
        for i in active:
            if i == r:
                continue
            g[i, :] = g[i, :] - (g[i, c] / pivot) * g[r, :]
        active.remove(r)
        rank += 1
    return rank


def subspace_projector_from_ops(ops: list[np.ndarray]) -> np.ndarray:
    """HS projector onto span{ops} via numpy SVD, independent of the library."""
    flat = np.array([op.reshape(-1) for op in ops])
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > 1e-10 * max(1.0, s[0] if s.size else 0.0)
    basis = vh[keep]  # rows are an orthonormal basis of the span
    return basis.T @ basis.conj()


def golden_reports(command: str) -> list:
    """pytest params (parsed CLI arguments, their tolerance, the recorded
    assertions) for every golden case of ``command`` that printed a report."""
    params = []
    for name, argv in sorted(CASES.items()):
        report = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))["report"]
        if argv[0] == command and report is not None:
            args = build_parser().parse_args(argv)
            tol = DEFAULT_TOL if args.tol is None else Tolerance(eq_tol=args.tol)
            params.append(pytest.param(args, tol, report["assertions"], id=name))
    return params
