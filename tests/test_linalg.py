"""Matrix-core tests: HS inner product, operator Gram-Schmidt, the Hermitian
eigensolver, unitary spectral projections, and Schmidt analysis.

Derived expectations come from independent oracles computed in the test:
elementwise sums for the HS norm, numpy's eigh/svd for spectra, pivoted
elimination on Gram matrices for ranks, and raw residuals for
eigendecompositions."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from covgraph import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    eig_hermitian,
    gram_schmidt_operators,
    hs_inner,
    is_projection,
    max_abs,
    schmidt,
    spectral_projections_unitary,
    two_block_rep,
)
from helpers import (
    P_PLUS_4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    gram_rank_by_elimination,
    random_hermitian,
    random_offblock,
    random_rep,
    random_unitary_givens,
)

# both parts near the largest float: the modulus, 2.1e308, is past it
HUGE = 1.5e308 + 1.5e308j


class TestHsInner:
    def test_identity_trace(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0 + 0.0j)

    def test_pauli_orthogonality(self):
        assert hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0)

    def test_norm_matches_elementwise_sum(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        elementwise = sum(abs(a[i, j]) ** 2 for i in range(3) for j in range(3))
        assert hs_inner(a, a) == pytest.approx(elementwise)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))


class TestGramSchmidt:
    def test_collinear_inputs(self):
        _, rank = gram_schmidt_operators([np.eye(2), 2.0 * np.eye(2)])
        assert rank == 1

    def test_pauli_basis(self):
        basis, rank = gram_schmidt_operators([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z])
        assert rank == 4
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert hs_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_two_block_identity_and_corners_span_three(self):
        # an identity plus independent off-block corners spans 3 dimensions
        rng = np.random.default_rng(3)
        s = random_offblock(rng)
        f = P_PLUS_4 @ s @ (np.eye(4) - P_PLUS_4)
        g = (np.eye(4) - P_PLUS_4) @ s @ P_PLUS_4
        _, rank = gram_schmidt_operators([np.eye(4), f, g])
        assert rank == 3

    def test_expansion_reconstructs_inputs(self):
        rng = np.random.default_rng(4)
        ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(5)]
        ops.append(ops[0] + ops[1])  # force a dependent input
        basis, rank = gram_schmidt_operators(ops)
        assert rank == 5
        for op in ops:
            in_span = np.tensordot(np.tensordot(basis.conj(), op, axes=2), basis, axes=1)
            assert max_abs(op - in_span) <= 1e-9

    def test_dependent_input_before_independent(self):
        # a repeated input ahead of an independent one must not hide it
        rng = np.random.default_rng(14)
        a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
        basis, rank = gram_schmidt_operators([a, a, b])
        assert rank == 2
        assert basis.shape == (2, 3, 3)
        in_span = np.tensordot(np.tensordot(basis.conj(), b, axes=2), basis, axes=1)
        assert max_abs(b - in_span) <= 1e-12

    def test_rank_ignores_overall_scale(self):
        ops = [np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_X + SIGMA_Y]
        for scale in (1e-14, 1e-11, 1.0, 1e6):
            _, rank = gram_schmidt_operators([scale * op for op in ops])
            assert rank == 3

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    def test_extreme_scales_keep_rank_and_coefficients(self, scale):
        ops = np.array([np.eye(2), SIGMA_X, SIGMA_X + 2.0 * SIGMA_Y])
        scaled = scale * ops
        base_basis, base_rank = gram_schmidt_operators(ops)
        basis, rank = gram_schmidt_operators(scaled)
        assert rank == base_rank == 3
        assert max_abs(basis - base_basis) <= 1e-15
        coeffs = np.tensordot(scaled, basis.conj(), axes=((1, 2), (1, 2)))  # <b_j, op_i>
        assert max_abs(np.tensordot(coeffs, basis, axes=1) - scaled) <= 1e-14 * scale

    # dividing by a subnormal largest entry overflowed, and a modulus past the
    # largest float read inf: both inputs were dropped as dependent (rank 0)
    @pytest.mark.parametrize("op", [1e-310 * np.eye(2), np.array([[HUGE, 0.0], [0.0, 1.0]])],
                             ids=["subnormal", "modulus-overflows"])
    def test_rank_at_the_ends_of_the_float_range(self, op):
        basis, rank = gram_schmidt_operators([op])
        assert rank == 1
        assert np.linalg.norm(basis[0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            gram_schmidt_operators([np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])])

    def test_empty_input(self):
        basis, rank = gram_schmidt_operators([])
        assert rank == 0 and len(basis) == 0

    def test_rank_matches_elimination_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n_ops = int(rng.integers(2, 11))
            dim = int(rng.integers(2, 5))
            pool = [
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for _ in range(max(1, n_ops // 2))
            ]
            ops = []
            for _ in range(n_ops):
                if pool and rng.random() < 0.4:
                    weights = rng.normal(size=len(pool))
                    ops.append(sum(w * p for w, p in zip(weights, pool)))
                else:
                    ops.append(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            _, rank = gram_schmidt_operators(ops)
            assert rank == gram_rank_by_elimination(ops)


class TestEigHermitian:
    def test_identity(self):
        eigvals, _ = eig_hermitian(np.eye(3))
        assert np.allclose(eigvals, [1.0, 1.0, 1.0])

    def test_sigma_x(self):
        eigvals, _ = eig_hermitian(SIGMA_X)
        assert np.allclose(eigvals, [-1.0, 1.0])

    def test_random_residuals(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 5)
        eigvals, v = eig_hermitian(a)
        for i in range(5):
            assert np.linalg.norm(a @ v[:, i] - eigvals[i] * v[:, i]) <= 1e-9

    def test_matches_numpy_spectrum(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        eigvals, _ = eig_hermitian(a)
        assert np.allclose(eigvals, np.linalg.eigvalsh(a), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_hermitian(rng, n)
        eigvals, v = eig_hermitian(a)
        recon = v @ np.diag(eigvals) @ adjoint(v)
        assert max_abs(recon - a) <= 1e-9 * (1.0 + max_abs(a))
        assert max_abs(adjoint(v) @ v - np.eye(n)) <= 1e-10

    # the Hermitian cut is relative to the largest entry: an absolute cut
    # accepted this matrix at 1e-12
    def test_rejects_non_hermitian(self):
        for scale in (1e-12, 1.0, 1e12):
            with pytest.raises(ValueError, match="not Hermitian"):
                eig_hermitian(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))

    # an absolute cut rejected Q D Q^dagger at 1e8, whose rounding is ~1e-8
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_accepts_hermitian_at_any_scale(self, scale):
        q = random_unitary_givens(np.random.default_rng(8), 6)
        a = scale * (q @ np.diag(np.linspace(-1.0, 2.0, 6)) @ adjoint(q))
        eigvals, _ = eig_hermitian(a)
        assert np.allclose(eigvals, scale * np.linspace(-1.0, 2.0, 6), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes a "residual > tol" Hermitian check because it compares false
        a = np.eye(3, dtype=complex)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(a)


class TestSpectralProjections:
    def test_identity(self):
        result = spectral_projections_unitary(np.eye(4))
        assert len(result) == 1
        phase, proj = result[0]
        assert phase == pytest.approx(0.0, abs=1e-12)
        assert max_abs(proj - np.eye(4)) <= 1e-12

    def test_two_block_unitary(self):
        rep = two_block_rep(P_PLUS_4)
        u = rep.unitary(np.pi / 3)
        result = spectral_projections_unitary(u)
        assert len(result) == 2
        phases = [p for p, _ in result]
        assert phases == pytest.approx([np.pi / 3, 2 * np.pi - np.pi / 3])
        for _, proj in result:
            assert round(np.trace(proj).real) == 2
        assert max_abs(result[0][1] - P_PLUS_4) <= 1e-12

    def test_merged_phases_reconstruction(self):
        phi = np.pi / 2
        u = np.diag([np.exp(1j * phi)] * 2 + [np.exp(-1j * phi)] * 2)
        result = spectral_projections_unitary(u)
        assert len(result) == 2
        recon = sum(np.exp(1j * p) * proj for p, proj in result)
        assert max_abs(recon - u) <= 1e-9

    def test_random_unitary_resolution(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 7):
            u = random_unitary_givens(rng, n)
            result = spectral_projections_unitary(u)
            total = sum(proj for _, proj in result)
            assert max_abs(total - np.eye(n)) <= 1e-9
            for i, (_, p) in enumerate(result):
                for j, (_, q) in enumerate(result):
                    expected = p if i == j else 0.0
                    assert max_abs(p @ q - expected) <= 1e-9
            recon = sum(np.exp(1j * p) * proj for p, proj in result)
            assert max_abs(recon - u) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            spectral_projections_unitary(np.diag([1.0, 2.0]))

    def test_eigenphase_at_zero_is_reported_as_zero(self):
        # rounding can leave this block's eigenphase just below 0 mod 2pi; it must read 0.0
        rep = random_rep(np.random.default_rng(0), 6, (0, 2, 1, 5))
        phases = [p for p, _ in spectral_projections_unitary(rep.unitary(math.pi / 2))]
        assert phases[0] == 0.0
        assert all(0.0 <= p < 2.0 * math.pi for p in phases)


@pytest.mark.parametrize("call,arg,message", [
    (eig_hermitian, np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (spectral_projections_unitary, np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    # A - A^dagger overflowed with a numpy RuntimeWarning before the verdict
    (eig_hermitian, np.array([[1e308, -1e308], [1e308, 0.0]]), "matrix is not Hermitian within eq_tol"),
    # the cut eq_tol * max_abs(A) read inf, so this matrix was accepted
    (eig_hermitian, np.array([[0.0, HUGE], [0.0, 0.0]]), "matrix is not Hermitian within eq_tol"),
    # Hermitian, but its eigenvalues +-2.1e308 were returned as NaN
    (eig_hermitian, np.array([[0.0, HUGE], [np.conj(HUGE), 0.0]]),
     "an eigenvalue is too large for a float"),
    # the norm's squares overflowed: coefficients (1e200, 0) and entropy -inf
    (functools.partial(schmidt, d_a=2, d_b=2), np.array([1e200, 0.0, 0.0, 0.0]),
     "vector norm 1e+200 is not 1 within eq_tol"),
    (functools.partial(schmidt, d_a=2, d_b=2), np.array([HUGE, 0.0, 0.0, 0.0]),
     "vector norm inf is not 1 within eq_tol"),
], ids=["eig_hermitian-non-square", "spectral_projections_unitary-non-square",
        "eig_hermitian-overflowing-residual", "eig_hermitian-overflowing-modulus",
        "eig_hermitian-eigenvalue-past-the-float-range", "schmidt-squares-overflow",
        "schmidt-modulus-overflows"])
def test_input_rejections(call, arg, message):
    with pytest.raises(ValueError) as raised:
        call(arg)
    assert str(raised.value) == message


class TestSchmidt:
    def test_product_vector(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(x / np.linalg.norm(x), y / np.linalg.norm(y))
        coeffs, entropy = schmidt(v, 2, 2)
        assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)
        assert entropy == pytest.approx(0.0, abs=1e-10)

    def test_resolves_small_coefficients(self):
        # squaring the reshaped matrix (a Gram-matrix route) would bury
        # coefficients below sqrt(rounding) ~ 1e-8 in noise
        rng = np.random.default_rng(14)
        true = np.array([math.sqrt(1.0 - 1e-16 - 1e-20), 1e-8, 1e-10])
        u = random_unitary_givens(rng, 3)
        w = random_unitary_givens(rng, 3)
        v = (u @ np.diag(true) @ w.T).reshape(-1)
        coeffs, _ = schmidt(v, 3, 3)
        assert np.allclose(coeffs, true, rtol=1e-5, atol=1e-15)

    def test_bell_pair(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        coeffs, entropy = schmidt(v, 2, 2)
        assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        coeffs, _ = schmidt(v, 3, 4)
        oracle = np.linalg.svd(v.reshape(3, 4), compute_uv=False)
        assert np.allclose(coeffs, oracle, atol=1e-10)

    def test_factor_swap_invariance(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        swapped = v.reshape(2, 3).T.reshape(-1)
        coeffs, _ = schmidt(v, 2, 3)
        coeffs_swapped, _ = schmidt(swapped, 3, 2)
        assert np.allclose(coeffs, coeffs_swapped, atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schmidt(np.ones(3), 2, 2)
        with pytest.raises(ValueError):
            schmidt(np.ones(4), 2, 2)  # norm 2, not 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        v = np.array([1.0, 0.0, 0.0, bad], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            schmidt(v, 2, 2)


class TestProjectionPredicate:
    def test_identity(self):
        assert is_projection(np.eye(3))

    def test_sigma_x_is_not(self):
        assert not is_projection(SIGMA_X)

    def test_kron_diagonal(self):
        assert np.allclose(np.diag(np.kron(np.eye(2), SIGMA_Z)), [1, -1, 1, -1])

    # P - P^dagger, then P P, overflowed with a numpy RuntimeWarning; an
    # overflowing residual is inf, and inf fails
    @pytest.mark.parametrize("p", [np.array([[1e308, -1e308], [1e308, 0.0]]),
                                   np.full((2, 2), 1e200)], ids=["hermiticity", "idempotence"])
    def test_overflowing_residual_is_not_a_projection(self, p):
        assert not is_projection(p)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.eq_tol == 1e-10

    # 5e-13 used to raise "eq_tol must be >= eig_tol" against a field no solver read
    @pytest.mark.parametrize("value", [1e-14, 5e-13, 1e-10, 1e-4])
    def test_accepts_the_cli_range(self, value):
        assert Tolerance(eq_tol=value).eq_tol == value

    # the library applies the CLI's rule and messages; 1e-300 used to be accepted
    @pytest.mark.parametrize("value,message", [
        (0.0, "tolerance must be positive and finite, got 0.0"),
        (-1.0, "tolerance must be positive and finite, got -1.0"),
        (math.nan, "tolerance must be positive and finite, got nan"),
        (math.inf, "tolerance must be positive and finite, got inf"),
        (1e-15, "tolerance must be at least 1e-14, got 1e-15: "
                "below it, rounding error alone fails exact inputs"),
        (1e-300, "tolerance must be at least 1e-14, got 1e-300: "
                 "below it, rounding error alone fails exact inputs"),
    ], ids=["0", "-1", "nan", "inf", "1e-15", "1e-300"])
    def test_rejects_eq_tol(self, value, message):
        with pytest.raises(ValueError) as raised:
            Tolerance(eq_tol=value)
        assert str(raised.value) == message

    @pytest.mark.parametrize("field", ["eq_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(**{field: value})

    # the removed eig_tol and degeneracy_tol fields, and a positional eq_tol
    @pytest.mark.parametrize("args,kwargs", [
        ((), {"eig_tol": 1e-12}), ((), {"degeneracy_tol": 1e-8}), ((1e-10,), {}),
    ], ids=["eig_tol", "degeneracy_tol", "positional"])
    def test_takes_only_eq_tol_by_keyword(self, args, kwargs):
        with pytest.raises(TypeError):
            Tolerance(*args, **kwargs)
