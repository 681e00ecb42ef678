"""Circle-representation tests: invariant validation, unitary evaluation,
pinching, and the exactness of the uniform quadrature against pinching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    CircleRep,
    bell_rep,
    first_factor_projection,
    max_abs,
    spectral_projections_unitary,
    two_block_rep,
)
from helpers import FREQS, P_PLUS_4, random_hermitian, random_projection, random_rep


@pytest.fixture
def block_rep():
    return two_block_rep(P_PLUS_4)


class TestStackedRep:
    def test_tuple_list_and_array_inputs_normalize(self):
        p_minus = np.eye(4) - P_PLUS_4
        for projections in ((P_PLUS_4, p_minus), [P_PLUS_4, p_minus],
                            np.array([P_PLUS_4, p_minus]).real):
            rep = CircleRep(freqs=(1, -1), projections=projections)
            assert rep.projections.shape == (2, 4, 4)
            assert rep.projections.dtype == complex
            assert rep.dim == 4

    @pytest.mark.parametrize("projections", [
        (np.eye(2), np.eye(3)),
        (np.eye(2), np.zeros(2)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.zeros(3), np.zeros(3)),
    ])
    def test_ragged_or_non_square_input_is_rejected(self, projections):
        with pytest.raises(ValueError, match="square matrices of equal size"):
            CircleRep(freqs=(1, -1), projections=projections)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN used to pass every invariant, so the rep was reported valid
        p = P_PLUS_4.copy()
        p[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CircleRep(freqs=(1, -1), projections=(p, np.eye(4) - P_PLUS_4))

    def test_stacked_operations_match_per_projection_sums(self):
        rng = np.random.default_rng(10)
        rep = random_rep(rng, 5, [3, -1, 0])
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert max_abs(rep.pinch(a) - sum(p @ a @ p for p in rep.projections)) <= 1e-14
        phis = rng.uniform(0.0, 2.0 * np.pi, size=4)
        stack = rep.unitary(phis)
        assert stack.shape == (4, 5, 5)
        for phi, u in zip(phis, stack):
            reference = sum(np.exp(1j * s * phi) * p for s, p in zip(rep.freqs, rep.projections))
            assert max_abs(u - reference) <= 1e-14
            assert max_abs(rep.unitary(phi) - reference) <= 1e-14


class TestValidate:
    def test_standard_two_block_is_valid(self, block_rep):
        assert block_rep.validate() == []

    def test_completeness_violation(self):
        rep = CircleRep(freqs=(1, -1), projections=(np.eye(4), np.eye(4)))
        violations = rep.validate()
        assert any(v.invariant == "completeness" for v in violations)

    def test_non_orthogonal_projections(self):
        rng = np.random.default_rng(0)
        # two random rank-1 projectors are generically non-orthogonal
        p = random_projection(rng, 3, 1)
        q = random_projection(rng, 3, 1)
        rep = CircleRep(freqs=(1, -1), projections=(p, q))
        violations = rep.validate()
        kinds = {v.invariant for v in violations}
        assert "orthogonality" in kinds
        worst = max((v for v in violations if v.invariant == "orthogonality"),
                    key=lambda v: v.residual)
        assert worst.residual == pytest.approx(max_abs(p @ q), abs=1e-12)

    # int() truncated 2.5 to 2 and read "2" as 2; inf raised OverflowError
    @pytest.mark.parametrize("bad", [2.5, "2", float("inf"), float("nan")])
    def test_rejects_non_integer_frequency(self, bad):
        with pytest.raises(ValueError, match="frequencies must be integers, got"):
            CircleRep(freqs=(bad, -1), projections=(P_PLUS_4, np.eye(4) - P_PLUS_4))

    def test_integral_float_frequency_is_an_int(self):
        rep = CircleRep(freqs=(2.0, np.int64(-1)), projections=(P_PLUS_4, np.eye(4) - P_PLUS_4))
        assert rep.freqs == (2, -1) and all(type(s) is int for s in rep.freqs)

    def test_rejects_repeated_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            CircleRep(freqs=(1, 1), projections=(np.eye(2), np.eye(2)))

    def test_unitary_refuses_invalid_rep(self):
        rep = CircleRep(freqs=(1, -1), projections=(np.eye(4), np.eye(4)))
        with pytest.raises(ValueError, match="invalid representation"):
            rep.unitary(0.3)


class TestEvaluate:
    def test_phi_zero_is_identity(self, block_rep):
        assert max_abs(block_rep.unitary(0.0) - np.eye(4)) <= 1e-12

    def test_quarter_turn(self, block_rep):
        u = block_rep.unitary(np.pi / 2)
        expected = 1j * P_PLUS_4 - 1j * (np.eye(4) - P_PLUS_4)
        assert max_abs(u - expected) <= 1e-12

    def test_result_is_unitary(self, block_rep):
        u = block_rep.unitary(0.7)
        assert max_abs(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_homomorphism(self, block_rep):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            lhs = block_rep.unitary(a) @ block_rep.unitary(b)
            assert max_abs(lhs - block_rep.unitary(a + b)) <= 1e-10

    def test_degenerate_full_projection(self):
        rep = two_block_rep(np.eye(3))
        u = rep.unitary(0.9)
        assert max_abs(u - np.exp(0.9j) * np.eye(3)) <= 1e-12

    def test_random_two_block(self):
        rng = np.random.default_rng(2)
        rep = two_block_rep(random_projection(rng, 4, 2))
        assert rep.validate() == []


class TestPinch:
    def test_fixes_identity(self, block_rep):
        assert max_abs(block_rep.pinch(np.eye(4)) - np.eye(4)) <= 1e-12

    def test_zeroes_off_blocks(self, block_rep):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pinched = block_rep.pinch(a)
        assert np.allclose(pinched[:2, :2], a[:2, :2])
        assert np.allclose(pinched[2:, 2:], a[2:, 2:])
        assert max_abs(pinched[:2, 2:]) <= 1e-15
        assert max_abs(pinched[2:, :2]) <= 1e-15

    def test_idempotent(self, block_rep):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        once = block_rep.pinch(a)
        assert max_abs(block_rep.pinch(once) - once) <= 1e-12

    def test_bimodule_over_fixed_points(self, block_rep):
        # pinch(X A Y) = X pinch(A) Y for block-diagonal X, Y
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        def block_diag(r):
            m = np.zeros((4, 4), dtype=complex)
            m[:2, :2] = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
            m[2:, 2:] = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
            return m
        x, y = block_diag(rng), block_diag(rng)
        lhs = block_rep.pinch(x @ a @ y)
        rhs = x @ block_rep.pinch(a) @ y
        assert max_abs(lhs - rhs) <= 1e-10

    def test_bell_seed_pinches_to_identity_over_d(self):
        rep = bell_rep(3)
        seed = first_factor_projection(3, 1)
        assert max_abs(rep.pinch(seed) - np.eye(9) / 3) <= 1e-12

    def test_dimension_mismatch(self, block_rep):
        with pytest.raises(ValueError):
            block_rep.pinch(np.eye(3))


class TestHaarAverage:
    def test_identity_fixed(self, block_rep):
        for n in (1, 2, 5):
            assert max_abs(block_rep.haar_average(np.eye(4), n) - np.eye(4)) <= 1e-12

    def test_exact_at_three_samples(self, block_rep):
        # frequency differences are {-2, 0, 2}; N=3 annihilates both nonzero ones
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        avg = block_rep.haar_average(a, 3)
        assert max_abs(avg - block_rep.pinch(a)) <= 1e-12

    def test_insufficient_sampling_differs(self, block_rep):
        # N=2 aliases the +/-2 components onto the average
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        avg = block_rep.haar_average(a, 2)
        assert max_abs(avg - block_rep.pinch(a)) > 1e-6

    def test_bell_seed_average(self):
        rep = bell_rep(3)
        seed = first_factor_projection(3, 1)
        avg = rep.haar_average(seed, 7)
        assert max_abs(avg - np.eye(9) / 3) <= 1e-12

    def test_exactness_threshold_both_directions(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            rep = bell_rep(d)
            a = random_hermitian(rng, d * d)
            pinched = rep.pinch(a)
            for n in range(2 * d + 1, 2 * d + 4):
                assert max_abs(rep.haar_average(a, n) - pinched) <= 1e-12
        # an aliasing pair of frequencies shows the failure below threshold
        alias = CircleRep(
            freqs=(0, 2), projections=(np.diag([1.0, 0.0]).astype(complex),
                                       np.diag([0.0, 1.0]).astype(complex))
        )
        witness = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert max_abs(alias.haar_average(witness, 2) - alias.pinch(witness)) > 1e-6

    def test_rejects_zero_samples(self, block_rep):
        with pytest.raises(ValueError):
            block_rep.haar_average(np.eye(4), 0)


class TestQuadratureProperty:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, extra=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_haar_average_is_pinch_past_the_largest_difference(self, n, freqs, extra, seed):
        rng = np.random.default_rng(seed)
        freqs = freqs[:n]
        rep = random_rep(rng, n, freqs)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        n_samples = max(freqs) - min(freqs) + 1 + extra
        assert max_abs(rep.haar_average(a, n_samples) - rep.pinch(a)) <= 1e-12


class TestCovariance:
    def test_conjugated_orbit_elements(self, block_rep):
        rng = np.random.default_rng(9)
        seed = random_hermitian(rng, 4)
        for _ in range(5):
            phi, psi = rng.uniform(0, 2 * np.pi, size=2)
            u_phi = block_rep.unitary(phi)
            u_psi = block_rep.unitary(psi)
            u_sum = block_rep.unitary(phi + psi)
            lhs = u_psi @ (u_phi @ seed @ u_phi.conj().T) @ u_psi.conj().T
            rhs = u_sum @ seed @ u_sum.conj().T
            assert max_abs(lhs - rhs) <= 1e-10

    def test_spectral_projections_regroup_by_phase(self):
        # at a generic angle the unitary's spectral projections are the P_s
        rep = bell_rep(3)
        u = rep.unitary(1.0)
        result = spectral_projections_unitary(u)
        assert len(result) == 3
        by_phase = {round(p, 6): proj for p, proj in result}
        for s, p_s in zip(rep.freqs, rep.projections):
            phase = round((s * 1.0) % (2 * np.pi), 6)
            assert max_abs(by_phase[phase] - p_s) <= 1e-9

    def test_two_block_merges_at_pi(self):
        rep = two_block_rep(P_PLUS_4)
        result = spectral_projections_unitary(rep.unitary(np.pi))
        assert len(result) == 1
        phase, proj = result[0]
        assert phase == pytest.approx(np.pi)
        assert max_abs(proj - np.eye(4)) <= 1e-12


def test_two_block_rejects_non_projection():
    with pytest.raises(ValueError):
        two_block_rep(np.array([[0.0, 1.0], [1.0, 0.0]]))
