"""Bell-state construction tests: orthonormality, Schmidt structure, the
rank-d projection family, and the full code-certification pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

import covgraph.bell
from covgraph import (
    Tolerance,
    bell_code_report,
    bell_rep,
    bell_state,
    first_factor_projection,
    is_operator_system,
    max_abs,
    orbit_graph,
    schmidt,
)
from helpers import random_projection


def product_basis_vector(d: int, first: int, second: int) -> np.ndarray:
    """|first>|second> with 1-based labels in the lexicographic index."""
    v = np.zeros(d * d, dtype=complex)
    v[d * (first - 1) + (second - 1)] = 1.0
    return v


class TestBellStates:
    def test_d2_diagonal_pair(self):
        v = bell_state(2, 2, 2)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1.0 / math.sqrt(2.0)
        assert np.allclose(v, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_matrix_is_identity(self, d):
        states = [bell_state(d, s, n) for s in range(1, d + 1) for n in range(1, d + 1)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert max_abs(gram - np.eye(d * d)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximal_schmidt_spectrum(self, d):
        coeffs, entropy = schmidt(bell_state(d, 1, 2), d, d)
        assert np.allclose(coeffs, [1.0 / math.sqrt(d)] * d, atol=1e-10)
        assert entropy == pytest.approx(math.log2(d), abs=1e-10)

    def test_rejects_bad_indices(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a bad index is rejected before any vector is built")

        monkeypatch.setattr(covgraph.bell, "_bell_vectors", refuse)
        with pytest.raises(ValueError, match="dimension d must be at least 2"):
            bell_state(1, 1, 1)
        for d, s, n in ((3, 0, 1), (3, 1, 4), (48, 49, 1)):
            with pytest.raises(ValueError, match=f"indices s, n must lie in 1..{d}"):
                bell_state(d, s, n)


class TestBellRep:
    def test_d2_projections(self):
        rep = bell_rep(2)
        assert rep.freqs == (1, 2)
        for p in rep.projections:
            assert round(np.trace(p).real) == 2
        assert max_abs(sum(rep.projections) - np.eye(4)) <= 1e-12

    def test_d3_completeness(self):
        rep = bell_rep(3)
        assert rep.validate() == []
        assert max_abs(sum(rep.projections) - np.eye(9)) <= 1e-12
        for p in rep.projections:
            assert round(np.trace(p).real) == 3

    def test_is_shared_and_read_only(self):
        rep = bell_rep(4)
        assert bell_rep(4) is rep
        with pytest.raises(ValueError):
            rep.projections[0, 0, 0] = 0.0

    def test_frame_is_the_bell_vectors_without_an_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Bell frame is given; no eigh recovers it")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for d in (2, 3, 4, 5):
            labels, w = bell_rep.__wrapped__(d)._block_basis  # a fresh rep, not the cached one
            assert labels.tolist() == [s - 1 for s in range(1, d + 1) for _ in range(d)]
            for s in range(1, d + 1):
                for n in range(1, d + 1):
                    assert np.array_equal(w[:, d * (s - 1) + (n - 1)], bell_state(d, s, n))

    def test_d5_pinch_preserves_trace(self):
        rng = np.random.default_rng(0)
        rep = bell_rep(5)
        a = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        assert np.trace(rep.pinch(a)) == pytest.approx(np.trace(a), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bell_states_are_eigenvectors(self, d):
        rep = bell_rep(d)
        u = rep.unitary(2.0 * math.pi / d)
        for s in range(1, d + 1):
            phase = np.exp(2j * math.pi * s / d)
            for n in range(1, d + 1):
                v = bell_state(d, s, n)
                assert np.linalg.norm(u @ v - phase * v) <= 1e-10


class TestFirstFactorProjection:
    def test_d2_explicit(self):
        assert np.allclose(
            first_factor_projection(2, 1), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15
        )

    @pytest.mark.parametrize("d,j", [(2, 2), (3, 1), (3, 3), (4, 2), (5, 5)])
    def test_matches_kron_oracle(self, d, j):
        e_jj = np.zeros((d, d), dtype=complex)
        e_jj[j - 1, j - 1] = 1.0
        oracle = np.kron(e_jj, np.eye(d))
        assert max_abs(first_factor_projection(d, j) - oracle) <= 1e-15

    def test_bell_overlaps(self):
        # <psi_{sn} | j, j-k mod d> vanishes unless k = n, where it carries
        # the phase exp(-2 pi i s j / d) / sqrt(d)
        d = 3
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                second = (j - k - 1) % d + 1
                eta = product_basis_vector(d, j, second)
                for s in range(1, d + 1):
                    for n in range(1, d + 1):
                        overlap = np.vdot(bell_state(d, s, n), eta)
                        if k == n:
                            expected = np.exp(-2j * math.pi * s * j / d) / math.sqrt(d)
                            assert overlap == pytest.approx(expected, abs=1e-12)
                        else:
                            assert abs(overlap) <= 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            first_factor_projection(3, 0)
        with pytest.raises(ValueError):
            first_factor_projection(3, 4)


class TestBellCodeReport:
    def test_d2_pipeline(self):
        report = bell_code_report(2, 1)
        assert report.passed
        assert report.pinch_residual <= 1e-12
        assert report.contains_identity and report.adjoint_closed
        assert all(v.passed and v.code_dimension == 2 for v in report.verdicts)

    def test_d4_pipeline(self):
        report = bell_code_report(4, 3)
        assert report.passed
        assert report.pinch_residual <= 1e-12
        assert len(report.verdicts) == 4
        for verdict in report.verdicts:
            assert verdict.passed and verdict.code_dimension == 4
            nonzero = [c for c in verdict.constants if abs(c) > 1e-8]
            assert nonzero[0] == pytest.approx(0.25, abs=1e-10)

    def test_carries_adjoint_residual(self):
        report = bell_code_report(4, 3)
        check = is_operator_system(report.graph)
        assert report.adjoint_residual == check.adjoint_residual
        assert report.adjoint_closed == (report.adjoint_residual <= 1e-10)

    def test_pinch_residual_is_the_pinching(self):
        for d, j in ((3, 2), (6, 1)):
            seed = first_factor_projection(d, j)
            expected = max_abs(bell_rep(d).pinch(seed) - np.eye(d * d) / d)
            assert bell_code_report(d, j).pinch_residual == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_block_residuals_stay_at_rounding(self, d):
        # each check subtracts c I from a block of the frame basis in place; on
        # a copy the residual would read about c = 1/d instead of rounding
        for j in (1, d):
            report = bell_code_report(d, j)
            assert max(v.max_residual for v in report.verdicts) <= 1e-14

    @pytest.mark.parametrize("d", range(11, 17))
    def test_every_code_passes_at_the_tolerance_floor(self, d):
        # in a block frame recovered by eigh, 26 of these 81 reports failed
        # graph-contains-identity, with identity residuals up to 2.0e-14
        tol = Tolerance(eq_tol=1e-14)
        assert [j for j in range(1, d + 1) if not bell_code_report(d, j, tol).passed] == []

    def test_checks_leave_the_basis_in_the_frame(self):
        report = bell_code_report(5, 2)
        assert report.passed
        assert "basis" not in vars(report.graph)  # no back-transform of the span

    def test_graph_dimension_counts_components(self):
        # frequencies 1..d give 2d-1 distinct differences, all present
        for d in (2, 3):
            report = bell_code_report(d, 1)
            assert report.graph.span_dim == 2 * d - 1

    def test_random_projection_seed_fails_pinch_identity(self):
        rng = np.random.default_rng(1)
        d = 3
        rep = bell_rep(d)
        seed = random_projection(rng, d * d, d)
        residual = max_abs(rep.pinch(seed) - np.eye(d * d) / d)
        assert residual > 1e-6
        graph = orbit_graph(rep, seed)
        from covgraph import verify_anticlique

        failures = [
            p for p in rep.projections if not verify_anticlique(p, graph).passed
        ]
        assert failures  # a generic rank-d seed does not certify


@pytest.mark.parametrize("call,message", [
    (lambda: first_factor_projection(1, 1), "dimension d must be at least 2"),
], ids=["first-factor-d-1"])
def test_input_rejections(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
