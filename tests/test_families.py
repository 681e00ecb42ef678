"""Tests for the 4x4 projection family, its spanning vectors and tensor
identification, and the entanglement report.

The conventionally quoted spanning-vector tuples (with their rank
deficiency and the failure to annihilate the complement) are constructed
explicitly here and kept as a documented-discrepancy check against the
column-based route."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covgraph.families
from covgraph import (
    FamilyParams,
    adjoint,
    corrected_identification,
    entanglement_report,
    family_params_from_matrix,
    family_projection,
    family_report,
    is_operator_system,
    max_abs,
    orbit_graph,
    spanning_vectors,
    tensor_identification,
    two_block_rep,
    verify_anticlique,
)
from helpers import P_PLUS_4

TAU_MAX_ENTANGLED = 1.0 / (2.0 * math.sqrt(2.0))


def printed_vector_tuples(params: FamilyParams):
    """The conventionally quoted spanning-vector tuples; the second and
    fourth repeat entries of the first and third, which is what the
    discrepancy tests document."""
    tau, rho = params.tau, math.sqrt(max(0.25 - params.tau**2, 0.0))
    e1 = np.exp(-1j * params.z1)
    e2 = np.exp(-1j * params.z2)
    e3 = np.exp(-1j * params.z3)
    e4 = np.exp(-1j * params.z4)
    xi_q = np.array([0.5, 0.0, tau * e1, rho * e2])
    eta_q = np.array([0.0, 0.5, tau * e1, rho * e2])
    xi_c = np.array([0.5, 0.0, rho * e3, tau * e4])
    eta_c = np.array([0.0, 0.5, rho * e3, tau * e4])
    return xi_q, eta_q, xi_c, eta_c


class TestFamilyProjection:
    def test_boundary_tau_half(self):
        q = family_projection(FamilyParams(tau=0.5, z1=0.3, z4=1.2))
        assert max_abs(q @ q - q) <= 1e-12
        # the sqrt(1/4 - tau^2) entries vanish
        assert abs(q[0, 3]) <= 1e-15 and abs(q[1, 2]) <= 1e-15

    def test_quarter_tau(self):
        q = family_projection(FamilyParams(tau=0.25))
        assert max_abs(q @ q - q) <= 1e-12
        assert np.trace(q).real == pytest.approx(2.0, abs=1e-12)
        assert max_abs(q - adjoint(q)) <= 1e-15

    def test_balanced_tau(self):
        q = family_projection(FamilyParams(tau=TAU_MAX_ENTANGLED, z2=0.0, z4=0.0))
        assert max_abs(q @ q - q) <= 1e-12
        for entry in (q[0, 2], q[0, 3], q[1, 2], q[1, 3]):
            assert abs(entry) == pytest.approx(TAU_MAX_ENTANGLED, abs=1e-12)

    def test_random_parameters_stay_projections(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = FamilyParams(
                tau=float(rng.uniform(0.0, 0.5)),
                z1=float(rng.uniform(0, 2 * np.pi)),
                z2=float(rng.uniform(0, 2 * np.pi)),
                z4=float(rng.uniform(0, 2 * np.pi)),
                k=int(rng.integers(-2, 3)),
            )
            q = family_projection(params)
            assert max_abs(q @ q - q) <= 1e-12

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError, match="tau"):
            FamilyParams(tau=0.6)
        with pytest.raises(ValueError, match="tau"):
            FamilyParams(tau=-0.1)

    def test_phase_constraint_is_exact(self):
        params = FamilyParams(tau=0.2, z1=0.4, z2=1.1, z4=2.2, k=1)
        assert params.z3 == pytest.approx(0.4 + 2.2 - 1.1 - math.pi)

    # z1 + z4 - z2 + pi(2k + 1) in floating point had a 1 rad ulp at k = 10**15
    # and overflowed past 10**308
    @pytest.mark.parametrize("k", [-10**400, -1, 0, 1, 10**15, 10**400])
    def test_z3_is_reduced_for_every_k(self, k):
        assert FamilyParams(0.3, 0.7, 1.9, 2.6, k=k).z3 == pytest.approx(0.7 + 2.6 - 1.9 - math.pi)

    # pi(2k + 1) in floating point lost idempotence as k grew (2.3e-11 at 10**6)
    # and overflowed past 10**308
    def test_winding_k_leaves_the_projection_bit_identical(self):
        want = family_projection(FamilyParams(0.3, 0.7, 1.9, 2.6, k=0))
        for k in (-10**400, -1, 1, 10**6, 10**15, 10**400):
            assert np.array_equal(family_projection(FamilyParams(0.3, 0.7, 1.9, 2.6, k=k)), want)


class TestFamilyDetection:
    def test_roundtrip(self):
        params = FamilyParams(tau=0.3, z1=0.5, z2=1.0, z4=2.5, k=0)
        q = family_projection(params)
        recovered = family_params_from_matrix(q)
        assert recovered is not None
        assert max_abs(family_projection(recovered) - q) <= 1e-12

    def test_complement_is_member(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = FamilyParams(
                tau=float(rng.uniform(0.01, 0.49)),
                z1=float(rng.uniform(0, 2 * np.pi)),
                z2=float(rng.uniform(0, 2 * np.pi)),
                z4=float(rng.uniform(0, 2 * np.pi)),
            )
            q = family_projection(params)
            comp = np.eye(4) - q
            recovered = family_params_from_matrix(comp)
            assert recovered is not None
            # the off-block magnitude pair is preserved as a set
            mags = sorted([recovered.tau, math.sqrt(0.25 - recovered.tau**2)])
            expected = sorted([params.tau, math.sqrt(0.25 - params.tau**2)])
            assert mags == pytest.approx(expected, abs=1e-12)
            assert max_abs(family_projection(recovered) - comp) <= 1e-10

    # tau = 0 used to recover z1 = z4 = 0, which misses Q by 0.75 unless z1 + z4 = 0;
    # there z1 comes from arg det C alone.  Near tau = 1/2 the round trip used to
    # miss by 3.1e-9 (one ulp below) and 8.8e-13 (1e-9 below): rho = sqrt(1/4 -
    # tau^2) amplifies an error in tau there.
    @settings(max_examples=200, deadline=None)
    @given(
        tau=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
        phases=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        k=st.integers(-2, 2),
    )
    @example(tau=0.49999999999999994, phases=(2.1, 4.6, 0.9), k=0)
    @example(tau=0.5 - 1e-9, phases=(8.8, 1.0, 8.4), k=1)
    @example(tau=0.0, phases=(1.0, 0.3, 0.7), k=-2)
    @example(tau=1e-300, phases=(-2.2, 5.0, 1.3), k=0)
    def test_roundtrip_reproduces_member_and_complement(self, tau, phases, k):
        q = family_projection(FamilyParams(tau, *phases, k))
        for m in (q, np.eye(4) - q):
            recovered = family_params_from_matrix(m)
            assert recovered is not None
            assert max_abs(family_projection(recovered) - m) <= 1e-14

    def test_corner_scale_is_decided_at_the_tolerance(self):
        # 2C is unitary only at scale 1: Q^2 - Q = (s^2 - 1)/4 on the diagonal blocks
        assert family_params_from_matrix(_corner_scaled(1.0 + 1e-6)) is None
        assert family_params_from_matrix(_corner_scaled(1.0 + 1e-13)) is not None

    def test_rejects_outside_family(self):
        assert family_params_from_matrix(np.eye(4)) is None
        m = family_projection(FamilyParams(tau=0.25))
        broken = m.copy()
        broken[0, 1] = 0.2  # nonzero within-block entry
        assert family_params_from_matrix(broken) is None
        skewed = m.copy()
        skewed[0, 2] *= np.exp(0.3j)  # breaks the phase constraint
        skewed[2, 0] = np.conj(skewed[0, 2])
        assert family_params_from_matrix(skewed) is None

    def test_pinch_is_half_identity(self):
        # every member pinches to I/2, the equal-constants condition that
        # puts the identity inside the orbit span
        rep = two_block_rep(P_PLUS_4)
        q = family_projection(FamilyParams(tau=0.15, z1=1.0, z2=0.2, z4=2.0))
        assert max_abs(rep.pinch(q) - np.eye(4) / 2) <= 1e-12


class TestFamilyGraphs:
    @pytest.mark.parametrize("tau", [0.05, 0.25, TAU_MAX_ENTANGLED, 0.45])
    def test_interior_members_span_three_with_codes(self, tau):
        rep = two_block_rep(P_PLUS_4)
        q = family_projection(FamilyParams(tau=tau, z1= 0.7, z2=1.9, z4=0.3))
        graph = orbit_graph(rep, q)
        assert graph.span_dim == 3
        for p in (P_PLUS_4, np.eye(4) - P_PLUS_4):
            verdict = verify_anticlique(p, graph)
            assert verdict.passed
            nonzero = [c for c in verdict.constants if abs(c) > 1e-8]
            assert len(nonzero) == 1
            assert nonzero[0] == pytest.approx(0.5, abs=1e-10)


class TestFamilyReport:
    @pytest.mark.parametrize(
        "params",
        [FamilyParams(0.0, 1.0, 0.3, 0.7), FamilyParams(0.5, 0.4, 0.0, 2.0),
         FamilyParams(0.1, 0.3, 1.1, 2.5, 1), FamilyParams(TAU_MAX_ENTANGLED)],
    )
    def test_matches_the_pipeline_step_by_step(self, params):
        report = family_report(params)
        q = family_projection(params)
        graph = orbit_graph(two_block_rep(P_PLUS_4), q)
        assert report.params == params
        assert report.idempotence_residual == max_abs(q @ q - q) <= 1e-15
        assert report.trace_residual <= 1e-15
        assert report.complement_in_family and report.complement_residual <= 1e-15
        assert np.array_equal(report.graph.basis, graph.basis) and graph.span_dim == 3
        assert report.system == is_operator_system(graph)
        assert report.system.contains_identity and report.system.adjoint_closed
        for verdict, p in ((report.verdict_plus, P_PLUS_4), (report.verdict_minus, np.eye(4) - P_PLUS_4)):
            assert verdict == verify_anticlique(p, graph)
            assert verdict.passed and verdict.code_dimension == 2
        assert report.entanglement.rows == entanglement_report(params).rows

    def test_recovers_parameters_once_on_one_rep(self, monkeypatch):
        # only I - Q is recovered; Q is a member by construction
        calls = []
        recover = covgraph.families.family_params_from_matrix
        monkeypatch.setattr(covgraph.families, "family_params_from_matrix",
                            lambda m, tol: calls.append(m) or recover(m, tol))
        first, second = family_report(FamilyParams(0.25)), family_report(FamilyParams(0.1))
        assert len(calls) == 2
        assert first.graph._w is second.graph._w  # one rep, one block basis

    def test_unrecovered_complement_reads_inf(self, monkeypatch):
        # reject only I - Q, whose corner entry (0, 2) is -tau
        recover = covgraph.families.family_params_from_matrix
        monkeypatch.setattr(covgraph.families, "family_params_from_matrix",
                            lambda m, tol: recover(m, tol) if m[0, 2].real > 0 else None)
        report = family_report(FamilyParams(0.25))
        assert not report.complement_in_family
        assert report.complement_residual == math.inf

    def test_complement_in_family_is_decided_by_its_residual(self, monkeypatch):
        recover = covgraph.families.family_params_from_matrix

        def shifted(m, tol):  # recovered, but off by 1e-6 rad in z2
            params = recover(m, tol)
            return dataclasses.replace(params, z2=params.z2 + 1e-6)

        monkeypatch.setattr(covgraph.families, "family_params_from_matrix", shifted)
        report = family_report(FamilyParams(0.25))
        assert not report.complement_in_family
        assert 1e-10 < report.complement_residual < 1e-5


class TestSpanningVectors:
    def test_frozen_quarter_tau_values(self):
        q = family_projection(FamilyParams(tau=0.25))
        xi_q, eta_q, xi_c, eta_c = spanning_vectors(q)
        rho = math.sqrt(3.0 / 16.0)  # 0.4330127018922193
        assert np.allclose(xi_q, [0.5, 0.0, 0.25, rho], atol=1e-12)
        # z3 = pi, so the second column carries the sign flip
        assert np.allclose(eta_q, [0.0, 0.5, -rho, 0.25], atol=1e-12)
        assert np.allclose(xi_c, [0.5, 0.0, -0.25, -rho], atol=1e-12)
        assert np.allclose(eta_c, [0.0, 0.5, rho, -0.25], atol=1e-12)

    def test_tau_half_vectors(self):
        q = family_projection(FamilyParams(tau=0.5, z1=0.8))
        xi_q, _, _, _ = spanning_vectors(q)
        assert np.allclose(
            xi_q, [0.5, 0.0, 0.5 * np.exp(-0.8j), 0.0], atol=1e-12
        )

    def test_eigenvector_residuals_and_geometry(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = FamilyParams(
                tau=float(rng.uniform(0.05, 0.45)),
                z1=float(rng.uniform(0, 2 * np.pi)),
                z2=float(rng.uniform(0, 2 * np.pi)),
                z4=float(rng.uniform(0, 2 * np.pi)),
            )
            q = family_projection(params)
            xi_q, eta_q, xi_c, eta_c = spanning_vectors(q)
            for v, lam in ((xi_q, 1.0), (eta_q, 1.0), (xi_c, 0.0), (eta_c, 0.0)):
                assert np.linalg.norm(q @ v - lam * v) <= 1e-10
                assert np.linalg.norm(v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(np.vdot(xi_q, eta_q)) <= 1e-12
            assert abs(np.vdot(xi_c, eta_c)) <= 1e-12

    def test_rejects_non_family_matrix(self):
        with pytest.raises(ValueError, match="family"):
            spanning_vectors(np.eye(4))


class TestTensorIdentification:
    def test_standard_basis_assignment(self):
        targets = {
            "xx": np.array([1, 0, 0, 0]),
            "xy": np.array([0, 1, 0, 0]),
            "yx": np.array([0, 0, 1, 0]),
            "yy": np.array([0, 0, 0, 1]),
        }
        ident = tensor_identification(targets)
        assert ident.is_unitary
        assert max_abs(ident.matrix - np.eye(4)) <= 1e-15

    def test_permuted_assignment(self):
        targets = {
            "xx": np.array([0, 1, 0, 0]),
            "xy": np.array([1, 0, 0, 0]),
            "yx": np.array([0, 0, 0, 1]),
            "yy": np.array([0, 0, 1, 0]),
        }
        ident = tensor_identification(targets)
        assert ident.is_unitary
        assert np.allclose(np.abs(ident.matrix).sum(axis=0), 1.0)

    def test_corrected_identification_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = FamilyParams(
                tau=float(rng.uniform(0.0, 0.5)),
                z1=float(rng.uniform(0, 2 * np.pi)),
                z2=float(rng.uniform(0, 2 * np.pi)),
                z4=float(rng.uniform(0, 2 * np.pi)),
            )
            ident = corrected_identification(params)
            assert ident.is_unitary
            assert max_abs(adjoint(ident.matrix) @ ident.matrix - np.eye(4)) <= 1e-12

    def test_pull_back_of_first_basis_vector(self):
        ident = corrected_identification(FamilyParams(tau=0.25))
        e_plus = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        pulled = adjoint(ident.matrix) @ e_plus
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(pulled, expected, atol=1e-12)
        assert np.allclose(ident.pull_back(e_plus), expected, atol=1e-12)

    def test_printed_tuples_are_rank_deficient(self):
        params = FamilyParams(tau=0.25)
        xi_q, eta_q, xi_c, eta_c = printed_vector_tuples(params)
        gram = np.array(
            [[np.vdot(a, b) for b in (xi_q, eta_q, xi_c, eta_c)]
             for a in (xi_q, eta_q, xi_c, eta_c)]
        )
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 3
        with pytest.raises(ValueError, match="dependent"):
            tensor_identification({"xx": xi_q, "xy": eta_q, "yy": xi_c, "yx": eta_c})

    def test_printed_complement_vector_not_annihilated(self):
        params = FamilyParams(tau=0.25)
        q = family_projection(params)
        _, _, xi_c_printed, _ = printed_vector_tuples(params)
        assert np.linalg.norm(q @ xi_c_printed) > 1e-3

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="label"):
            tensor_identification({"xx": np.ones(4)})


class TestEntanglementReport:
    def test_balanced_tau_is_maximally_entangled(self):
        report = entanglement_report(FamilyParams(tau=TAU_MAX_ENTANGLED))
        assert report.rows[0].printed_weights == pytest.approx((0.5, 0.5), abs=1e-9)
        assert report.rows[0].printed_entropy_bits == pytest.approx(1.0, abs=1e-9)
        assert not report.boundary_separable

    def test_quarter_tau_printed_entropy(self):
        report = entanglement_report(FamilyParams(tau=0.25))
        assert report.rows[0].printed_weights == pytest.approx((0.75, 0.25), abs=1e-12)
        assert report.rows[0].printed_entropy_bits == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.25, TAU_MAX_ENTANGLED, 0.45])
    def test_corrected_spectrum_of_first_block_is_balanced(self, tau):
        report = entanglement_report(FamilyParams(tau=tau, z1=0.3, z2=1.4, z4=2.0))
        for label in ("e+", "h+"):
            row = next(r for r in report.rows if r.label == label)
            assert row.corrected_coefficients == pytest.approx(
                (1 / math.sqrt(2),) * 2, abs=1e-9
            )
            assert row.corrected_entropy_bits == pytest.approx(1.0, abs=1e-9)

    def test_discrepancy_flag(self):
        report = entanglement_report(FamilyParams(tau=0.25))
        flagged = {row.label: row.discrepancy for row in report.rows}
        assert flagged["e+"] and flagged["h+"]  # (1/2,1/2) vs (3/4,1/4)
        balanced = entanglement_report(FamilyParams(tau=TAU_MAX_ENTANGLED, z1=0.2))
        front = next(r for r in balanced.rows if r.label == "e+")
        assert not front.discrepancy  # both routes give (1/2, 1/2)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            tau = float(rng.uniform(0.0, 0.5))
            report = entanglement_report(FamilyParams(tau=tau))
            w = report.rows[0].printed_weights
            assert w[0] + w[1] == pytest.approx(1.0, abs=1e-12)

    def test_boundary_marked_separable(self):
        for tau in (0.0, 0.5):
            report = entanglement_report(FamilyParams(tau=tau))
            assert report.boundary_separable
            assert report.rows[0].printed_entropy_bits == pytest.approx(0.0, abs=1e-12)

    def test_prefactor_deviation_recorded(self):
        # generic parameters: the closed-form prefactor misnormalizes
        report = entanglement_report(FamilyParams(tau=0.25))
        assert report.printed_prefactor_norm_deviation > 1e-3
        # z1 = z2 at balanced tau makes the prefactor denominator vanish
        singular = entanglement_report(FamilyParams(tau=TAU_MAX_ENTANGLED))
        assert math.isinf(singular.printed_prefactor_norm_deviation)


def _corner_scaled(factor):
    m = family_projection(FamilyParams(tau=0.25))
    m[:2, 2:] *= factor
    m[2:, :2] *= factor
    return m


def _with_hermitian_entry(i, j, value):
    m = family_projection(FamilyParams(tau=0.25))
    m[i, j], m[j, i] = value, np.conj(value)
    return m


UNIT_TARGETS = dict(zip(("xx", "xy", "yx", "yy"), np.eye(4)))


# the family rows reach the shape check, the projection check (a Hermitian edit
# of one entry breaks idempotence) or the I/2 block check
@pytest.mark.parametrize("call,message", [
    (lambda: family_params_from_matrix(np.eye(3)), None),
    (lambda: family_params_from_matrix(P_PLUS_4), None),
    (lambda: family_params_from_matrix(_with_hermitian_entry(0, 1, 0.2)), None),
    (lambda: family_params_from_matrix(_with_hermitian_entry(0, 2, 0.3)), None),
    (lambda: family_params_from_matrix(_corner_scaled(0.9)), None),
    (lambda: tensor_identification({**UNIT_TARGETS, "xx": np.ones(3)}),
     "each target must be a vector of length 4"),
    (lambda: tensor_identification({**UNIT_TARGETS, "xx": np.zeros(4)}),
     "target xx is the zero vector"),
    (lambda: FamilyParams(0.3, k=0.5), "k must be an integer, got 0.5"),
], ids=["3x3", "projection-without-half-blocks", "within-block-entry",
        "a-and-b-magnitudes-differ", "tau2-plus-rho2-not-quarter", "target-length-3", "zero-target", "non-integer-k"])
def test_input_rejections(call, message):
    if message is None:
        assert call() is None
        return
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
