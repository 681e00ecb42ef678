"""Anticlique certification tests: the compression check itself, spectral
candidate enumeration, and the exact merged-spectrum angle scan."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covgraph import (
    AnticliqueVerdict,
    CircleRep,
    OperatorGraph,
    adjoint,
    anticliques_from_spectrum,
    bell_rep,
    first_factor_projection,
    frequency_components,
    gram_schmidt_operators,
    is_operator_system,
    max_abs,
    merged_spectrum_angles,
    orbit_graph,
    two_block_rep,
    verify_anticlique,
)
from covgraph.anticlique import _knill_laflamme
from covgraph.linalg import _DEGENERACY_TOL, DEFAULT_TOL, spectral_projections_unitary
from helpers import (
    FREQS,
    P_PLUS_4,
    haar_unitary,
    random_hermitian,
    random_offblock,
    random_projection,
    random_rep,
)


@pytest.fixture
def block_rep():
    return two_block_rep(P_PLUS_4)


def corner_seed(rng, c=1.0):
    s = random_offblock(rng)
    return c * np.eye(4) + s * (0.9 * c / np.linalg.norm(s, 2))


def identity_graph(n):
    basis, _ = gram_schmidt_operators([np.eye(n)])
    return OperatorGraph(dim=n, basis=tuple(basis))


class TestVerifyAnticlique:
    def test_identity_span_accepts_any_rank2_projection(self):
        rng = np.random.default_rng(0)
        graph = identity_graph(4)
        p = random_projection(rng, 4, 2)
        verdict = verify_anticlique(p, graph)
        assert verdict.passed
        assert verdict.code_dimension == 2
        # basis element is I/2 (normalized identity), so the constant is 1/2
        assert verdict.constants[0] == pytest.approx(0.5, abs=1e-12)

    def test_two_block_graph_blocks_pass(self, block_rep):
        rng = np.random.default_rng(1)
        graph = orbit_graph(block_rep, corner_seed(rng, c=0.5))
        for p in (P_PLUS_4, np.eye(4) - P_PLUS_4):
            verdict = verify_anticlique(p, graph)
            assert verdict.passed
            assert verdict.max_residual <= 1e-10
            assert verdict.witness is None
            # components sort by frequency (-2, 0, +2): corners compress to 0,
            # the identity-like middle element to its diagonal value
            constants = verdict.constants
            assert constants[0] == pytest.approx(0.0, abs=1e-12)
            assert constants[2] == pytest.approx(0.0, abs=1e-12)
            assert constants[1].imag == pytest.approx(0.0, abs=1e-12)

    def test_bell_graph_constants(self):
        d = 3
        rep = bell_rep(d)
        graph = orbit_graph(rep, first_factor_projection(d, 2))
        for p in rep.projections:
            verdict = verify_anticlique(p, graph)
            assert verdict.passed
            assert verdict.code_dimension == d
            middle = [c for c in verdict.constants if abs(c) > 1e-8]
            assert len(middle) == 1
            assert middle[0] == pytest.approx(1.0 / d, abs=1e-12)

    def test_rank_one_never_passes(self):
        graph = identity_graph(4)
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        verdict = verify_anticlique(p, graph)
        assert not verdict.passed
        assert verdict.code_dimension == 1
        assert verdict.max_residual <= 1e-12  # residual-perfect yet still rejected

    def test_rejects_non_projection(self):
        graph = identity_graph(2)
        with pytest.raises(ValueError, match="projection"):
            verify_anticlique(np.array([[0.0, 1.0], [1.0, 0.0]]), graph)

    def test_rejects_rank_zero(self):
        graph = identity_graph(2)
        with pytest.raises(ValueError, match="rank 0"):
            verify_anticlique(np.zeros((2, 2)), graph)

    def test_failure_reports_witness(self, block_rep):
        rng = np.random.default_rng(2)
        graph = orbit_graph(block_rep, corner_seed(rng))
        skew = random_projection(rng, 4, 2)  # generic projection fails
        verdict = verify_anticlique(skew, graph)
        assert not verdict.passed
        residual_matrices = []
        for a in graph.basis:
            pap = skew @ a @ skew
            residual_matrices.append(np.abs(pap - (np.trace(pap) / 2) * skew))
        residuals = [np.linalg.norm(r) for r in residual_matrices]
        # the worst index attains the maximum HS residual: the components at
        # m = -2 and +2 of a Hermitian seed are adjoints, so they tie up to
        # rounding; then the first largest entry of its matrix, row-major
        worst, row, col = verdict.witness
        assert residuals[worst] >= max(residuals) - 1e-12
        assert (row, col) == np.unravel_index(np.argmax(residual_matrices[worst]), (4, 4))
        assert all(type(i) is int for i in verdict.witness)
        # an exact tie goes to the last index
        doubled = OperatorGraph(dim=4, basis=graph.basis[[worst, worst]])
        assert verify_anticlique(skew, doubled).witness == (1, row, col)

    def test_scale_invariance(self, block_rep):
        rng = np.random.default_rng(3)
        graph = orbit_graph(block_rep, corner_seed(rng))
        scaled = OperatorGraph(dim=4, basis=tuple(3.0j * b for b in graph.basis))
        v1 = verify_anticlique(P_PLUS_4, graph)
        v2 = verify_anticlique(P_PLUS_4, scaled)
        assert v1.passed == v2.passed
        for c1, c2 in zip(v1.constants, v2.constants):
            assert c2 == pytest.approx(3.0j * c1, abs=1e-12)

    def test_conjugation_covariance(self, block_rep):
        rng = np.random.default_rng(4)
        graph = orbit_graph(block_rep, corner_seed(rng))
        base = verify_anticlique(P_PLUS_4, graph)
        for phi in rng.uniform(0, 2 * np.pi, size=3):
            u = block_rep.unitary(phi)
            conj = u @ P_PLUS_4 @ u.conj().T
            verdict = verify_anticlique(conj, graph)
            assert verdict.passed == base.passed
            assert verdict.max_residual <= 1e-9

    def test_residual_self_consistency(self, block_rep):
        rng = np.random.default_rng(5)
        graph = orbit_graph(block_rep, corner_seed(rng))
        p = random_projection(rng, 4, 2)
        verdict = verify_anticlique(p, graph)
        recomputed = max(
            np.linalg.norm(p @ a @ p - c * p) for a, c in zip(graph.basis, verdict.constants)
        )
        assert recomputed == pytest.approx(verdict.max_residual, abs=1e-14)

    def test_dimension_mismatch(self):
        graph = identity_graph(4)
        with pytest.raises(ValueError):
            verify_anticlique(np.eye(3), graph)

    def test_block_scalar_pinch_characterization(self, block_rep):
        # the block projections certify span{I, orbit(seed)} exactly when the
        # pinched seed is a scalar on each block; both directions checked
        rng = np.random.default_rng(14)
        p_minus = np.eye(4) - P_PLUS_4

        def graph_with_identity(seed):
            comps = [c.operator for c in frequency_components(block_rep, seed)]
            basis, _ = gram_schmidt_operators([np.eye(4)] + comps)
            return OperatorGraph(dim=4, basis=tuple(basis))

        s = random_offblock(rng)
        good = 0.7 * P_PLUS_4 + 0.3 * p_minus + 0.1 * s
        graph = graph_with_identity(good)
        assert verify_anticlique(P_PLUS_4, graph).passed
        assert verify_anticlique(p_minus, graph).passed

        bad = np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex) + 0.1 * s
        graph = graph_with_identity(bad)
        assert not verify_anticlique(P_PLUS_4, graph).passed


class TestConjugationInvariance:
    # a seed whose blocks compress to scalars makes every block a code;
    # a random Hermitian seed makes none of them one
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, codes=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_span_and_verdicts_are_invariant(self, n, freqs, codes, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        m0 = random_hermitian(rng, n)
        if codes:
            m0 += np.eye(n) - sum(p @ m0 @ p for p in rep.projections)
        v = haar_unitary(rng, n)
        moved = CircleRep(rep.freqs, tuple(v @ p @ v.conj().T for p in rep.projections))
        graph = orbit_graph(rep, m0, allow_nonpositive=True)
        moved_graph = orbit_graph(moved, v @ m0 @ v.conj().T, allow_nonpositive=True)
        assert moved_graph.span_dim == graph.span_dim

        def outcome(verdict):
            return verdict.passed, verdict.code_dimension

        for p, q in zip(rep.projections, moved.projections):
            assert outcome(verify_anticlique(q, moved_graph)) == outcome(verify_anticlique(p, graph))
        phis = [1.0] + [a.phi for a in merged_spectrum_angles(rep)[:2]]
        spectral = [
            [(r.phi, r.eigenphase, *outcome(r.verdict)) for r in anticliques_from_spectrum(u, g, phis)]
            for u, g in ((rep, graph), (moved, moved_graph))
        ]
        assert spectral[1] == spectral[0]


def compression_reference(p, graph, tol=DEFAULT_TOL):
    """The check formed directly as R_A = P A P - c_A P:
    (passed, rank, constants, ||R_A||_HS of each basis element, the R_A)."""
    rank = int(round(np.trace(p).real))
    pap = p @ graph.basis @ p
    constants = np.trace(pap, axis1=1, axis2=2) / rank
    matrices = pap - constants[:, None, None] * p
    residuals = np.linalg.norm(matrices, axis=(1, 2))
    passed = residuals.max() <= tol.eq_tol and rank >= 2
    return passed, rank, constants, residuals, matrices


def assert_agrees(verdict, reference, scale):
    passed, rank, constants, residuals, matrices = reference
    assert (verdict.passed, verdict.code_dimension) == (passed, rank)
    assert max_abs(np.subtract(verdict.constants, constants)) <= 1e-12 * scale
    assert abs(verdict.max_residual - residuals.max()) <= 1e-12 * scale
    # ||R||_HS >= max|R_ij|: never looser than the entrywise residual
    assert verdict.max_residual >= max_abs(matrices) - 1e-12 * scale
    # the witness is the last maximal index; residuals that tie exactly (a
    # component and its adjoint under P = I) are maximal up to rounding, and
    # at rounding level (a rank-1 candidate) every index is
    if residuals.max() > 1e-9 * scale:
        tied = np.flatnonzero(residuals >= residuals.max() - 1e-12 * scale)
        assert verdict.witness[0] in tied
    # a failed check names the largest entry of its worst matrix; an exact 0 has none
    if verdict.passed or verdict.max_residual == 0.0:
        assert verdict.witness is None
    else:
        j, row, col = verdict.witness
        assert abs(abs(matrices[j][row, col]) - max_abs(matrices[j])) <= 1e-12 * scale


def block_code_graph(rng, rep):
    """Orbit span of I + X - pinch(X) for a random X: every P_j compresses it
    to scalars, a sum of blocks generally does not."""
    n = rep.dim
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return orbit_graph(rep, np.eye(n) + x - rep.pinch(x), allow_nonpositive=True)


class TestKnillLaflammeForm:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, seed=st.integers(0, 2**32 - 1))
    def test_matches_the_compression_reference(self, n, freqs, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        graph = block_code_graph(rng, rep)
        candidates = [*rep.projections, rep.projections[:2].sum(axis=0)]
        candidates += [random_projection(rng, n, r) for r in range(1, n + 1)]
        for p in candidates:
            assert_agrees(verify_anticlique(p, graph), compression_reference(p, graph),
                          max_abs(graph.basis))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, seed=st.integers(0, 2**32 - 1))
    def test_rep_blocks_match_the_summed_projection(self, n, freqs, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        graph = block_code_graph(rng, rep)
        scale = max_abs(graph.basis)
        pairs = [(_knill_laflamme(rep._frame_rows(j), graph, DEFAULT_TOL), p)
                 for j, p in enumerate(rep.projections)]
        for phi in [1.0] + [a.phi for a in merged_spectrum_angles(rep)]:
            for result in anticliques_from_spectrum(rep, graph, [phi]):
                # distinct eigenphases of U_phi lie at least 0.28 apart here
                apart = np.angle(np.exp(1j * (np.multiply(rep.freqs, phi) - result.eigenphase)))
                pairs.append((result.verdict, rep.projections[np.abs(apart) <= 1e-6].sum(axis=0)))
        for verdict, summed in pairs:
            reference = compression_reference(summed, graph)
            assert_agrees(verdict, reference, scale)
            assert_agrees(verify_anticlique(summed, graph), reference, scale)


def assert_same_verdict(framed, plain, scale):
    assert (framed.passed, framed.code_dimension) == (plain.passed, plain.code_dimension)
    assert max_abs(np.subtract(framed.constants, plain.constants)) <= 1e-12 * scale
    assert abs(framed.max_residual - plain.max_residual) <= 1e-12 * scale


class TestFrameAgainstPlain:
    """An orbit graph held in the rep's block frame against the same basis as
    a plain graph, whose frame is I."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, codes=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_every_check_agrees(self, n, freqs, codes, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        if codes:
            graph = block_code_graph(rng, rep)
        else:
            graph = orbit_graph(rep, random_hermitian(rng, n), allow_nonpositive=True)
        plain = OperatorGraph(dim=n, basis=graph.basis)
        assert plain.span_dim == graph.span_dim
        scale = max_abs(graph.basis)

        a = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        assert max_abs(graph.project(a) - plain.project(a)) <= 1e-12 * max_abs(a)
        # and against the projection taken in the frame, W Pi'(W^dagger a W) W^dagger
        w, flat = graph._w, graph._frame_basis.reshape(graph.span_dim, n * n)
        moved = (adjoint(w) @ a @ w).reshape(3, n * n)
        in_frame = ((moved.conj() @ flat.T).conj() @ flat).reshape(3, n, n)
        assert max_abs(graph.project(a) - w @ in_frame @ adjoint(w)) <= 1e-12 * max_abs(a)
        framed_system, plain_system = is_operator_system(graph), is_operator_system(plain)
        assert framed_system[:2] == plain_system[:2]
        assert max_abs(np.subtract(framed_system[2:], plain_system[2:])) <= 1e-12 * scale

        groups = [[j] for j in range(len(rep.freqs))]
        for angle in merged_spectrum_angles(rep):
            groups += [list(g) for g in angle.partition if len(g) > 1]
        for blocks in groups:
            rows = rep._frame_rows(blocks)
            assert_same_verdict(
                _knill_laflamme(rows, graph, DEFAULT_TOL),
                _knill_laflamme(rep._block_basis[1][:, rows], plain, DEFAULT_TOL),
                scale,
            )
        phis = [1.0] + [angle.phi for angle in merged_spectrum_angles(rep)]
        spectral = zip(anticliques_from_spectrum(rep, graph, phis),
                       anticliques_from_spectrum(rep, plain, phis), strict=True)
        for framed, flat in spectral:
            assert (framed.phi, framed.eigenphase) == (flat.phi, flat.eigenphase)
            assert_same_verdict(framed.verdict, flat.verdict, scale)
        candidates = [*rep.projections] + [random_projection(rng, n, r) for r in range(1, n + 1)]
        for p in candidates:
            assert_same_verdict(verify_anticlique(p, graph), verify_anticlique(p, plain), scale)


class TestSpectralEnumeration:
    def test_generic_angle_yields_both_blocks(self, block_rep):
        rng = np.random.default_rng(6)
        graph = orbit_graph(block_rep, corner_seed(rng))
        results = anticliques_from_spectrum(block_rep, graph, [1.0])
        assert len(results) == 2
        assert all(r.verdict.passed for r in results)
        assert all(r.verdict.code_dimension == 2 for r in results)

    def test_merged_angle_fails_for_corner_graph(self, block_rep):
        rng = np.random.default_rng(7)
        graph = orbit_graph(block_rep, corner_seed(rng))
        results = anticliques_from_spectrum(block_rep, graph, [math.pi])
        assert len(results) == 1  # U_pi = -I has a single rank-4 projection
        assert results[0].verdict.code_dimension == 4
        assert not results[0].verdict.passed

    def test_merged_angle_passes_for_identity_span(self, block_rep):
        results = anticliques_from_spectrum(block_rep, identity_graph(4), [math.pi])
        assert len(results) == 1
        assert results[0].verdict.passed

    def test_bell_d2_phase_collision_is_harmless(self):
        # frequencies (1, 2) at phi = pi give phases (pi, 0): still separate
        d = 2
        rep = bell_rep(d)
        graph = orbit_graph(rep, first_factor_projection(d, 1))
        at_pi = anticliques_from_spectrum(rep, graph, [math.pi])
        generic = anticliques_from_spectrum(rep, graph, [1.0])
        assert len(at_pi) == len(generic) == 2
        assert [r.verdict.passed for r in at_pi] == [r.verdict.passed for r in generic]


def spectral_candidates(rep, phi):
    """(eigenphase, projection) of each candidate anticliques_from_spectrum
    certifies at phi.  Over the matrix units E_ab the constants are
    c = Tr(P E_ab P) / r = P[b, a] / r, so they spell out the projection."""
    n = rep.dim
    units = OperatorGraph(dim=n, basis=np.eye(n * n).reshape(n * n, n, n))
    return [
        (r.eigenphase,
         r.verdict.code_dimension * np.reshape(r.verdict.constants, (n, n)).T)
        for r in anticliques_from_spectrum(rep, units, [phi])
    ]


class TestSpectralCandidates:
    # the partition sums are the eigensolver's spectral projections, at every
    # merged angle and at a generic one
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, seed=st.integers(0, 2**32 - 1))
    def test_match_spectral_projections_of_the_unitary(self, n, freqs, seed):
        rep = random_rep(np.random.default_rng(seed), n, freqs[:n])
        for phi in [1.0] + [a.phi for a in merged_spectrum_angles(rep)]:
            got = spectral_candidates(rep, phi)
            want = [
                (e, p) for e, p in spectral_projections_unitary(rep.unitary(phi))
                if round(np.trace(p).real) >= 2
            ]
            assert len(got) == len(want)
            for (e_got, p_got), (e_want, p_want) in zip(got, want):
                assert abs(e_got - e_want) <= _DEGENERACY_TOL
                assert max_abs(p_got - p_want) <= 1e-10

    def test_zero_projection_does_not_chain_phases(self):
        # phases pi + 0.3e-8 * (1, 5, 9): the empty middle block lies within
        # _DEGENERACY_TOL of both others, which are 1.2e-8 apart
        projections = np.zeros((3, 4, 4), dtype=complex)
        projections[0] = P_PLUS_4
        projections[2] = np.eye(4) - P_PLUS_4
        rep = CircleRep(freqs=(1, 3, 5), projections=projections)
        phi = math.pi + 0.3e-8
        got = spectral_candidates(rep, phi)
        want = spectral_projections_unitary(rep.unitary(phi))
        assert len(got) == len(want) == 2
        for (e_got, p_got), (e_want, p_want) in zip(got, want):
            assert abs(e_got - e_want) <= 1e-12
            assert max_abs(p_got - p_want) <= 1e-10

    def test_rejects_invalid_rep_like_unitary(self, block_rep):
        bad = CircleRep(block_rep.freqs, block_rep.projections * 1.5)
        with pytest.raises(ValueError) as from_unitary:
            bad.unitary(1.0)
        with pytest.raises(ValueError) as from_search:
            anticliques_from_spectrum(bad, identity_graph(4), [1.0])
        assert str(from_search.value) == str(from_unitary.value)


class TestMergedSpectrumAngles:
    def test_two_block_frequencies(self, block_rep):
        merges = merged_spectrum_angles(block_rep)
        assert len(merges) == 1
        only = merges[0]
        assert only.phi == pytest.approx(math.pi)
        assert (only.numerator, only.denominator) == (1, 2)
        assert only.partition == ((0, 1),)

    def test_three_frequencies(self):
        rep = CircleRep(
            freqs=(1, 2, 3),
            projections=tuple(np.diag([float(i == k) for i in range(3)]).astype(complex)
                              for k in range(3)),
        )
        merges = merged_spectrum_angles(rep)
        assert len(merges) == 1
        assert merges[0].phi == pytest.approx(math.pi)
        assert merges[0].partition == ((0, 2), (1,))

    def test_four_frequencies(self):
        rep = CircleRep(
            freqs=(1, 2, 3, 4),
            projections=tuple(np.diag([float(i == k) for i in range(4)]).astype(complex)
                              for k in range(4)),
        )
        merges = merged_spectrum_angles(rep)
        angles = [(m.numerator, m.denominator) for m in merges]
        assert angles == [(1, 3), (1, 2), (2, 3)]
        by_q = {m.denominator: m.partition for m in merges}
        assert by_q[2] == ((0, 2), (1, 3))
        assert by_q[3] == ((0, 3), (1,), (2,))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            freqs = tuple(
                sorted(rng.choice(np.arange(-6, 7), size=rng.integers(2, 5), replace=False))
            )
            dim = len(freqs)
            rep = CircleRep(
                freqs=tuple(int(s) for s in freqs),
                projections=tuple(
                    np.diag([float(i == k) for i in range(dim)]).astype(complex)
                    for k in range(dim)
                ),
            )
            merges = merged_spectrum_angles(rep)
            # oracle: evaluate phases numerically on a fine rational sweep
            diffs = {abs(a - b) for a in freqs for b in freqs if a != b}
            expected = []
            if diffs:
                seen = set()
                for q in range(2, max(diffs) + 1):
                    for p in range(1, q):
                        if math.gcd(p, q) != 1:
                            continue
                        phi = 2 * math.pi * p / q
                        groups: dict[int, list[int]] = {}
                        for idx, s in enumerate(freqs):
                            key = round((s * phi) % (2 * math.pi), 9) % round(2 * math.pi, 9)
                            matched = None
                            for known in groups:
                                if abs(known - key) < 1e-6 or abs(abs(known - key) - 2 * math.pi) < 1e-6:
                                    matched = known
                            groups.setdefault(matched if matched is not None else key, []).append(idx)
                        if any(len(g) > 1 for g in groups.values()) and phi not in seen:
                            seen.add(phi)
                            expected.append(phi)
            assert sorted(m.phi for m in merges) == pytest.approx(sorted(expected))

    def test_single_frequency_has_no_merges(self):
        rep = CircleRep(freqs=(3,), projections=(np.eye(2).astype(complex),))
        assert merged_spectrum_angles(rep) == []


@pytest.mark.parametrize("call,message", [
    (lambda rep: anticliques_from_spectrum(rep, identity_graph(3), [1.0]),
     "graph and representation dimensions differ"),
    # a NaN angle used to give one verdict on the whole space at eigenphase nan
    (lambda rep: anticliques_from_spectrum(rep, orbit_graph(rep, np.eye(4)), [1.0, math.nan]),
     "angles must be finite, got nan"),
    (lambda rep: anticliques_from_spectrum(rep, orbit_graph(rep, np.eye(4)), [-math.inf]),
     "angles must be finite, got -inf"),
    # the loop over denominators used to run for 2**62 steps; 10**5 + 1 pins the bound
    (lambda rep: merged_spectrum_angles(CircleRep((2**62, -1), rep.projections)),
     "frequencies span 4611686018427387905, above 10**5: "
     "the merged angles would number at least 4611686018427387904"),
    (lambda rep: merged_spectrum_angles(CircleRep((10**5, -1), rep.projections)),
     "frequencies span 100001, above 10**5: the merged angles would number at least 100000"),
], ids=["graph-of-another-dimension", "nan-angle", "infinite-angle", "frequency-span-2**62",
        "frequency-span-10**5+1"])
def test_input_rejections(block_rep, call, message):
    with pytest.raises(ValueError) as raised:
        call(block_rep)
    assert str(raised.value) == message
