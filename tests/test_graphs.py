"""Graph-builder tests: frequency components, analytic and sampled orbit
spans, operator-system axioms, and the off-block adjoint-closure scalar."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covgraph import (
    CircleRep,
    FamilyParams,
    OperatorGraph,
    Tolerance,
    adjoint,
    adjoint_closure_scalar,
    bell_rep,
    family_projection,
    first_factor_projection,
    frequency_components,
    hs_inner,
    is_operator_system,
    max_abs,
    orbit_graph,
    sampled_orbit_graph,
    span_projector,
    two_block_maximal_graph,
    two_block_rep,
    verify_anticlique,
)
import covgraph.graphs
from covgraph.graphs import _span_gap
from helpers import (
    FREQS,
    P_PLUS_4,
    SIGMA_X,
    adjoint_closure_reference,
    operator_system_reference,
    pair_loop_graph,
    random_hermitian,
    random_offblock,
    random_projection,
    random_rep,
    subspace_projector_from_ops,
)


@pytest.fixture
def block_rep():
    return two_block_rep(P_PLUS_4)


def two_block_seed(rng, c=1.0):
    # scale the off-block below c so the seed stays positive semidefinite
    s = random_offblock(rng)
    return c * np.eye(4) + s * (0.9 * c / np.linalg.norm(s, 2))


class TestFrequencyComponents:
    def test_identity_seed(self, block_rep):
        comps = frequency_components(block_rep, np.eye(4))
        assert [c.freq for c in comps] == [0]
        assert max_abs(comps[0].operator - np.eye(4)) <= 1e-12

    def test_two_block_seed_splits_into_three(self, block_rep):
        rng = np.random.default_rng(0)
        s = random_offblock(rng)
        seed = 2.0 * np.eye(4) + s
        comps = {c.freq: c.operator for c in frequency_components(block_rep, seed)}
        assert sorted(comps) == [-2, 0, 2]
        p_minus = np.eye(4) - P_PLUS_4
        assert max_abs(comps[2] - P_PLUS_4 @ s @ p_minus) <= 1e-12
        assert max_abs(comps[-2] - p_minus @ s @ P_PLUS_4) <= 1e-12
        assert max_abs(comps[0] - 2.0 * np.eye(4)) <= 1e-12

    def test_sum_reconstructs_seed(self):
        rep = bell_rep(3)
        seed = first_factor_projection(3, 1)
        comps = frequency_components(rep, seed)
        assert sorted(c.freq for c in comps) == [-2, -1, 0, 1, 2]
        assert max_abs(sum(c.operator for c in comps) - seed) <= 1e-12

    def test_conjugation_expands_in_components(self):
        rng = np.random.default_rng(1)
        rep = bell_rep(3)
        seed = first_factor_projection(3, 2)
        comps = frequency_components(rep, seed)
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            u = rep.unitary(phi)
            expansion = sum(np.exp(1j * c.freq * phi) * c.operator for c in comps)
            assert max_abs(u @ seed @ adjoint(u) - expansion) <= 1e-10

    def test_adjoint_pairing_for_hermitian_seed(self, block_rep):
        rng = np.random.default_rng(2)
        comps = {c.freq: c.operator for c in
                 frequency_components(block_rep, two_block_seed(rng))}
        assert max_abs(comps[-2] - adjoint(comps[2])) <= 1e-12

    # a finite seed whose m = 0 component has an entry 1.36x its largest: the
    # components cannot be returned, but the span, built from unit elements, can
    def test_component_too_large_for_a_float(self):
        u = np.array([np.cos(0.2), np.sin(0.2)])
        rep = CircleRep(freqs=(0, 1), projections=(np.outer(u, u), np.eye(2) - np.outer(u, u)))
        seed = np.full((2, 2), np.finfo(float).max)
        with pytest.raises(ValueError) as raised:
            frequency_components(rep, seed)
        assert str(raised.value) == "a frequency component has an entry too large for a float"
        assert orbit_graph(rep, seed).span_dim == 3


class TestNonFiniteSeed:
    # a NaN seed used to give span 0: every relative cut was NaN
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_frequency_components_rejects(self, block_rep, bad):
        seed = np.eye(4, dtype=complex)
        seed[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            frequency_components(block_rep, seed)

    def test_orbit_graph_rejects(self, block_rep):
        with pytest.raises(ValueError, match="non-finite"):
            orbit_graph(block_rep, np.full((4, 4), np.nan), allow_nonpositive=True)

    def test_sampled_orbit_graph_rejects(self, block_rep):
        seed = np.eye(4, dtype=complex)
        seed[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sampled_orbit_graph(block_rep, seed, 5)


# haar_average and sampled_orbit_graph share one conjugation and its input checks
@pytest.mark.parametrize("build", [lambda rep, a, n: rep.haar_average(a, n), sampled_orbit_graph],
                         ids=["haar_average", "sampled_orbit_graph"])
@pytest.mark.parametrize("seed,n_samples,message", [
    (np.eye(3), 5, "expected a 4x4 matrix, got (3, 3)"),
    (np.eye(4), 0, "n_samples must be >= 1"),
], ids=["wrong-shape", "zero-samples"])
def test_conjugation_input_errors(block_rep, build, seed, n_samples, message):
    with pytest.raises(ValueError) as raised:
        build(block_rep, seed, n_samples)
    assert str(raised.value) == message


class TestStackedBasis:
    def test_empty_and_tuple_inputs_normalize(self):
        assert OperatorGraph(dim=3, basis=()).basis.shape == (0, 3, 3)
        assert OperatorGraph(dim=3, basis=[]).basis.shape == (0, 3, 3)
        graph = OperatorGraph(dim=2, basis=(np.eye(2) / np.sqrt(2), SIGMA_X / np.sqrt(2)))
        assert graph.basis.shape == (2, 2, 2) and graph.basis.dtype == complex
        assert graph.span_dim == 2

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            OperatorGraph(dim=3, basis=np.zeros((2, 2, 2)))
        graph = OperatorGraph(dim=2, basis=[np.eye(2) / np.sqrt(2)])
        with pytest.raises(ValueError):
            graph.project(np.eye(3))

    def test_project_on_stack_matches_each_matrix(self):
        rng = np.random.default_rng(15)
        graph = _random_graph(rng, 3, 4)
        stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        projected = graph.project(stack)
        assert projected.shape == stack.shape
        for a, pa in zip(stack, projected):
            single = graph.project(a)
            assert single.shape == (3, 3)
            assert max_abs(pa - single) <= 1e-13
            # reference: the per-element sum of <b, a> b
            reference = sum(hs_inner(b, a) * b for b in graph.basis)
            assert max_abs(single - reference) <= 1e-13

    def test_empty_graph_projects_to_zero(self):
        graph = OperatorGraph(dim=2, basis=())
        assert max_abs(graph.project(np.eye(2))) == 0.0
        check = is_operator_system(graph)
        assert not check.contains_identity and check.adjoint_closed


class TestOrbitGraph:
    def test_identity_seed_spans_one(self, block_rep):
        graph = orbit_graph(block_rep, np.eye(4))
        assert graph.span_dim == 1

    def test_two_block_seed_spans_three(self, block_rep):
        rng = np.random.default_rng(3)
        graph = orbit_graph(block_rep, two_block_seed(rng, c=1.0))
        assert graph.span_dim == 3

    def test_unequal_block_constants_exclude_identity(self, block_rep):
        # seed c1 P+ + c2 P- + off-block with c1 != c2: span misses the identity
        rng = np.random.default_rng(4)
        p_minus = np.eye(4) - P_PLUS_4
        seed = 2.0 * P_PLUS_4 + 1.0 * p_minus + random_offblock(rng)
        graph = orbit_graph(block_rep, seed, allow_nonpositive=True)
        assert graph.span_dim == 3
        check = is_operator_system(graph)
        assert not check.contains_identity
        sampled = sampled_orbit_graph(block_rep, seed, 7)
        assert sampled.span_dim == graph.span_dim

    def test_rejects_nonpositive_seed(self, block_rep):
        with pytest.raises(ValueError, match="positive semidefinite"):
            orbit_graph(block_rep, -np.eye(4))
        graph = orbit_graph(block_rep, -np.eye(4), allow_nonpositive=True)
        assert graph.span_dim == 1

    @pytest.mark.parametrize("d", [6, 8])
    def test_psd_cut_is_relative_to_the_spectral_norm(self, d):
        # J/n has norm 1 but largest entry 1/n: a cut at 1e-14 times the largest
        # entry rejected it for a rounding-level eigenvalue near -7e-16
        n, tol = d * d, Tolerance(eq_tol=1e-14)
        flat = np.ones((n, n)) / n
        assert orbit_graph(bell_rep(d), flat, tol).span_dim >= 1
        with pytest.raises(ValueError, match="min eigenvalue -1e-12"):
            orbit_graph(bell_rep(d), flat - 1e-12 * np.eye(n), tol)

    def test_basis_is_orthonormal(self, block_rep):
        rng = np.random.default_rng(5)
        graph = orbit_graph(block_rep, two_block_seed(rng))
        for i, a in enumerate(graph.basis):
            for j, b in enumerate(graph.basis):
                assert hs_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def orbit_seed(rng, rep, kind):
    """A dense seed, its pinching (only the m = 0 component survives) or the
    identity plus the rest of it (no block-diagonal part beyond I)."""
    n = rep.dim
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return {"dense": x, "pinched": rep.pinch(x), "offblock": np.eye(n) + x - rep.pinch(x)}[kind]


class TestAnalyticBasis:
    # mixed-sign frequencies, Haar-rotated blocks, seeds scaled 1e-100..1e100
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 7),
        freqs=FREQS,
        kind=st.sampled_from(["dense", "pinched", "offblock"]),
        exponent=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normalized_components_span_what_gram_schmidt_spans(
        self, n, freqs, kind, exponent, seed
    ):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        m0 = 10.0**exponent * orbit_seed(rng, rep, kind)
        graph = orbit_graph(rep, m0, allow_nonpositive=True)
        gram = np.tensordot(graph.basis.conj(), graph.basis, axes=([1, 2], [1, 2]))
        assert max_abs(gram - np.eye(graph.span_dim)) <= 1e-12
        reference = pair_loop_graph(rep, m0)
        assert graph.span_dim == reference.span_dim
        assert _span_gap(graph, reference) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e-80, 1e80])
    def test_cut_is_relative_to_the_seed_hs_norm(self, block_rep, scale):
        # ||I||_HS = 2 and ||F||_HS = max|F| = 1: the HS rule keeps the corner
        # once eps / 2 > eq_tol, where a max-entry rule would keep it at eps > eq_tol
        f = np.zeros((4, 4), dtype=complex)
        f[0, 2] = 1.0
        for eps, span_dim in ((2.2e-10, 2), (1.8e-10, 1)):
            seed = scale * (np.eye(4) + eps * f)
            assert orbit_graph(block_rep, seed, allow_nonpositive=True).span_dim == span_dim
            assert len(frequency_components(block_rep, seed)) == span_dim

    def test_runs_no_gram_schmidt(self, block_rep, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbit_graph orthonormalized its components")

        monkeypatch.setattr(covgraph.graphs, "gram_schmidt_operators", refuse)
        rng = np.random.default_rng(14)
        assert orbit_graph(block_rep, two_block_seed(rng)).span_dim == 3


class TestSampledOrbitGraph:
    def test_identity_seed(self, block_rep):
        for n in (1, 4, 9):
            assert sampled_orbit_graph(block_rep, np.eye(4), n).span_dim == 1

    def test_matches_analytic_span(self, block_rep):
        rng = np.random.default_rng(6)
        seed = two_block_seed(rng)
        analytic = orbit_graph(block_rep, seed)
        sampled = sampled_orbit_graph(block_rep, seed, 5)
        assert sampled.span_dim == analytic.span_dim == 3
        diff = np.linalg.norm(span_projector(analytic) - span_projector(sampled), 2)
        assert diff <= 1e-9
        assert _span_gap(analytic, sampled) == pytest.approx(diff, abs=1e-12)

    def test_bell_seed_matches_analytic(self):
        rep = bell_rep(4)
        seed = first_factor_projection(4, 2)
        analytic = orbit_graph(rep, seed)
        sampled = sampled_orbit_graph(rep, seed, 9)
        assert sampled.span_dim == analytic.span_dim
        assert analytic.span_dim == len(frequency_components(rep, seed))
        diff = max_abs(span_projector(analytic) - span_projector(sampled))
        assert diff <= 1e-8

    # component frequencies differ by up to twice the largest frequency
    # difference; more samples than that keep every component apart
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), freqs=FREQS, extra=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_analytic_span_on_random_reps(self, n, freqs, extra, seed):
        rng = np.random.default_rng(seed)
        freqs = freqs[:n]
        rep = random_rep(rng, n, freqs)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m0 = a @ adjoint(a)
        n_samples = 2 * (max(freqs) - min(freqs)) + 1 + extra
        analytic = orbit_graph(rep, m0)
        sampled = sampled_orbit_graph(rep, m0, n_samples)
        assert sampled.span_dim == analytic.span_dim
        assert _span_gap(analytic, sampled) <= 1e-8

    def test_span_projector_matches_svd_oracle(self, block_rep):
        rng = np.random.default_rng(7)
        seed = two_block_seed(rng)
        graph = orbit_graph(block_rep, seed)
        oracle = subspace_projector_from_ops(
            [c.operator for c in frequency_components(block_rep, seed)]
        )
        assert max_abs(span_projector(graph) - oracle) <= 1e-9


def _random_graph(rng, n, k, within=None):
    """Graph with an HS-orthonormal basis of k random n-by-n operators; with
    ``within``, the operators are drawn from that graph's span."""
    if within is None:
        flat = rng.normal(size=(n * n, k)) + 1j * rng.normal(size=(n * n, k))
    else:
        cols = np.array(within.basis).reshape(within.span_dim, n * n).T
        mix = rng.normal(size=(within.span_dim, k)) + 1j * rng.normal(size=(within.span_dim, k))
        flat = cols @ mix
    q, _ = np.linalg.qr(flat)
    return OperatorGraph(dim=n, basis=tuple(q[:, j].reshape(n, n) for j in range(k)))


class TestSpanGap:
    # n = 24 makes tall flattened bases (576 rows); n = 1 a single row
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5, 24]),
        k_a=st.integers(0, 6),
        k_b=st.integers(0, 6),
        nested=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_projector_difference(self, n, k_a, k_b, nested, seed):
        rng = np.random.default_rng(seed)
        k_a = min(k_a, n * n)
        a = _random_graph(rng, n, k_a)
        b = _random_graph(rng, n, min(k_b, k_a) if nested else min(k_b, n * n),
                          within=a if nested else None)
        expected = np.linalg.norm(span_projector(a) - span_projector(b), 2)
        assert abs(_span_gap(a, b) - expected) <= 1e-12


class TestScaleInvariance:
    # a family projection (codes pass) or a random PSD seed (codes fail), with
    # largest entry 1, scaled by up to the largest float
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.booleans(),
        tau=st.floats(0.0, 0.5),
        scale=st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
        seed=st.integers(0, 2**32 - 1),
    )
    # the largest part falls below 2**-1021 and its power of two is subnormal
    @example(family=True, tau=0.2, scale=1e-308, seed=0)
    @example(family=False, tau=0.0, scale=1e-308, seed=0)
    @example(family=True, tau=0.2, scale=1e308, seed=0)
    @example(family=False, tau=0.0, scale=1e308, seed=0)
    @example(family=True, tau=0.2, scale=float(np.finfo(float).max), seed=1)
    @example(family=False, tau=0.0, scale=float(np.finfo(float).max), seed=1)
    def test_span_and_verdicts_ignore_seed_scale(self, family, tau, scale, seed):
        rng = np.random.default_rng(seed)
        rep = two_block_rep(P_PLUS_4)
        if family:
            z1, z2, z4 = rng.uniform(0.0, 2.0 * np.pi, size=3)
            m0 = family_projection(FamilyParams(tau=tau, z1=z1, z2=z2, z4=z4))
        else:
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m0 = a @ adjoint(a)
            m0 = (m0 + adjoint(m0)) / 2.0
        m0 = m0 / max_abs(m0)
        for build in (lambda m: orbit_graph(rep, m), lambda m: sampled_orbit_graph(rep, m, 5)):
            base, scaled = build(m0), build(scale * m0)
            assert scaled.span_dim == base.span_dim
            for p in (P_PLUS_4, np.eye(4) - P_PLUS_4):
                assert verify_anticlique(p, scaled).passed == verify_anticlique(p, base).passed


class TestOperatorSystem:
    def test_identity_span(self, block_rep):
        graph = orbit_graph(block_rep, np.eye(4))
        check = is_operator_system(graph)
        assert check.contains_identity and check.adjoint_closed

    def test_hermitian_two_block_graph(self, block_rep):
        rng = np.random.default_rng(8)
        graph = orbit_graph(block_rep, two_block_seed(rng))
        check = is_operator_system(graph)
        assert check.contains_identity and check.adjoint_closed
        assert check.identity_residual <= 1e-10

    def test_single_corner_is_not_a_system(self, block_rep):
        rng = np.random.default_rng(9)
        f = P_PLUS_4 @ random_offblock(rng) @ (np.eye(4) - P_PLUS_4)
        from covgraph import OperatorGraph, gram_schmidt_operators

        basis, _ = gram_schmidt_operators([f])
        graph = OperatorGraph(dim=4, basis=tuple(basis))
        check = is_operator_system(graph)
        assert not check.contains_identity
        assert not check.adjoint_closed

    # [I, I] spans {cI}, but projecting as if orthonormal read residuals 3.0 and 4.24
    @pytest.mark.parametrize("basis", [[np.eye(2), np.eye(2)], [2.0 * np.eye(2) / np.sqrt(2.0)]],
                             ids=["repeated", "scaled"])
    def test_rejects_a_basis_that_is_not_orthonormal(self, basis):
        with pytest.raises(ValueError, match=r"not HS-orthonormal \(Gram residual [23]\)"):
            is_operator_system(OperatorGraph(2, basis))

    def test_group_invariance_of_span(self, block_rep):
        rng = np.random.default_rng(10)
        graph = orbit_graph(block_rep, two_block_seed(rng))
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            u = block_rep.unitary(phi)
            for b in graph.basis:
                conj = u @ b @ adjoint(u)
                assert max_abs(conj - graph.project(conj)) <= 1e-9


class TestOperatorSystemReference:
    """is_operator_system on orbit graphs (read from F and its slots) and on
    the same bases as plain graphs (Gram products) against a brute-force QR
    reference.  A complex seed's components at m and -m are not adjoints of
    each other, and a phased Hermitian seed e^{i theta} H has the projection
    coefficient e^{-2 i theta}, so using tr(B_{-m} B_m) for
    <B_{-m}, B_m^dagger> shows on both."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 7),
        freqs=FREQS,
        kind=st.sampled_from(["complex", "phased", "hermitian"]),
        theta=st.floats(0.1, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_reference(self, n, freqs, kind, theta, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, freqs[:n])
        h = random_hermitian(rng, n)
        m0 = {"complex": h + 1j * random_hermitian(rng, n),
              "phased": np.exp(1j * theta) * h, "hermitian": h}[kind]
        graph = orbit_graph(rep, m0, allow_nonpositive=True)
        reference = operator_system_reference(graph)
        for g in (graph, OperatorGraph(dim=n, basis=graph.basis)):
            check = is_operator_system(g)
            assert abs(check.identity_residual - reference[0]) <= 1e-12
            assert abs(check.adjoint_residual - reference[1]) <= 1e-12
            assert check.contains_identity == (reference[0] <= 1e-10)
            assert check.adjoint_closed == (reference[1] <= 1e-10)


class TestAdjointClosureScalar:
    def test_hermitian_seed_gives_one(self, block_rep):
        rng = np.random.default_rng(11)
        h = adjoint_closure_scalar(block_rep, two_block_seed(rng))
        assert h == pytest.approx(1.0, abs=1e-10)

    def test_recovers_constructed_scalar(self, block_rep):
        rng = np.random.default_rng(12)
        f = P_PLUS_4 @ random_offblock(rng) @ (np.eye(4) - P_PLUS_4)
        target = 2.0j
        seed = np.eye(4) + f + target * adjoint(f)
        h = adjoint_closure_scalar(block_rep, seed)
        assert h == pytest.approx(target, abs=1e-9)

    # the zero tests follow the components' cut, so they move with the seed
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-11, 1e6, 1e-300, 1e300, 1e308,
                                       float(np.finfo(float).max)])
    def test_scalar_ignores_seed_scale(self, block_rep, scale):
        f = np.zeros((4, 4), dtype=complex)
        f[0, 2], f[1, 3] = 1.0, 0.5j
        seed = scale * ((np.eye(4) + f + 2.0j * adjoint(f)) / 2.0)  # largest entry 1
        assert adjoint_closure_scalar(block_rep, seed) == pytest.approx(2.0j, abs=1e-12)
        assert orbit_graph(block_rep, seed, allow_nonpositive=True).span_dim == 3

    def test_orthogonal_corners_fail(self, block_rep):
        # G orthogonal to F^dagger in the HS sense: no scalar exists
        f = np.zeros((4, 4), dtype=complex)
        f[0, 2] = 1.0
        g = np.zeros((4, 4), dtype=complex)
        g[3, 1] = 1.0  # hs_inner(F^dagger, G) = F[1,3]... = 0
        assert hs_inner(adjoint(f), g) == 0
        seed = np.eye(4) + f + g
        assert adjoint_closure_scalar(block_rep, seed) is None
        graph = orbit_graph(block_rep, seed, allow_nonpositive=True)
        assert not is_operator_system(graph).adjoint_closed

    def test_zero_corners(self, block_rep):
        assert adjoint_closure_scalar(block_rep, np.eye(4)) == 0.0

    # F = P+ X P-, and G = h F^dagger, a generic P- Y P+ or 0; or F = 0
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 6),
        kind=st.sampled_from(["scalar", "generic", "no-g", "no-f", "none"]),
        exponent=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_components_route(self, n, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        rep = random_rep(rng, n, (1, -1))
        plus, minus = rep.projections  # at frequencies 1 and -1

        def corner(left, right):
            return left @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) @ right

        f = np.zeros((n, n)) if kind in ("no-f", "none") else corner(plus, minus)
        h = complex(*rng.normal(size=2))
        g = {"scalar": h * adjoint(f), "generic": corner(minus, plus),
             "no-g": np.zeros((n, n)), "no-f": corner(minus, plus), "none": np.zeros((n, n))}[kind]
        m0 = np.eye(n) + f + g
        m0 = 10.0**exponent * (m0 / max_abs(m0))
        got, want = adjoint_closure_scalar(rep, m0), adjoint_closure_reference(rep, m0)
        if want is None or want == 0.0:
            assert got == want and type(got) is type(want)
        else:
            assert type(got) is complex
            assert abs(got - want) <= 1e-12 * abs(want)
        if kind == "scalar":
            assert abs(got - h) <= 1e-9 * abs(h)

    def test_zero_f_nonzero_g(self, block_rep):
        g = np.zeros((4, 4), dtype=complex)
        g[2, 0] = 1.0
        assert adjoint_closure_scalar(block_rep, np.eye(4) + g) is None

    def test_requires_two_block_rep(self):
        rep = bell_rep(2)
        with pytest.raises(ValueError, match="two-block"):
            adjoint_closure_scalar(rep, np.eye(4))


class TestMaximalGraph:
    def test_dimension_in_c4(self):
        # 2 block coefficients plus the full 2x2 + 2x2 off-block corner
        graph = two_block_maximal_graph(P_PLUS_4)
        assert graph.span_dim == 10

    def test_dimension_of_random_rank_two_projection_in_c5(self):
        rng = np.random.default_rng(16)
        p = random_projection(rng, 5, 2)
        graph = two_block_maximal_graph(p)
        assert graph.span_dim == 2 + 2 * 2 * 3
        gram = np.tensordot(graph.basis.conj(), graph.basis, axes=([1, 2], [1, 2]))
        assert max_abs(gram - np.eye(graph.span_dim)) <= 1e-12
        # the span holds both blocks and is invariant under the two-block action
        rep = two_block_rep(p)
        assert max_abs(p - graph.project(p)) <= 1e-12
        for phi in rng.uniform(0, 2 * np.pi, size=3):
            u = rep.unitary(phi)
            conj = u @ graph.basis @ adjoint(u)
            assert max_abs(conj - graph.project(conj)) <= 1e-12

    @pytest.mark.parametrize("p", [np.zeros((3, 3)), np.eye(3)])
    def test_trivial_projection_spans_the_identity(self, p):
        graph = two_block_maximal_graph(p)
        assert graph.span_dim == 1
        assert is_operator_system(graph).contains_identity

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError, match="projection"):
            two_block_maximal_graph(0.5 * np.eye(4))
        with pytest.raises(ValueError):
            two_block_maximal_graph(np.ones((2, 3)))

    def test_contains_every_family_orbit_graph(self, block_rep):
        rng = np.random.default_rng(13)
        maximal = two_block_maximal_graph(P_PLUS_4)
        for _ in range(3):
            graph = orbit_graph(block_rep, two_block_seed(rng))
            for b in graph.basis:
                assert max_abs(b - maximal.project(b)) <= 1e-10


@pytest.mark.parametrize("seed,message", [
    (np.triu(np.ones((4, 4))), "seed is not positive semidefinite (not Hermitian); "
                               "pass allow_nonpositive=True to explore anyway"),
    # the PSD check used to run first and fail with numpy's broadcast or shape error
    (np.ones((3, 4)), "expected a 4x4 matrix, got (3, 4)"),
    (np.ones(4), "expected a 4x4 matrix, got (4,)"),
    (np.eye(3), "expected a 4x4 matrix, got (3, 3)"),
    (-np.eye(3), "expected a 4x4 matrix, got (3, 3)"),
    # (A + A^dagger) / 2 overflowed to NaN there, and NaN passed the PSD check
    (-1e308 * P_PLUS_4, "seed is not positive semidefinite (min eigenvalue -1e+308); "
                        "pass allow_nonpositive=True to explore anyway"),
], ids=["non-hermitian-seed", "seed-3x4", "seed-1-d", "seed-3x3", "non-psd-seed-3x3",
        "seed-minus-1e308"])
def test_input_rejections(block_rep, seed, message):
    with pytest.raises(ValueError) as raised:
        orbit_graph(block_rep, seed)
    assert str(raised.value) == message
