"""Tests of the benchmark itself: span arithmetic, the tail rule, and the
oracle agreeing with covgraph on one known instance per workload.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import metrics
import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, None]


class TestSelfTime:
    def test_children_are_subtracted_from_parent(self):
        tree = [
            _span("cli.main", 0.0, 10.0, None),
            _span("graphs.orbit_graph", 1.0, 4.0, 0),
            _span("linalg.eig_hermitian", 2.0, 3.5, 1),
            _span("anticlique.verify_anticlique", 5.0, 9.0, 0),
        ]
        assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 4.0])

    def test_overlapping_children_are_counted_once(self):
        tree = [
            _span("cli.main", 0.0, 10.0, None),
            _span("graphs.orbit_graph", 1.0, 5.0, 0),
            _span("graphs.orbit_graph", 3.0, 7.0, 0),
            _span("graphs.orbit_graph", 4.0, 6.0, 0),
        ]
        assert spans.self_times(tree)[0] == pytest.approx(4.0)

    def test_aggregate_sums_self_time_and_counts_by_name(self):
        tree = [
            _span("graphs.orbit_graph", 0.0, 4.0, None),
            [*_span("linalg.eig_hermitian", 1.0, 2.0, 0)[:5], 8, {"n3": 512}],
            [*_span("linalg.eig_hermitian", 2.5, 3.0, 0)[:5], 4, {"n3": 64}],
        ]
        table = spans.aggregate(tree)
        assert table["graphs.orbit_graph"]["self_s"] == pytest.approx(2.5)
        assert table["linalg.eig_hermitian"]["calls"] == 2
        assert table["linalg.eig_hermitian"]["self_s"] == pytest.approx(1.5)
        assert table["linalg.eig_hermitian"]["counts"]["n3"] == 576


class TestTail:
    def test_ten_samples_beyond(self):
        value, pct, beyond = metrics.tail([float(i) for i in range(25)])
        assert (value, pct, beyond) == (14.0, 60.0, 10)

    def test_order_of_samples_is_irrelevant(self):
        xs = [float(i) for i in range(100)]
        assert metrics.tail(xs[::-1]) == (89.0, 90.0, 10)

    def test_ties_at_the_tail_value_are_not_beyond(self):
        xs = [1.0] * 15 + [2.0] * 10
        assert metrics.tail(xs) == (1.0, 60.0, 10)
        value, pct, beyond = metrics.tail([1.0] * 5 + [2.0] * 20)
        assert (value, beyond) == (2.0, 0)

    def test_too_few_samples_falls_back_to_the_median(self):
        assert metrics.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


@pytest.fixture(scope="module")
def runner():
    return worker.InProcess(ROOT)


class TestBlockTail:
    def test_runs_shorter_than_a_window_are_one_window(self):
        xs = [float(i) for i in range(150)]
        assert metrics.block_tail(xs, 30, 40) == (139.0, [metrics.tail(xs)])

    def test_a_burst_in_one_stretch_does_not_set_the_tail(self):
        quiet = [1.0] * 190 + [2.0] * 10
        burst = [1.0] * 150 + [9.0] * 50
        value, windows = metrics.block_tail(quiet * 2 + burst + quiet * 2, 100, 20)
        assert len(windows) == 81  # 100 cycles of 10 jobs, windows of 20 cycles
        assert value == 1.0
        assert windows[40] == (9.0, 95.0, 0)

    def test_windows_hold_whole_cycles_one_cycle_apart(self):
        xs = [float(i % 7) for i in range(7 * 32)]  # 32 cycles of 7 jobs
        _, windows = metrics.block_tail(xs, 32, 30)
        assert len(windows) == 3 and all(w == (6.0, 100.0 * 200 / 210, 0) for w in windows)

    def test_the_tail_rank_does_not_depend_on_the_run_length(self):
        cycle = [0.1, 0.2, 0.2, 0.3, 0.4, 0.4, 0.8, 0.9]  # tail of 4 cycles: a 0.4 job
        for n_cycles in (4, 5, 6, 7, 9):
            value, _ = metrics.block_tail(cycle * n_cycles, n_cycles, 4)
            assert value == 0.4


class TestLoop:
    class _Clockwork:
        """Stands in for a runner: every job takes one second."""

        def run(self, job, tracer=None):
            return 1.0, None

    def test_stops_at_the_cycle_boundary_nearest_to_the_seconds(self):
        cycles = [[{"kind": "k", "expect": {}}] * 2]  # two-second cycles
        assert worker.run_loop(self._Clockwork(), cycles, 7.2, 1, None)["cycles"] == 4
        assert worker.run_loop(self._Clockwork(), cycles, 6.8, 1, None)["cycles"] == 3

    def test_runs_at_least_one_tail_block(self):
        cycles = [[{"kind": "k", "expect": {}}] * 2]
        assert worker.run_loop(self._Clockwork(), cycles, 1.0, 5, None)["cycles"] == 5


class TestWorkloads:
    def test_every_bell_family_cycle_holds_both_mixes(self, tmp_path):
        plan = workloads.build("bell-family", 1, str(tmp_path))
        taus = {repr(t) for t in workloads.TAU_EXACT}
        for cycle in plan["cycles"]:
            kinds = sorted(job["kind"] for job in cycle)
            assert kinds == sorted([f"bell d={d}" for d in range(2, 9)] + ["demo4"] * 4 + ["scan 4 points"])
            demo4_taus = {job["argv"][2] for job in cycle if job["kind"] == "demo4"}
            assert taus <= demo4_taus

    def test_inputs_follow_the_seed(self, tmp_path):
        first = workloads.build("bell-family", 3, str(tmp_path / "a"))
        again = workloads.build("bell-family", 3, str(tmp_path / "b"))
        other = workloads.build("bell-family", 4, str(tmp_path / "c"))
        argvs = [[job["argv"] for job in cycle] for cycle in first["cycles"]]
        assert argvs == [[job["argv"] for job in cycle] for cycle in again["cycles"]]
        assert argvs != [[job["argv"] for job in cycle] for cycle in other["cycles"]]


class TestTracer:
    def test_wraps_every_import_site_and_restores(self, runner):
        import covgraph
        import covgraph.bell
        import covgraph.cli
        import covgraph.graphs

        original = covgraph.graphs.orbit_graph
        tracer = spans.Tracer()
        tracer.install()
        try:
            for module in (covgraph, covgraph.graphs, covgraph.bell, covgraph.cli):
                assert module.orbit_graph is not original
            covgraph.bell_code_report(3, 1)
            covgraph.cli.canonical_dumps({"a": [1.0, {"b": 2}]})
        finally:
            tracer.uninstall()
        assert covgraph.bell.orbit_graph is original
        names = [s[0] for s in tracer.spans]
        assert names.count("cli.canonical_dumps") == 1  # recursion: outermost call only
        assert names.count("bell.bell_code_report") == 1
        by_index = {i: s for i, s in enumerate(tracer.spans)}
        orbit = next(s for s in tracer.spans if s[0] == "graphs.orbit_graph")
        assert by_index[orbit[3]][0] == "bell.bell_code_report"
        assert orbit[5] == 9
        eig = next(s for s in tracer.spans if s[0] == "linalg.eig_hermitian")
        assert eig[6] == {"n3": 9**3}


def _agrees(job, run) -> bool:
    return worker.check(job["expect"], run(job)[1])


class TestOracleAgreesWithLibrary:
    def test_bell(self, runner):
        job = workloads._bell_job(4, 3)
        assert job["expect"]["rc"] == 0
        assert job["expect"]["assertions"]["anticlique-s-2"]["details"] == {"code_dimension": 4}
        assert _agrees(job, runner.run)

    def test_dense_conjugated_bell_passes_and_merged_projection_fails(self, runner, tmp_path):
        rng = np.random.default_rng(7)
        files = workloads._Files(str(tmp_path))
        job = workloads._verify_job(files, "bell", workloads._conjugated_bell(rng, 3), spectrum=True)
        expect = job["expect"]
        assert expect["rc"] == 0
        assert expect["assertions"]["anticlique"] == {"passed": True, "details": {"code_dimension": 3}}
        # phi = pi merges s = 1 and s = 3: the rank-6 projection fails, P_2 passes
        assert expect["angles"] == [[1, 2]]
        assert expect["spectrum"] == [[0, 3, True], [0, 6, False]]
        assert _agrees(job, runner.run)

    def test_dense_psd_seed_fails(self, runner, tmp_path):
        rng = np.random.default_rng(8)
        files = workloads._Files(str(tmp_path))
        job = workloads._verify_job(files, "psd", workloads._random_psd(rng, 16, 4), spectrum=True)
        assert job["expect"]["rc"] == 1
        assert job["expect"]["assertions"]["sampled-span-consistent"]["passed"]
        assert _agrees(job, runner.run)

    def test_family(self, runner):
        rng = np.random.default_rng(9)
        demo4 = workloads._demo4_job(1.0 / (2.0 * math.sqrt(2.0)), rng)
        scan = workloads._scan_job([0.0, 0.5, 0.3], 11)
        assert demo4["expect"]["rc"] == 0 and scan["expect"]["rc"] == 0
        assert _agrees(demo4, runner.run) and _agrees(scan, runner.run)

    def test_cli_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
        job = workloads._bell_job(3, 2)
        assert _agrees(job, worker.Subprocess(ROOT, str(tmp_path / "spans.json")).run)

    def test_a_wrong_expectation_is_caught(self, runner):
        job = workloads._bell_job(3, 1)
        wrong = {"rc": 0, "assertions": dict(job["expect"]["assertions"])}
        wrong["assertions"]["pinch-is-identity-over-d"] = {"passed": True, "details": {"span_dim": 4}}
        assert _agrees(job, runner.run)
        assert not worker.check(wrong, runner.run(job)[1])
