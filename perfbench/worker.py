"""The workload process: ``worker.py PLAN OUT [setup]``.

Times its own set-up (``import covgraph`` and the warm-up pass), then, unless
started with ``setup``, runs the plan's cycles in a closed loop with one
client: whole cycles, at least one tail window of them, stopping at the cycle
boundary nearest to the plan's seconds of summed job time.  Every result is
checked against the oracle's expectation outside the timed region.  Writes a
JSON result to OUT.

With ``trace`` set in the plan, every job runs twice, once plain and once
with spans recorded (alternating which goes first), so the two passes see
the same jobs and their time difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

clock = time.perf_counter


class InProcess:
    """Runs each job as ``covgraph.cli.main(argv)`` in this interpreter."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        import covgraph
        import covgraph.cli

        if not os.path.abspath(covgraph.__file__).startswith(src + os.sep):
            raise SystemExit(f"covgraph imported from {covgraph.__file__}, not {src}")
        self.covgraph = covgraph

    def run(self, job: dict, tracer=None) -> tuple[float, dict | None]:
        """(latency, outcome); outcome is None when the job raised."""
        out = io.StringIO()
        if tracer is not None:
            tracer.install()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.covgraph.cli.main(job["argv"])
                spectrum = self._spectrum(job["spectrum"]) if "spectrum" in job else None
        except (Exception, SystemExit):
            return clock() - start, None
        finally:
            if tracer is not None:
                tracer.uninstall()
        latency = clock() - start
        return latency, {"rc": rc, "stdout": out.getvalue(), "spectrum": spectrum}

    def _spectrum(self, files: dict):
        cg = self.covgraph
        with open(files["rep"], encoding="utf-8") as fh:
            rep = cg.cli.rep_from_json(json.load(fh))
        with open(files["m0"], encoding="utf-8") as fh:
            seed = cg.cli.matrix_from_json(json.load(fh))
        graph = cg.orbit_graph(rep, seed)
        angles = cg.merged_spectrum_angles(rep)[:2]
        return angles, cg.anticliques_from_spectrum(rep, graph, [a.phi for a in angles])


class Subprocess:
    """Runs each job as a fresh ``python -m covgraph.cli`` process.  Traced
    jobs run through traced_cli.py, which records spans in the child."""

    def __init__(self, root: str, spans_path: str):
        self.root = root
        self.spans_path = spans_path

    def run(self, job: dict, tracer=None) -> tuple[float, dict | None]:
        if tracer is None:
            cmd = [sys.executable, "-m", "covgraph.cli", *job["argv"]]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "traced_cli.py"), self.spans_path, *job["argv"]]
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.spans_path)
        start = clock()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return clock() - start, None
        latency = clock() - start
        if tracer is not None and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            base = len(tracer.spans)
            for span in child:
                span[3] = None if span[3] is None else span[3] + base
                span[4] = tracer.job
            tracer.spans.extend(child)
        return latency, {"rc": proc.returncode, "stdout": proc.stdout, "spectrum": None}


def check(expect: dict, outcome: dict | None) -> bool:
    """True iff exit code, assertion verdicts and the expected details match."""
    if outcome is None or outcome["rc"] != expect["rc"]:
        return False
    try:
        report = json.loads(outcome["stdout"])
    except json.JSONDecodeError:
        return False
    got = {a["name"]: a for a in report["assertions"]}
    if set(got) != set(expect["assertions"]):
        return False
    for name, want in expect["assertions"].items():
        if got[name]["passed"] != want["passed"]:
            return False
        if any(got[name]["details"].get(k) != v for k, v in want["details"].items()):
            return False
    if "spectrum" in expect:
        angles, verdicts = outcome["spectrum"]
        phis = [a.phi for a in angles]
        if [[a.numerator, a.denominator] for a in angles] != expect["angles"]:
            return False
        found = sorted(
            [phis.index(v.phi), v.verdict.code_dimension, v.verdict.passed] for v in verdicts
        )
        if found != expect["spectrum"]:
            return False
    return True


def run_loop(runner, cycles: list, seconds: float, min_cycles: int, tracer) -> dict:
    """Closed loop over at least min_cycles whole cycles, ending at the cycle
    boundary nearest to seconds of measured job time."""
    plain: list[float] = []
    traced: list[float] = []
    kinds: list[str] = []
    failed = attempted = n_cycles = 0
    measured = 0.0
    while n_cycles < min_cycles or measured + 0.5 * measured / n_cycles < seconds:
        for job in cycles[n_cycles % len(cycles)]:
            if tracer is None:
                passes = [None]
            else:
                tracer.job = len(traced)
                passes = [None, tracer] if tracer.job % 2 == 0 else [tracer, None]
            for active in passes:
                latency, outcome = runner.run(job, active)
                (plain if active is None else traced).append(latency)
                if active is None:
                    kinds.append(job["kind"])
                measured += latency
                attempted += 1
                failed += not check(job["expect"], outcome)
        n_cycles += 1
    return {"latencies": plain, "kinds": kinds, "traced": traced, "failed": failed,
            "attempted": attempted, "cycles": n_cycles}


def main(argv: list[str]) -> int:
    plan_path, out_path = argv[0], argv[1]
    setup_only = argv[2:] == ["setup"]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    root = plan["root"]

    start = clock()
    runner = InProcess(root) if plan["inprocess"] else Subprocess(root, plan["child_spans"])
    warm_ok = all(check(job["expect"], runner.run(job)[1]) for job in plan["warmup"])
    result = {"setup_s": clock() - start, "warm_ok": warm_ok}

    if not setup_only:
        tracer = None
        if plan["trace"]:
            import spans

            tracer = spans.Tracer()
        result.update(run_loop(runner, plan["cycles"], plan["seconds"], plan["block_cycles"], tracer))
        who = resource.RUSAGE_SELF if plan["inprocess"] else resource.RUSAGE_CHILDREN
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer is not None:
            import metrics

            traced_s, n_traced = sum(result["traced"]), len(result["traced"])
            result["layers"] = metrics.layer_metrics(tracer.spans, n_traced)
            result["layer_table"] = metrics.layer_table(tracer.spans, traced_s, n_traced, plan["workload"])
            with open(plan["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job", "n", "counts"],
                           "spans": tracer.spans}, fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
