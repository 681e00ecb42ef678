"""covgraph benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Builds the workload's inputs and the oracle's expected results from the
seed (not timed), then starts fresh workload processes (worker.py): several
that only set up, to time set-up, and one that also runs the closed loop.
Prints a table of every metric with its unit, the environment, and as the
last line one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Details, raw latencies and (traced) spans are
written under .perfbench_out/.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7  # fresh processes timed for setup_s, the last one runs the loop
IMPORT_REPEATS = 5  # fresh processes per process.* probe
DEADLINE_S = 170.0  # the whole run must end well inside three minutes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def launch_env(root: str, nproc: int) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, BLAS threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


def environment(root: str, args, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "covgraph")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": nproc,
        "nproc": nproc, "cpu": cpu, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def run_worker(root: str, plan_path: str, out_path: str, env: dict, deadline: float,
               setup_only: bool) -> dict:
    """Run one workload process to completion and return its result.  The
    process gets its own session, so a timeout kills any CLI subprocess it
    started along with it."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path]
    if setup_only:
        cmd.append("setup")
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def process_probe(env: dict, code: str) -> float:
    """Median wall time of fresh ``python -c CODE`` processes."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(setups: list[float], main: dict, block_cycles: int) -> dict[str, float]:
    lat = main["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": metrics.block_tail(lat, main["cycles"], block_cycles)[0],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(main: dict, env: dict) -> dict[str, float]:
    floor = process_probe(env, "import numpy")
    values = dict(main["layers"])
    values["process.floor_s"] = floor
    values["process.import_s"] = process_probe(env, "import covgraph.cli") - floor
    values["trace.overhead_ratio"] = sum(main["traced"]) / sum(main["latencies"]) - 1.0
    return values


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("process."):
        return "s"
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "1/job", "self_s": "s/job", "n3_sum": "count/job", "bytes": "B/job"}.get(suffix, "ratio")


def print_table(record: dict, units: dict[str, str]) -> None:
    lat = record["latencies_s"]
    env = record["env"]
    print(f"covgraph benchmark  workload={env['workload']} seed={env['seed']} trace={env['trace']}"
          f"  closed loop, 1 client, {record['cycles']} cycles, {len(lat)} jobs")
    print("env " + json.dumps(env, sort_keys=True))
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(record["kinds"], lat):
        by_kind.setdefault(kind, []).append(latency)
    print(f"{'job kind':<40}{'jobs':>6}{'p50 s':>12}")
    for kind, values in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"{kind:<40}{len(values):>6}{statistics.median(values):>12.4f}")
    for line in record["layer_table"]:
        print(line)
    for name, value in record["metrics"].items():
        note = ""
        if name == "job_tail_s":
            blocks = record["tail_blocks"]
            note = (f"  (median of {len(blocks)} windows of {record['block_jobs']} jobs;"
                    f" p{min(b[1] for b in blocks):.1f}-p{max(b[1] for b in blocks):.1f},"
                    f" {min(b[2] for b in blocks)}+ samples beyond in each)")
        print(f"{name:<52}{value:>16.6g}  {units[name]}{note}")
    print(f"{'failed_ratio':<52}{record['failed_ratio']:>16.6g}  ratio"
          f"  ({record['failed']} of {record['attempted']} failed)")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "covgraph", "__init__.py")):
        print("error: run from the repository root; src/covgraph is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = launch_env(root, nproc)
    out_dir = os.path.join(root, ".perfbench_out")
    tag = f"{args.workload}-trace{args.trace}"
    tmp = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, tmp)
        plan.update(workload=args.workload, root=root, seconds=args.seconds, trace=bool(args.trace),
                    spans_out=os.path.join(out_dir, f"{tag}.spans.json"),
                    child_spans=os.path.join(tmp, "child-spans.json"))
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        out_path = os.path.join(tmp, "worker-out.json")
        runs = [run_worker(root, plan_path, out_path, env, deadline, setup_only=True)
                for _ in range(SETUP_REPEATS - 1)]
        main_run = run_worker(root, plan_path, out_path, env, deadline, setup_only=False)
        runs.append(main_run)
        setups = [run["setup_s"] for run in runs]
        if args.trace:
            values = per_layer(main_run, env)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(setups, main_run, plan["block_cycles"])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lat = main_run["latencies"]
    _, tail_blocks = metrics.block_tail(lat, main_run["cycles"], plan["block_cycles"])
    failed, attempted = main_run["failed"], main_run["attempted"]
    record = {
        "env": environment(root, args, nproc), "metrics": values,
        "failed": failed, "attempted": attempted, "failed_ratio": failed / attempted,
        "cycles": main_run["cycles"], "tail_blocks": tail_blocks,
        "block_jobs": len(lat) // main_run["cycles"] * min(plan["block_cycles"], main_run["cycles"]),
        "setup_samples_s": setups, "latencies_s": lat, "kinds": main_run["kinds"],
        "traced_latencies_s": main_run["traced"], "layer_table": main_run.get("layer_table", []),
    }
    with open(os.path.join(out_dir, f"{tag}.result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(record, units)
    result = {
        "correct": failed == 0 and all(run["warm_ok"] for run in runs),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
