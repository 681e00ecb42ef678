"""Latency summaries and the per-layer metric table."""

from __future__ import annotations

import math
import statistics

import spans

TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    has at least TAIL_BEYOND samples strictly beyond it.

    With N samples sorted ascending that is the (N - TAIL_BEYOND)-th one, at
    percentile 100 * (N - TAIL_BEYOND) / N.  With N <= TAIL_BEYOND no
    percentile qualifies; the median is returned with its (smaller) count.
    """
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        value = statistics.median(xs)
        return value, 50.0, sum(x > value for x in xs)
    rank = len(xs) - TAIL_BEYOND  # 1-based rank of the tail sample
    value = xs[rank - 1]
    return value, 100.0 * rank / len(xs), sum(x > value for x in xs)


def block_tail(latencies: list[float], n_cycles: int,
               block_cycles: int) -> tuple[float, list[tuple[float, float, int]]]:
    """Median over every window of block_cycles consecutive whole cycles of
    each window's tail(), and the per-window (value, percentile, samples
    beyond).

    Every window holds the same number of jobs of the same mix, so its tail
    sits at the same rank among the same job kinds however long the run is
    (a run shorter than one window is one window).  The windows start one
    cycle apart; the median over them keeps a burst of machine noise in one
    stretch of the run from setting the reported tail.
    """
    per_cycle = len(latencies) // n_cycles
    width = per_cycle * min(block_cycles, n_cycles)
    starts = range(0, len(latencies) - width + 1, per_cycle)
    blocks = [tail(latencies[i:i + width]) for i in starts]
    return statistics.median(b[0] for b in blocks), blocks


def layer_metrics(span_list: list[list], traced_jobs: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per traced job (ratios as ratios)."""
    table = spans.aggregate(span_list)
    per_job = 1.0 / max(traced_jobs, 1)
    out: dict[str, float] = {}
    for name, row in table.items():
        out[f"{name}.calls"] = row["calls"] * per_job
        out[f"{name}.self_s"] = row["self_s"] * per_job
    counts = {name: row["counts"] for name, row in table.items()}
    out["linalg.eig_hermitian.n3_sum"] = counts["linalg.eig_hermitian"]["n3"] * per_job
    out["linalg.gram_schmidt_operators.kept_ratio"] = _ratio(
        counts["linalg.gram_schmidt_operators"], "kept", "inputs")
    out["graphs.frequency_components.kept_ratio"] = _ratio(
        counts["graphs.frequency_components"], "kept", "freq_diffs")
    out["graphs.sampled_orbit_graph.kept_ratio"] = _ratio(
        counts["graphs.sampled_orbit_graph"], "kept", "samples")
    out["graphs.span_projector.bytes"] = counts["graphs.span_projector"]["bytes"] * per_job
    calls = table["anticlique.verify_anticlique"]["calls"]
    out["anticlique.verify_anticlique.pass_ratio"] = (
        counts["anticlique.verify_anticlique"]["passed"] / calls if calls else 0.0)
    return out


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts[num] / counts[den] if counts[den] else 0.0


# ROADMAP item 1 baselines, measured ad hoc before this benchmark existed:
# (label, workloads whose inputs match, span name, dimension n, baseline seconds)
BELL = ("bell", "bell-family")
BASELINES = [
    ("Jacobi eig_hermitian, dense n=16", ("dense",), "linalg.eig_hermitian", 16, 0.029),
    ("Jacobi eig_hermitian, dense n=64", (), "linalg.eig_hermitian", 64, 0.569),
    ("dense-seed orbit_graph, n=36", ("dense",), "graphs.orbit_graph", 36, 0.174),
    ("bell_code_report(8)", BELL, "bell.bell_code_report", 64, 0.057),
    ("  verify_anticlique x8 within it, per call", BELL, "anticlique.verify_anticlique", 64, 0.029 / 8),
    ("anticliques_from_spectrum, n=36, 2 angles (*)", ("dense",), "anticlique.anticliques_from_spectrum",
     36, 0.047),
]


def layer_table(span_list: list[list], traced_job_s: float, traced_jobs: int, workload: str) -> list[str]:
    """Human-readable self-time table, then the baselines beside what this run
    measured at the same size."""
    table = spans.aggregate(span_list)
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'layer function':<44}{'calls/job':>11}{'self ms/job':>13}{'share':>8}{'ms/call':>10}"]
    for name, row in rows:
        if not row["calls"]:
            continue
        share = row["self_s"] / traced_job_s if traced_job_s else math.nan
        lines.append(
            f"{name:<44}{row['calls'] / traced_jobs:>11.2f}{1e3 * row['self_s'] / traced_jobs:>13.3f}"
            f"{100 * share:>7.1f}%{1e3 * row['self_s'] / row['calls']:>10.3f}"
        )
    lines.append("")
    lines.append(f"{'ROADMAP item 1 baseline (inclusive time per call)':<52}{'baseline ms':>12}{'here ms':>10}{'calls':>7}")
    for label, where, name, n, base in BASELINES:
        mean, count = spans.mean_duration(span_list, name, n)
        if workload in where and count:
            here = f"{1e3 * mean:>10.3f}{count:>7}"
        else:
            here = f"  {'see ' + ' or '.join(where) + ' workload' if where else 'no workload has this input'}"
        lines.append(f"{label:<52}{1e3 * base:>12.3f}{here}")
    lines.append("(*) baseline on bell_rep(6); the dense workload conjugates it by a Haar unitary")
    return lines
