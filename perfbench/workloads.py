"""Seeded job mixes for the benchmark workloads.

A workload is a list of cycles plus a warm-up list.  Every cycle holds the
same kinds and sizes of job in a seeded order, with seeded content; the timed
loop runs whole cycles, so every run measures the same mix whatever its seed.
Each job carries the oracle's expected report, computed here at set-up.

Job fields:
  argv      covgraph CLI arguments (run in-process, or as a subprocess for
            the cli-process workload)
  spectrum  optional {"rep", "m0"} files: after ``verify``, load them and run
            anticliques_from_spectrum at the first two merged angles
  expect    oracle result: exit code, assertions by name, spectrum verdicts
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

import oracle

WORKLOADS = ("bell", "dense", "family", "cli-process", "bell-family")

TAU_EXACT = (0.0, 0.5, 1.0 / (2.0 * math.sqrt(2.0)))
# Dense cycles hold three d = 5 jobs in the middle of their nine, so the
# median falls among them (three samples a cycle) and, in a window of three
# cycles, the tail (ten samples beyond it) among them and the n = 28 jobs,
# whose latencies overlap, rather than on a gap between two job kinds.
DENSE_BELL_DIMS = (3, 4, 5, 5, 5, 6)  # n = 9, 16, 25, 25, 25, 36
DENSE_PSD_SIZES = ((16, 3), (28, 4), (40, 3))  # (n, number of frequencies)
PSD_MAX_FREQ = 5  # every random rep has it, so every PSD job takes 11 samples
BELL_DIMS = tuple(range(2, 9))  # n = 4 .. 64
N_CYCLES = {"bell": 64, "family": 32, "dense": 4, "cli-process": 4, "bell-family": 64}
# Whole cycles in one window of the tail estimate (metrics.block_tail), and
# the fewest a run measures: about 200 jobs or more on bell, family and
# bell-family.
BLOCK_CYCLES = {"bell": 30, "family": 25, "dense": 3, "cli-process": 6, "bell-family": 30}


def build(name: str, seed: int, tmp_dir: str) -> dict:
    """{"inprocess", "cycles", "warmup", "block_cycles"} for the named workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    files = _Files(tmp_dir)
    maker = {"bell": _bell, "dense": _dense, "family": _family, "cli-process": _cli,
             "bell-family": _bell_family}[name]
    cycles = [maker(rng, files) for _ in range(N_CYCLES[name])]
    warmup = _warmup(name, rng, files)
    return {"inprocess": name != "cli-process", "cycles": cycles, "warmup": warmup,
            "block_cycles": BLOCK_CYCLES[name]}


class _Files:
    """Writes matrix and representation JSON documents in the CLI's format."""

    def __init__(self, tmp_dir: str):
        self.dir = tmp_dir
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"in{self.count:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def matrix(self, m: np.ndarray) -> str:
        return self.write(_matrix_doc(m))

    def rep(self, freqs, projs) -> str:
        return self.write(
            {"dim": int(projs[0].shape[0]), "freqs": [int(s) for s in freqs],
             "projections": [_matrix_doc(p) for p in projs]}
        )


def _matrix_doc(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[[float(v.real), float(v.imag)] for v in row] for row in m],
    }


def _shuffled(rng, jobs: list) -> list:
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# bell: the Bell construction in-process, d = 2..8


_bell_expect = functools.cache(oracle.expect_bell)


def _bell_job(d: int, j: int) -> dict:
    return {"kind": f"bell d={d}", "argv": ["bell", "--dim", str(d), "--j", str(j), "--json"],
            "expect": _bell_expect(d, j)}


def _bell(rng, files) -> list:
    return _shuffled(rng, [_bell_job(d, int(rng.integers(1, d + 1))) for d in BELL_DIMS])


# ---------------------------------------------------------------------------
# family: demo4 and short scans on the 4x4 family


def _demo4_job(tau: float, rng) -> dict:
    z1, z2, z4 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=3))
    k = int(rng.integers(-1, 2))
    argv = ["demo4", "--tau", repr(tau), "--z1", repr(z1), "--z2", repr(z2),
            "--z4", repr(z4), "--k", str(k), "--json"]
    return {"kind": "demo4", "argv": argv, "expect": oracle.expect_demo4(tau, z1, z2, z4, k)}


def _scan_job(taus: list[float], scan_seed: int) -> dict:
    grid = ",".join(repr(t) for t in taus)
    argv = ["scan", "--grid", grid, "--seed", str(scan_seed), "--json"]
    return {"kind": f"scan {len(taus)} points", "argv": argv, "expect": oracle.expect_scan(taus, scan_seed)}


def _family(rng, files) -> list:
    taus = list(TAU_EXACT) + [float(t) for t in rng.uniform(0.0, 0.5, size=3)]
    jobs = [_demo4_job(tau, rng) for tau in taus]
    for _ in range(2):
        scan_taus = [float(t) for t in rng.uniform(0.0, 0.5, size=4)]
        jobs.append(_scan_job(scan_taus, int(rng.integers(0, 2**31))))
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# bell-family: the bell cycle plus the 4x4 family, in one in-process mix


def _bell_family(rng, files) -> list:
    family = [_demo4_job(tau, rng) for tau in TAU_EXACT + (float(rng.uniform(0.0, 0.5)),)]
    family.append(_scan_job([float(t) for t in rng.uniform(0.0, 0.5, size=4)], int(rng.integers(0, 2**31))))
    return _shuffled(rng, _bell(rng, files) + family)


# ---------------------------------------------------------------------------
# dense: user-supplied dense instances through verify + spectral search


def _conjugated_bell(rng, d: int):
    """Bell rep, first-factor seed and one P_s, all conjugated by a Haar unitary."""
    u = oracle.haar_unitary(rng, d * d)
    projs = [u @ p @ u.conj().T for p in oracle.bell_projections(d)]
    seed = oracle.first_factor_projection(d, int(rng.integers(1, d + 1)))
    seed = u @ seed @ u.conj().T
    return tuple(range(1, d + 1)), projs, seed, projs[int(rng.integers(0, d))]


def _random_psd(rng, n: int, n_freqs: int):
    """Random rep with n_freqs positive frequencies, the largest PSD_MAX_FREQ,
    and blocks of rank >= 2, a dense PSD seed W W^dagger / n, and one rep
    projection as the candidate."""
    others = rng.choice(np.arange(1, PSD_MAX_FREQ), n_freqs - 1, replace=False)
    freqs = tuple(sorted(int(s) for s in others)) + (PSD_MAX_FREQ,)
    cuts = np.sort(rng.choice(np.arange(1, n // 2), n_freqs - 1, replace=False)) * 2
    cols = np.split(oracle.haar_unitary(rng, n), cuts, axis=1)
    projs = [c @ c.conj().T for c in cols]
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return freqs, projs, w @ w.conj().T / n, projs[int(rng.integers(0, n_freqs))]


def _verify_job(files, label: str, instance, spectrum: bool) -> dict:
    freqs, projs, seed, candidate = instance
    n_samples = 2 * max(abs(s) for s in freqs) + 1
    rep, m0, proj = files.rep(freqs, projs), files.matrix(seed), files.matrix(candidate)
    job = {
        "kind": f"verify{'+spectrum' if spectrum else ''} {label} n={seed.shape[0]}",
        "argv": ["verify", "--rep", rep, "--m0", m0, "--proj", proj,
                 "--samples", str(n_samples), "--json"],
        "expect": oracle.expect_verify(freqs, projs, seed, candidate, n_samples, spectrum),
    }
    if spectrum:
        job["spectrum"] = {"rep": rep, "m0": m0}
    return job


def _dense(rng, files) -> list:
    jobs = [_verify_job(files, "bell", _conjugated_bell(rng, d), True) for d in DENSE_BELL_DIMS]
    jobs += [_verify_job(files, "psd", _random_psd(rng, n, k), True) for n, k in DENSE_PSD_SIZES]
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# cli-process: one fresh interpreter per command


def _scan50_job(rng) -> dict:
    scan_seed = int(rng.integers(0, 2**31))
    return {
        "kind": "scan 50 points",
        "argv": ["scan", "--grid", "0.05:0.45:50", "--seed", str(scan_seed), "--json"],
        "expect": oracle.expect_scan([float(t) for t in np.linspace(0.05, 0.45, 50)], scan_seed),
    }


def _cli(rng, files) -> list:
    # two scans: the slowest command fills the top 2/6 of the mix, so the tail
    # stays inside the scan jobs from six cycles per run upwards
    jobs = [
        _demo4_job(float(rng.uniform(0.0, 0.5)), rng),
        _bell_job(6, int(rng.integers(1, 7))),
        _scan50_job(rng),
        _scan50_job(rng),
        _verify_job(files, "bell", _conjugated_bell(rng, 4), spectrum=False),
        _verify_job(files, "psd", _random_psd(rng, 16, 4), spectrum=False),
    ]
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# warm-up: the smallest job of each kind


def _warmup(name: str, rng, files) -> list:
    if name == "bell":
        return [_bell_job(2, 1)]
    if name == "family":
        return [_demo4_job(0.25, rng), _scan_job([0.1, 0.2], 0)]
    if name == "bell-family":
        return [_bell_job(2, 1), _demo4_job(0.25, rng), _scan_job([0.1, 0.2], 0)]
    if name == "dense":
        return [_verify_job(files, "bell", _conjugated_bell(rng, 3), spectrum=True),
                _verify_job(files, "psd", _random_psd(rng, 16, 3), spectrum=True)]
    return [_demo4_job(0.25, rng)]
