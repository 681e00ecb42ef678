"""The golden report corpus: a fixed set of CLI commands and their recorded
exit code, stderr and JSON report, one file per command under reports/.

Run from the repository root to rewrite the corpus after a deliberate
change of report contents:

    PYTHONPATH=src python tests/golden/regen.py

It prints a unified diff of every report that changed, and nothing for the
ones that did not.  The input files under inputs/ are written only when
missing, from a fixed seed, so regenerating never moves them.  Every command
runs with this directory as the working directory and relative paths, so
``verify`` echoes the same paths on every checkout.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from covgraph import FamilyParams, bell_rep, family_projection, first_factor_projection
from covgraph.cli import canonical_dumps, main, matrix_to_json

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"


def _verify(rep: str, m0: str, proj: str, *extra: str) -> list[str]:
    return ["verify", "--rep", f"inputs/{rep}", "--m0", f"inputs/{m0}",
            "--proj", f"inputs/{proj}", *extra, "--json"]


# name -> argv; each entry is one file reports/<name>.json
CASES = {
    "demo4-tau-0": ["demo4", "--tau", "0", "--z1", "1.0", "--z2", "0.3", "--z4", "0.7", "--json"],
    "demo4-tau-half": ["demo4", "--tau", "0.5", "--z1", "0.4", "--z4", "2.0", "--json"],
    "demo4-tau-max-entropy": ["demo4", "--tau", repr(1.0 / (2.0 * 2.0**0.5)), "--json"],
    "demo4-tau-0.35355339": ["demo4", "--tau", "0.35355339", "--json"],
    "demo4-generic-a": ["demo4", "--tau", "0.1", "--z1", "0.3", "--z2", "1.1", "--z4", "2.5",
                        "--k", "1", "--json"],
    "demo4-generic-b": ["demo4", "--tau", "0.42", "--z1", "pi/3", "--z2", "-1", "--z4", "5",
                        "--k", "-1", "--json"],
    "demo4-tau-out-of-range": ["demo4", "--tau", "0.7", "--json"],
    **{f"bell-dim-{d}": ["bell", "--dim", str(d), "--j", str(j), "--json"]
       for d, j in ((2, 1), (3, 2), (4, 4), (5, 3), (6, 6))},
    "bell-bad-index": ["bell", "--dim", "3", "--j", "4", "--json"],
    "scan-50": ["scan", "--grid", "0.05:0.45:50", "--json"],
    "scan-empty-grid": ["scan", "--grid", ",", "--json"],
    "verify-bell": _verify("bell3_rep.json", "bell3_m0.json", "bell3_proj.json"),
    "verify-bell-samples": _verify("bell3_rep.json", "bell3_m0.json", "bell3_proj.json",
                                   "--samples", "5"),
    "verify-psd": _verify("psd6_rep.json", "psd6_m0.json", "psd6_proj.json"),
    "verify-psd-samples": _verify("psd6_rep.json", "psd6_m0.json", "psd6_proj.json",
                                  "--samples", "11"),
    "verify-rank-one": _verify("two_block_rep.json", "two_block_m0.json", "rank1_proj.json"),
    "verify-nonpsd-seed": _verify("two_block_rep.json", "nonpsd_m0.json", "two_block_proj.json"),
    "verify-null-projection-entry": _verify("null_entry_rep.json", "two_block_m0.json",
                                            "two_block_proj.json"),
    "verify-incomplete-rep": _verify("incomplete_rep.json", "two_block_m0.json",
                                     "two_block_proj.json"),
}


def _haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rep_doc(freqs, projections) -> dict:
    return {"dim": projections[0].shape[0], "freqs": list(freqs),
            "projections": [matrix_to_json(p) for p in projections]}


def _input_docs() -> dict:
    rng = np.random.default_rng(20180601)
    # Bell d = 3, every operator conjugated by one Haar unitary: passes
    u = _haar_unitary(rng, 9)
    bell = [u @ p @ u.conj().T for p in bell_rep(3).projections]
    # frequencies 1, 2, 5 on rank-2 blocks of C^6 and a dense PSD seed
    cols = np.split(_haar_unitary(rng, 6), 3, axis=1)
    psd_projs = [c @ c.conj().T for c in cols]
    w = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    p_plus = np.diag([1.0, 1.0, 0.0, 0.0])
    two_block = _rep_doc((1, -1), [p_plus, np.eye(4) - p_plus])
    null_entry = json.loads(json.dumps(two_block))
    null_entry["projections"][0]["data"][1][0][1] = None
    q = family_projection(FamilyParams(tau=0.25, z1=0.5))
    return {
        "bell3_rep.json": _rep_doc((1, 2, 3), bell),
        "bell3_m0.json": matrix_to_json(u @ first_factor_projection(3, 2) @ u.conj().T),
        "bell3_proj.json": matrix_to_json(bell[0]),
        "psd6_rep.json": _rep_doc((1, 2, 5), psd_projs),
        "psd6_m0.json": matrix_to_json(w @ w.conj().T / 6),
        "psd6_proj.json": matrix_to_json(psd_projs[1]),
        "two_block_rep.json": two_block,
        "two_block_m0.json": matrix_to_json(q),
        "two_block_proj.json": matrix_to_json(p_plus),
        "rank1_proj.json": matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0])),
        "nonpsd_m0.json": matrix_to_json(q - np.eye(4)),
        "null_entry_rep.json": null_entry,
        "incomplete_rep.json": _rep_doc((1, -1), [p_plus, p_plus]),
    }


def write_missing_inputs() -> None:
    (HERE / "inputs").mkdir(exist_ok=True)
    for name, doc in _input_docs().items():
        path = HERE / "inputs" / name
        if not path.exists():
            path.write_text(canonical_dumps(doc) + "\n", encoding="utf-8")


def run_case(argv: list[str]) -> dict:
    """Run one command in this directory and record what it printed."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    return {"argv": argv, "exit_code": code, "stderr": err.getvalue(),
            "report": json.loads(stdout) if stdout else None}


def dumps_record(record: dict) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def main_regen() -> int:
    write_missing_inputs()
    REPORTS.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = REPORTS / f"{name}.json"
        new = dumps_record(run_case(argv))
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if new != old:
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                f"a/{name}.json", f"b/{name}.json"))
            path.write_text(new, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main_regen())
