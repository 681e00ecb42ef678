"""Command-line front end: JSON matrix I/O, built-in demos, verification
pipelines, and machine-readable reports.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 input or usage
error.  Reports follow the "covgraph-report/1" schema; JSON output is
canonical (sorted keys, floats at 17 significant digits) so identical runs
are byte-identical.  The environment variable COVGRAPH_TOL overrides the
default equality tolerance; --tol takes precedence over the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .anticlique import AnticliqueVerdict, verify_anticlique
from .bell import bell_code_report
from .circle import CircleRep
from .families import FamilyParams, family_report
from .graphs import _span_gap, orbit_graph, sampled_orbit_graph
from .linalg import DEFAULT_TOL, Tolerance, _as_integer

REPORT_VERSION = "covgraph-report/1"
SAMPLED_SPAN_TOL = 1e-8


class CliInputError(ValueError):
    """Bad usage or malformed input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    text = format(x, ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {canonical_dumps(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# matrix / representation files


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[[float(v.real), float(v.imag)] for v in row] for row in m],
    }


def matrix_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise CliInputError("matrix document must be a JSON object")
    try:
        rows, cols = (_as_integer(doc[k], f"{k} must be an integer") for k in ("rows", "cols"))
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"matrix document missing/invalid field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise CliInputError("matrix dimensions must be positive")
    expected = f"matrix data must be {rows} rows of {cols} [re, im] pairs"
    try:
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"{expected}: {exc}") from exc
    if pairs.shape != (rows, cols, 2):
        raise CliInputError(f"{expected}, got shape {pairs.shape}")
    bad = np.argwhere(~np.isfinite(pairs).all(axis=2))  # null reads as NaN
    if len(bad):
        raise CliInputError(f"entry ({bad[0][0]},{bad[0][1]}) is not finite")
    return pairs.view(complex)[..., 0]  # each [re, im] pair is one complex128


def rep_from_json(doc) -> CircleRep:
    if not isinstance(doc, dict):
        raise CliInputError("representation document must be a JSON object")
    try:
        dim = _as_integer(doc["dim"], "dim must be an integer")
        freqs, projection_docs = list(doc["freqs"]), list(doc["projections"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"representation document missing/invalid field: {exc}") from exc
    rep = CircleRep(freqs=freqs, projections=[matrix_from_json(p) for p in projection_docs])
    if rep.dim != dim:
        raise CliInputError(f"projections are {rep.dim}x{rep.dim}, but dim is {dim}")
    return rep


def rep_to_json(rep: CircleRep) -> dict:
    return {
        "dim": rep.dim,
        "freqs": list(rep.freqs),
        "projections": [matrix_to_json(p) for p in rep.projections],
    }


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument helpers


_PI_PATTERN = re.compile(r"(?i)^([+-]?(?:\d+\.?\d*|\.\d+)?)\*?pi(?:/([+-]?(?:\d+\.?\d*|\.\d+)))?$")


def parse_angle(text: str) -> float:
    """Finite radians; accepts pi literals such as 'pi', '-pi', 'pi/2', '2pi/3'."""
    t = text.strip().replace(" ", "")
    match = _PI_PATTERN.match(t)
    try:
        if match is None:
            value = float(t)
        else:
            coef_text, denom_text = match.group(1), match.group(2)
            coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(coef_text) or float(coef_text)
            value = coef * math.pi / float(denom_text or 1.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def resolve_tolerance(tol_flag: float | None) -> Tolerance:
    eq_tol = tol_flag
    if eq_tol is None:
        env = os.environ.get("COVGRAPH_TOL")
        if env is not None:
            try:
                eq_tol = float(env)
            except ValueError as exc:
                raise CliInputError(f"COVGRAPH_TOL is not a float: {env!r}") from exc
    if eq_tol is None:
        return DEFAULT_TOL
    if not 0.0 < eq_tol < math.inf:
        raise CliInputError(f"tolerance must be positive and finite, got {eq_tol}")
    if eq_tol < 1e-14:  # at 1e-15, bell --dim 6 --j 2 already fails on rounding
        raise CliInputError(f"tolerance must be at least 1e-14, got {eq_tol}: "
                            "below it, rounding error alone fails exact inputs")
    return Tolerance(
        eq_tol=eq_tol,
        eig_tol=min(DEFAULT_TOL.eig_tol, eq_tol),
        degeneracy_tol=DEFAULT_TOL.degeneracy_tol,
    )


def parse_grid(spec: str) -> list[float]:
    """Grid spec: comma list '0.1,0.2' or linspace 'start:stop:count'."""
    spec = spec.strip()
    if not spec:
        raise CliInputError("empty grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliInputError("range grid must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliInputError(f"malformed grid {spec!r}") from exc
        if count < 1:
            raise CliInputError("grid count must be >= 1")
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliInputError(f"malformed grid {spec!r}") from exc
    if not values:
        raise CliInputError("empty grid")
    return values


# ---------------------------------------------------------------------------
# report assembly


def _assertion(name: str, passed: bool, residual: float, details=None) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "residual": float(residual),
        "details": details if details is not None else {},
    }


def _complex_pairs(values) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in values]


def _verdict_assertion(name: str, verdict: AnticliqueVerdict, passed: bool | None = None) -> dict:
    """An anticlique verdict as an assertion; ``passed`` overrides its own flag."""
    details = {
        "code_dimension": verdict.code_dimension,
        "constants": _complex_pairs(verdict.constants),
    }
    if not verdict.passed and verdict.code_dimension < 2:
        details["reason"] = "code_dimension < 2"
    return _assertion(
        name, verdict.passed if passed is None else passed, verdict.max_residual, details
    )


def _emit(args, report: dict) -> int:
    """Print the report of ``args.command``; exit code 0 iff every assertion passed."""
    report = {"version": REPORT_VERSION, "command": args.command, **report}
    if args.json:
        print(canonical_dumps(report))
    else:
        print(f"{report['command']}  inputs: {report['inputs']}")
        for item in report["assertions"]:
            tag = "PASS" if item["passed"] else "FAIL"
            line = f"[{tag}] {item['name']:<28} residual={item['residual']:.3e}"
            if item["details"]:
                line += f"  {item['details']}"
            print(line)
    return 0 if all(item["passed"] for item in report["assertions"]) else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_demo4(args, tol: Tolerance) -> int:
    result = family_report(FamilyParams(args.tau, args.z1, args.z2, args.z4, args.k), tol)
    system = result.system
    assertions = [
        _assertion(
            "projection-idempotent",
            result.idempotence_residual <= tol.eq_tol,
            result.idempotence_residual,
        ),
        _assertion(
            "projection-trace-2", result.trace_residual <= tol.eq_tol, result.trace_residual
        ),
        _assertion(
            "complement-in-family", result.complement_in_family, result.complement_residual
        ),
        _assertion(
            "graph-contains-identity",
            system.contains_identity,
            system.identity_residual,
            {"span_dim": result.graph.span_dim},
        ),
        _assertion("graph-adjoint-closed", system.adjoint_closed, system.adjoint_residual),
        _verdict_assertion("anticlique-p-plus", result.verdict_plus),
        _verdict_assertion("anticlique-p-minus", result.verdict_minus),
    ]

    ent = result.entanglement
    schmidt_block = {
        "corrected": {row.label: [float(c) for c in row.corrected_coefficients] for row in ent.rows},
        "corrected_entropy_bits": {row.label: row.corrected_entropy_bits for row in ent.rows},
        "printed_weights": list(ent.rows[0].printed_weights),
        "printed_entropy_bits": ent.rows[0].printed_entropy_bits,
        "discrepancy": {row.label: row.discrepancy for row in ent.rows},
        "boundary_separable": ent.boundary_separable,
        "printed_prefactor_norm_deviation": ent.printed_prefactor_norm_deviation,  # inf -> null
    }

    report = {
        "inputs": {"tau": args.tau, "z1": args.z1, "z2": args.z2, "z4": args.z4, "k": args.k},
        "assertions": assertions,
        "constants": _complex_pairs(result.verdict_plus.constants),
        "schmidt": schmidt_block,
    }
    return _emit(args, report)


def _cmd_bell(args, tol: Tolerance) -> int:
    result = bell_code_report(args.dim, args.j, tol)
    assertions = [
        _assertion(
            "pinch-is-identity-over-d",
            result.pinch_residual <= tol.eq_tol,
            result.pinch_residual,
            {"span_dim": result.graph.span_dim},
        ),
        _assertion(
            "graph-contains-identity", result.contains_identity, result.identity_residual
        ),
        _assertion("graph-adjoint-closed", result.adjoint_closed, result.adjoint_residual),
    ]
    for s, verdict in enumerate(result.verdicts, start=1):
        assertions.append(
            _verdict_assertion(
                f"anticlique-s-{s}", verdict, verdict.passed and verdict.code_dimension == args.dim
            )
        )
    report = {
        "inputs": {"dim": args.dim, "j": args.j},
        "assertions": assertions,
        "constants": _complex_pairs(result.verdicts[0].constants),
    }
    return _emit(args, report)


def _cmd_verify(args, tol: Tolerance) -> int:
    rep = rep_from_json(_load_json(args.rep))
    rep._require_valid(tol)
    seed = matrix_from_json(_load_json(args.m0))
    candidate = matrix_from_json(_load_json(args.proj))

    graph = orbit_graph(rep, seed, tol, allow_nonpositive=args.allow_nonpositive)

    assertions = []
    if args.samples is not None:
        sampled = sampled_orbit_graph(rep, seed, args.samples, tol)
        proj_diff = _span_gap(graph, sampled)
        assertions.append(
            _assertion(
                "sampled-span-consistent",
                sampled.span_dim == graph.span_dim and proj_diff <= SAMPLED_SPAN_TOL,
                proj_diff,
                {"analytic_dim": graph.span_dim, "sampled_dim": sampled.span_dim},
            )
        )

    verdict = verify_anticlique(candidate, graph, tol)
    assertions.append(_verdict_assertion("anticlique", verdict))

    report = {
        "inputs": {"rep": args.rep, "m0": args.m0, "proj": args.proj, "samples": args.samples},
        "assertions": assertions,
        "constants": _complex_pairs(verdict.constants),
    }
    return _emit(args, report)


def _cmd_scan(args, tol: Tolerance) -> int:
    grid = parse_grid(args.grid)
    rng = np.random.default_rng(args.seed)
    assertions = []
    for i, tau in enumerate(grid):
        z1, z2, z4 = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=3))
        result = family_report(FamilyParams(tau=tau, z1=z1, z2=z2, z4=z4, k=0), tol)
        plus, minus = result.verdict_plus, result.verdict_minus
        row = result.entanglement.rows[0]
        assertions.append(
            _assertion(
                f"point-{i}",
                result.idempotence_residual <= tol.eq_tol and plus.passed and minus.passed,
                max(result.idempotence_residual, plus.max_residual, minus.max_residual),
                {
                    "tau": tau,
                    "z1": z1,
                    "z2": z2,
                    "z4": z4,
                    "span_dim": result.graph.span_dim,
                    "printed_entropy_bits": row.printed_entropy_bits,
                    "corrected_entropy_bits": row.corrected_entropy_bits,
                    "max_entropy": abs(row.printed_entropy_bits - 1.0) <= 1e-9,
                    "boundary_separable": result.entanglement.boundary_separable,
                },
            )
        )
    all_ok = all(item["passed"] for item in assertions)
    worst = max(item["residual"] for item in assertions)
    assertions.append(
        _assertion("aggregate", all_ok, worst, {"points": len(grid), "all_passed": all_ok})
    )
    report = {
        "inputs": {"grid": args.grid, "seed": args.seed},
        "assertions": assertions,
    }
    return _emit(args, report)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covgraph",
        description="Operator graphs from circle-covariant resolutions of identity.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable report")
    common.add_argument(
        "--tol", type=float, default=None, help="equality tolerance (overrides COVGRAPH_TOL)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo4 = sub.add_parser(
        "demo4",
        parents=[common],
        help="build a 4x4 family projection, certify its graph and entanglement",
    )
    demo4.add_argument("--tau", type=float, required=True, help="off-block magnitude in [0, 1/2]")
    demo4.add_argument("--z1", type=parse_angle, default=0.0, help="phase in radians (pi literals ok)")
    demo4.add_argument("--z2", type=parse_angle, default=0.0)
    demo4.add_argument("--z4", type=parse_angle, default=0.0)
    demo4.add_argument("--k", type=int, default=0, help="winding integer in the phase constraint")
    demo4.set_defaults(func=_cmd_demo4)

    bell = sub.add_parser(
        "bell", parents=[common], help="certify the d^2-dimensional Bell-state construction"
    )
    bell.add_argument("--dim", type=int, required=True, help="local dimension d >= 2")
    bell.add_argument("--j", type=int, required=True, help="seed index in 1..d")
    bell.set_defaults(func=_cmd_bell)

    verify = sub.add_parser(
        "verify", parents=[common], help="verify a user-supplied (rep, seed, projection) instance"
    )
    verify.add_argument("--rep", required=True, help="representation JSON file")
    verify.add_argument("--m0", required=True, help="seed matrix JSON file")
    verify.add_argument("--proj", required=True, help="candidate projection JSON file")
    verify.add_argument("--samples", type=int, default=None, help="cross-check with N sampled conjugates")
    verify.add_argument(
        "--allow-nonpositive",
        action="store_true",
        help="permit a seed that is not positive semidefinite",
    )
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser(
        "scan", parents=[common], help="sweep the projection family over a tau grid"
    )
    scan.add_argument("--grid", required=True, help="comma list '0.1,0.2' or range 'start:stop:count'")
    scan.add_argument("--seed", type=int, default=0, help="RNG seed for the phase draws")
    scan.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, resolve_tolerance(args.tol))
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
