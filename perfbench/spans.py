"""Spans around covgraph's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper at
every place it can be looked up: the defining module, every covgraph module
that imported it by name, and the class for methods.  ``uninstall`` puts the
originals back, so untraced jobs run the unmodified code.  Helpers such as
``hs_inner``, ``max_abs`` and ``adjoint`` are not wrapped; their time counts
in the caller's self time.

A span is [name, start, end, parent index, job id, n, counts]: ``n`` is the
matrix dimension the call worked on (None where it has none) and ``counts``
holds the extra work counts named per target below.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _dim(x) -> int:
    return int(x.shape[0])


# (module, attribute path, n from (args, result), counts from (args, result))
# Each describer sees the positional arguments and the result (None if the
# call raised).  Every caller in covgraph passes these arguments positionally.
TARGETS = [
    ("linalg", "eig_hermitian", lambda a, r: _dim(a[0]), lambda a, r: {"n3": _dim(a[0]) ** 3}),
    ("linalg", "gram_schmidt_operators",
     lambda a, r: _dim(a[0][0]) if len(a[0]) else None,
     lambda a, r: {"inputs": len(a[0]), "kept": r[1]} if r else {}),
    ("linalg", "spectral_projections_unitary", lambda a, r: _dim(a[0]), None),
    ("linalg", "schmidt", lambda a, r: a[1] * a[2], None),
    ("circle", "CircleRep.validate", lambda a, r: a[0].dim, None),
    ("circle", "CircleRep.unitary", lambda a, r: a[0].dim, None),
    ("circle", "CircleRep.pinch", lambda a, r: a[0].dim, None),
    ("graphs", "frequency_components", lambda a, r: a[0].dim,
     lambda a, r: {"kept": len(r), "freq_diffs": len({s - t for s in a[0].freqs for t in a[0].freqs})}
     if r is not None else {}),
    ("graphs", "orbit_graph", lambda a, r: a[0].dim, None),
    ("graphs", "sampled_orbit_graph", lambda a, r: a[0].dim,
     lambda a, r: {"samples": a[2], "kept": r.span_dim} if r is not None else {}),
    ("graphs", "span_projector", lambda a, r: a[0].dim, lambda a, r: {"bytes": a[0].dim ** 4 * 16}),
    ("graphs", "is_operator_system", lambda a, r: a[0].dim, None),
    ("graphs", "OperatorGraph.project", lambda a, r: a[0].dim, None),
    ("anticlique", "verify_anticlique", lambda a, r: a[1].dim,
     lambda a, r: {"passed": int(r.passed)} if r is not None else {}),
    ("anticlique", "anticliques_from_spectrum", lambda a, r: a[0].dim, None),
    ("anticlique", "merged_spectrum_angles", lambda a, r: a[0].dim, None),
    ("families", "family_projection", lambda a, r: 4, None),
    ("families", "family_params_from_matrix", lambda a, r: 4, None),
    ("families", "entanglement_report", lambda a, r: 4, None),
    ("bell", "bell_rep", lambda a, r: a[0] ** 2, None),
    ("bell", "first_factor_projection", lambda a, r: a[0] ** 2, None),
    ("bell", "bell_code_report", lambda a, r: a[0] ** 2, None),
    ("cli", "main", lambda a, r: None, None),
    ("cli", "matrix_from_json", lambda a, r: a[0].get("rows") if isinstance(a[0], dict) else None, None),
    ("cli", "canonical_dumps", lambda a, r: None, None),
]
OUTERMOST_ONLY = {"cli.canonical_dumps"}  # recursive: nested calls are part of the outer span
NAMES = [f"{mod}.{path}" for mod, path, _, _ in TARGETS]


class Tracer:
    """Records spans of the target functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, path, n_of, counts_of in TARGETS:
            module = importlib.import_module(f"covgraph.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:  # method: patch the class attribute
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], n_of, counts_of))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, n_of, counts_of)
            for mod in [m for key, m in sys.modules.items() if key == "covgraph" or key.startswith("covgraph.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, n_of, counts_of):
        spans, stack, active = self.spans, self._stack, self._active
        outermost = name in OUTERMOST_ONLY
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None, None]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            result = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = clock()
                stack.pop()
                active[name] -= 1
                try:
                    record[5] = n_of(args, result)
                    record[6] = counts_of(args, result) if counts_of else None
                except (AttributeError, IndexError, TypeError):
                    pass  # called with arguments the describer does not know

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children's intervals (overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per target name: calls, self_s, and the summed extra counts."""
    table = {name: {"calls": 0, "self_s": 0.0, "counts": defaultdict(float)} for name in NAMES}
    for span, self_s in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += self_s
        for key, value in (span[6] or {}).items():
            row["counts"][key] += value
    return table


def mean_duration(spans: list[list], name: str, n: int) -> tuple[float, int]:
    """Mean inclusive duration of the spans of ``name`` at dimension n, and their count."""
    durations = [s[2] - s[1] for s in spans if s[0] == name and s[5] == n]
    return (sum(durations) / len(durations) if durations else float("nan")), len(durations)
