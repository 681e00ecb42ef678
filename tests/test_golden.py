"""The golden report corpus as a contract test: every command in
golden/regen.py must reproduce its recorded exit code, stderr and report.

Exit code, stderr, keys, assertion names, verdicts, span_dim and
code_dimension (every string, bool and int) must match exactly; a float may
move by at most NUMBER_TOL, so only rounding-level changes pass.  A
deliberate change is recorded by rerunning golden/regen.py.
"""

from __future__ import annotations

import json

import pytest

from golden.regen import CASES, REPORTS, run_case

NUMBER_TOL = 1e-14


def mismatches(want, got, path: str = "") -> list[str]:
    """Every place where ``got`` breaks the corpus rule, named by its key path;
    list items that carry a "name" are labelled by it."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for key in sorted(want) for m in mismatches(want[key], got[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        found = []
        for i, (w, g) in enumerate(zip(want, got)):
            label = w["name"] if isinstance(w, dict) and "name" in w else i
            found += mismatches(w, g, f"{path}[{label}]")
        return found
    if type(want) is float and type(got) is float:
        same = abs(want - got) <= NUMBER_TOL
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{path}: {want!r} != {got!r}"]


def test_every_report_has_a_case():
    assert {p.stem for p in REPORTS.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name):
    want = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))
    found = mismatches(want, run_case(CASES[name]))
    assert not found, "\n".join(found)


class TestComparator:
    REPORT = {
        "exit_code": 0,
        "stderr": "",
        "report": {"assertions": [
            {"name": "anticlique", "passed": True, "residual": 1e-16,
             "details": {"code_dimension": 2, "constants": [[0.5, 0.0]]}},
        ]},
    }

    def _changed(self, **details) -> dict:
        doc = json.loads(json.dumps(self.REPORT))
        doc["report"]["assertions"][0]["details"].update(details)
        return doc

    def test_rounding_level_moves_pass(self):
        doc = self._changed(constants=[[0.5 + 4e-15, 1e-15]])
        doc["report"]["assertions"][0]["residual"] = 9e-15
        assert mismatches(self.REPORT, doc) == []

    @pytest.mark.parametrize(
        "details,key",
        [
            ({"constants": [[0.5 + 1e-13, 0.0]]}, ".report.assertions[anticlique].details.constants[0][0]"),
            ({"code_dimension": 3}, ".report.assertions[anticlique].details.code_dimension"),
            ({"span_dim": 3}, ".report.assertions[anticlique].details: keys"),
        ],
        ids=["constant", "code-dimension", "new-key"],
    )
    def test_a_failure_names_the_key(self, details, key):
        (found,) = mismatches(self.REPORT, self._changed(**details))
        assert found.startswith(key)

    def test_verdict_exit_code_and_stderr_are_exact(self):
        doc = json.loads(json.dumps(self.REPORT))
        doc["report"]["assertions"][0]["passed"] = False
        doc["exit_code"], doc["stderr"] = 1, "error: x\n"
        assert [m.split(":")[0] for m in mismatches(self.REPORT, doc)] == [
            ".exit_code", ".report.assertions[anticlique].passed", ".stderr"]
