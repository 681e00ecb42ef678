"""The golden report corpus as a contract test: every command in
golden/regen.py must reproduce its recorded exit code, stderr and report.

Exit code, stderr, keys, assertion names, verdicts, span_dim and
code_dimension (every string, bool and int) must match exactly; a float may
move by at most regen.NUMBER_TOL, so only rounding-level changes pass.  A
deliberate change is recorded by rerunning golden/regen.py.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from golden import regen
from golden.regen import CASES, REPORTS, mismatches, run_case


def test_every_report_has_a_case():
    assert {p.stem for p in REPORTS.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_corpus(name):
    want = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))
    found = mismatches(want, run_case(CASES[name]))
    assert not found, "\n".join(found)


def test_regen_on_an_unchanged_tree_writes_no_file(tmp_path, monkeypatch, capsys):
    # regen works on a copy of the reports, so a failure leaves the corpus alone
    reports = tmp_path / "reports"
    shutil.copytree(REPORTS, reports)
    monkeypatch.setattr(regen, "REPORTS", reports)
    written = []
    write_text = Path.write_text
    monkeypatch.setattr(
        Path, "write_text", lambda path, *a, **kw: written.append(path) or write_text(path, *a, **kw))
    assert regen.main_regen() == 0
    assert written == []
    assert capsys.readouterr().out == ""


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
