"""CLI tests: exit-code contract, JSON round-trips, report schema, tolerance
resolution, and the four subcommand pipelines run through main()."""

from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import covgraph.cli
from covgraph import (
    FamilyParams,
    Tolerance,
    bell_code_report,
    family_projection,
    family_report,
    is_operator_system,
    two_block_rep,
)
from covgraph.cli import (
    CliInputError,
    build_parser,
    canonical_dumps,
    main,
    matrix_from_json,
    matrix_to_json,
    parse_angle,
    rep_from_json,
    rep_to_json,
)
from helpers import P_PLUS_4


@pytest.fixture
def instance_files(tmp_path):
    """rep/m0/proj JSON files for a passing verify run."""
    rep = two_block_rep(P_PLUS_4)
    q = family_projection(FamilyParams(tau=0.25))
    paths = {}
    for name, doc in (
        ("rep", rep_to_json(rep)),
        ("m0", matrix_to_json(q)),
        ("proj", matrix_to_json(P_PLUS_4)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def assert_verify_seed_exits_2(doc, instance_files, tmp_path, capsys):
    """A malformed matrix document given as the seed is a usage error."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["verify", "--rep", instance_files["rep"], "--m0", str(path),
            "--proj", instance_files["proj"]]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSerialization:
    def test_matrix_roundtrip_bytes_stable(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        first = canonical_dumps(matrix_to_json(m))
        second = canonical_dumps(matrix_to_json(matrix_from_json(json.loads(first))))
        assert first == second
        assert np.allclose(matrix_from_json(json.loads(first)), m)

    def test_floats_survive_17_digit_formatting(self):
        values = [1 / 3, 0.1, 2e-15, -0.0, 123456.789, math.pi]
        for v in values:
            assert json.loads(canonical_dumps(v)) == v

    def test_keys_are_sorted(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_exact_bytes(self):
        doc = {
            "floats": [0.1, 2.0, -0.0, 1e16, 1e-17, math.inf, -math.inf, math.nan,
                       np.float64(1 / 3)],
            "ints": [np.int64(-7), 12],
            "flags": [True, False, None],
            "s\u00e9": 'a"b\\\n\u00e9',
        }
        assert canonical_dumps(doc) == (
            '{"flags": [true, false, null], '
            '"floats": [0.10000000000000001, 2.0, -0.0, 10000000000000000.0, '
            '1.0000000000000001e-17, null, null, null, 0.33333333333333331], '
            '"ints": [-7, 12], '
            r'"s\u00e9": "a\"b\\\n\u00e9"}'
        )
        with pytest.raises(TypeError, match="cannot serialize set"):
            canonical_dumps({1})

    @pytest.mark.parametrize(
        "entry,where",
        [([float("nan"), 0.0], "(1,0)"), ([0.0, None], "(1,0)"), ([float("inf"), 0.0], "(1,0)")],
        ids=["nan", "null", "inf"],
    )
    def test_rejects_nonfinite_entries(self, entry, where, instance_files, tmp_path, capsys):
        doc = {"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]], [entry, [1.0, 0.0]]]}
        with pytest.raises(CliInputError, match=re.escape(f"entry {where} is not finite")):
            matrix_from_json(doc)
        assert_verify_seed_exits_2(doc, instance_files, tmp_path, capsys)

    @pytest.mark.parametrize(
        "data",
        [
            [[[1.0, 0.0], [0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["one", 0.0]]],
        ],
        ids=["missing-row", "ragged-row", "three-element-entry", "string-entry"],
    )
    def test_rejects_ragged_data(self, data, instance_files, tmp_path, capsys):
        doc = {"rows": 2, "cols": 2, "data": data}
        with pytest.raises(CliInputError, match="rows"):
            matrix_from_json(doc)
        assert_verify_seed_exits_2(doc, instance_files, tmp_path, capsys)

    # int() truncated 2.9 to 2 and read "2" as 2; 1e400 escaped as OverflowError
    @pytest.mark.parametrize("rows", [2.9, "2", json.loads("1e400")], ids=["2.9", "str", "1e400"])
    def test_rejects_non_integer_size(self, rows, instance_files, tmp_path, capsys):
        doc = {"rows": rows, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]]] * 2}
        with pytest.raises(CliInputError, match="invalid field: rows must be an integer, got"):
            matrix_from_json(doc)
        assert_verify_seed_exits_2(doc, instance_files, tmp_path, capsys)

    def test_rejects_non_integer_frequency(self, instance_files, tmp_path, capsys):
        doc = rep_to_json(two_block_rep(P_PLUS_4))
        doc["freqs"] = [1.7, -1]  # used to be certified as (1, -1)
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", "--rep", str(path), "--m0", instance_files["m0"],
                "--proj", instance_files["proj"]]
        assert main(argv) == 2
        assert "error: frequencies must be integers, got 1.7" in capsys.readouterr().err

    # beyond int64 the sampled unitaries raised TypeError, a traceback with exit 1
    # 10**400 used to escape as OverflowError, from formatting it as a float
    @pytest.mark.parametrize("freq,code", [(2**70, 2), (1e300, 2), (10**400, 2), (2**62, 0)],
                             ids=["2**70", "1e300", "10**400", "2**62"])
    def test_frequency_must_fit_in_int64(self, freq, code, instance_files, tmp_path, capsys):
        doc = rep_to_json(two_block_rep(P_PLUS_4))
        doc["freqs"] = [freq, -1]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", "--rep", str(path), "--m0", instance_files["m0"],
                "--proj", instance_files["proj"], "--samples", "5"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("error: frequencies must be below 2**63 in magnitude" in err) == (code == 2)

    def test_rep_roundtrip(self):
        rep = two_block_rep(P_PLUS_4)
        doc = json.loads(canonical_dumps(rep_to_json(rep)))
        back = rep_from_json(doc)
        assert back.freqs == rep.freqs
        assert all(
            np.allclose(a, b) for a, b in zip(back.projections, rep.projections)
        )


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("2pi/3", 2 * math.pi / 3),
            ("0.5pi", math.pi / 2),
            ("2*pi", 2 * math.pi),
            ("1.25", 1.25),
            ("-0.5", -0.5),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("two pies")

    # a zero denominator used to raise ZeroDivisionError inside argparse (exit 1)
    @pytest.mark.parametrize("text", ["pi/0", "0pi/0", "2pi/0.0", "nan", "inf", "1e400"])
    def test_zero_denominator_and_non_finite_are_usage_errors(self, text, capsys):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)
        with pytest.raises(SystemExit) as exc:
            main(["demo4", "--tau", "0.1", "--z1", text])
        assert exc.value.code == 2
        assert "--z1" in capsys.readouterr().err


class TestDemo4:
    def test_passes_and_reports(self, capsys):
        code, report = run_json(
            capsys, ["demo4", "--tau", "0.35355339", "--z1", "0", "--z2", "0", "--z4", "0", "--k", "0"]
        )
        assert code == 0
        assert report["version"] == "covgraph-report/1"
        assert report["command"] == "demo4"
        assert all(a["passed"] for a in report["assertions"])
        assert report["schmidt"]["printed_entropy_bits"] == pytest.approx(1.0, abs=1e-7)
        names = {a["name"] for a in report["assertions"]}
        assert {"projection-idempotent", "graph-contains-identity",
                "anticlique-p-plus", "anticlique-p-minus"} <= names

    def test_human_mode_names_match_json(self, capsys):
        argv = ["demo4", "--tau", "0.25"]
        code = main(argv)
        human = capsys.readouterr().out
        code2, report = run_json(capsys, argv)
        assert code == code2 == 0
        for item in report["assertions"]:
            assert item["name"] in human

    def test_boundary_tau(self, capsys):
        code, report = run_json(capsys, ["demo4", "--tau", "0"])
        assert code == 0
        assert report["schmidt"]["boundary_separable"] is True

    def test_graph_dimension_reported(self, capsys):
        code, report = run_json(capsys, ["demo4", "--tau", "0.25"])
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["graph-contains-identity"]["details"]["span_dim"] == 3

    def test_pi_literal_angles(self, capsys):
        code, report = run_json(capsys, ["demo4", "--tau", "0.25", "--z1", "pi/2"])
        assert code == 0
        assert report["inputs"]["z1"] == pytest.approx(math.pi / 2)

    def test_complement_residual_is_the_round_trip(self, capsys):
        code, report = run_json(capsys, ["demo4", "--tau", "0", "--z1", "1", "--z4", "0.7"])
        assert code == 0
        item = next(a for a in report["assertions"] if a["name"] == "complement-in-family")
        expected = family_report(FamilyParams(tau=0.0, z1=1.0, z4=0.7)).complement_residual
        assert item["residual"] == expected <= 1e-15

    def test_invalid_tau_exits_2(self, capsys):
        assert main(["demo4", "--tau", "0.7"]) == 2
        assert "tau" in capsys.readouterr().err

    # k used to enter the phase as the float pi(2k + 1): 10**15 read the seed as
    # not positive semidefinite, and 401 digits overflowed
    @pytest.mark.parametrize("k", [10**6, 10**15, 10**400], ids=["1e6", "1e15", "1e400"])
    def test_winding_k_changes_only_the_echoed_input(self, k, capsys):
        argv = ["demo4", "--tau", "0.3", "--z1", "0.7", "--z2", "1.9", "--z4", "2.6", "--k"]
        want_code, want = run_json(capsys, argv + ["0"])
        code, report = run_json(capsys, argv + [str(k)])
        assert report["inputs"].pop("k") == k
        want["inputs"].pop("k")
        assert code == want_code == 0
        assert report == want


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
        build_parser.cache_clear()
        assert main(["bell", "--dim", "2", "--j", "1"]) == 0
        assert main(["demo4", "--tau", "0.25"]) == 0
        assert built.count("covgraph") == 1

    def test_a_usage_error_between_calls_leaves_the_next_report_unchanged(self, capsys):
        argv = ["demo4", "--tau", "0.25", "--json"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        # --z1 is parsed before --z2 fails; the next call must not see it
        with pytest.raises(SystemExit) as exc:
            main(["demo4", "--tau", "0.3", "--z1", "1", "--z2", "pi/0", "--json"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestHumanOutput:
    """The report printed without --json: a header line naming the command and
    its inputs, then one [PASS] or [FAIL] line per assertion."""

    def test_bell_report(self, capsys):
        assert main(["bell", "--dim", "2", "--j", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "bell  inputs: {'dim': 2, 'j': 1}"
        assert lines[4] == (
            "[PASS] anticlique-s-1               residual=0.000e+00  "
            "{'code_dimension': 2, 'constants': [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]}"
        )

    def test_failing_verify_report(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent / "golden" / "inputs")
        argv = ["verify", "--rep", "two_block_rep.json", "--m0", "two_block_m0.json",
                "--proj", "rank1_proj.json"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "verify  inputs: {'rep': 'two_block_rep.json', 'm0': 'two_block_m0.json', "
            "'proj': 'rank1_proj.json', 'samples': None}\n"
            "[FAIL] anticlique                   residual=0.000e+00  "
            "{'code_dimension': 1, 'constants': [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], "
            "'reason': 'code_dimension < 2'}\n"
        )


class TestBell:
    def test_small_dimension(self, capsys):
        code, report = run_json(capsys, ["bell", "--dim", "2", "--j", "1"])
        assert code == 0
        assert all(a["passed"] for a in report["assertions"])
        constants = report["constants"]
        nonzero = [c for c in constants if abs(complex(c[0], c[1])) > 1e-8]
        assert nonzero[0][0] == pytest.approx(0.5, abs=1e-10)

    def test_dimension_five(self, capsys):
        code, report = run_json(capsys, ["bell", "--dim", "5", "--j", "5"])
        assert code == 0
        assert sum(a["name"].startswith("anticlique") for a in report["assertions"]) == 5

    def test_adjoint_residual_is_computed(self, capsys):
        code, report = run_json(capsys, ["bell", "--dim", "3", "--j", "2"])
        assert code == 0
        closed = next(a for a in report["assertions"] if a["name"] == "graph-adjoint-closed")
        expected = is_operator_system(bell_code_report(3, 2).graph).adjoint_residual
        assert closed["residual"] == expected

    def test_dimension_one_exits_2(self, capsys):
        assert main(["bell", "--dim", "1", "--j", "1"]) == 2
        assert capsys.readouterr().err == "error: dimension d must be at least 2\n"

    def test_bad_index_exits_2(self, capsys):
        assert main(["bell", "--dim", "3", "--j", "4"]) == 2


class TestVerify:
    def test_roundtrip_instance_passes(self, instance_files, capsys):
        code, report = run_json(
            capsys,
            ["verify", "--rep", instance_files["rep"], "--m0", instance_files["m0"],
             "--proj", instance_files["proj"], "--samples", "5"],
        )
        assert code == 0
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["sampled-span-consistent"]["passed"]
        assert by_name["sampled-span-consistent"]["details"]["analytic_dim"] == 3
        assert by_name["anticlique"]["passed"]

    # span 0 certified every candidate when the seed norms under- or overflowed
    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_scaled_failing_seed_still_fails(self, scale, tmp_path, capsys):
        inputs = Path(__file__).parent / "golden" / "inputs"
        seed = matrix_from_json(json.loads((inputs / "psd6_m0.json").read_text()))
        path = tmp_path / "m0.json"
        path.write_text(canonical_dumps(matrix_to_json(scale * seed)), encoding="utf-8")
        code, report = run_json(
            capsys,
            ["verify", "--rep", str(inputs / "psd6_rep.json"), "--m0", str(path),
             "--proj", str(inputs / "psd6_proj.json"), "--samples", "11"],
        )
        assert code == 1
        by_name = {a["name"]: a for a in report["assertions"]}
        assert by_name["sampled-span-consistent"]["details"] == {"analytic_dim": 7, "sampled_dim": 7}
        assert not by_name["anticlique"]["passed"]

    def test_rank_one_candidate_exits_1(self, instance_files, tmp_path, capsys):
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        path = tmp_path / "rank1.json"
        path.write_text(canonical_dumps(matrix_to_json(p)), encoding="utf-8")
        code, report = run_json(
            capsys,
            ["verify", "--rep", instance_files["rep"], "--m0", instance_files["m0"],
             "--proj", str(path)],
        )
        assert code == 1
        verdict = next(a for a in report["assertions"] if a["name"] == "anticlique")
        assert verdict["details"]["reason"] == "code_dimension < 2"

    def test_incomplete_rep_exits_2(self, instance_files, tmp_path, capsys):
        doc = {
            "dim": 4,
            "freqs": [1, -1],
            "projections": [matrix_to_json(P_PLUS_4), matrix_to_json(P_PLUS_4)],
        }
        path = tmp_path / "badrep.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        code = main(
            ["verify", "--rep", str(path), "--m0", instance_files["m0"],
             "--proj", instance_files["proj"]]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "violation" in err

    def test_reports_worst_violation(self, instance_files, tmp_path, capsys):
        # a small hermiticity error in projection 0, a completeness error of 1
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p0[0, 1] = 2e-9
        doc = {
            "dim": 2,
            "freqs": [1, -1],
            "projections": [matrix_to_json(p0), matrix_to_json(np.zeros((2, 2)))],
        }
        path = tmp_path / "badrep.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        code = main(
            ["verify", "--rep", str(path), "--m0", instance_files["m0"],
             "--proj", instance_files["proj"]]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "completeness violation" in err and "residual 1)" in err

    def test_zero_samples_exits_2(self, instance_files, capsys):
        argv = ["verify", "--rep", instance_files["rep"], "--m0", instance_files["m0"],
                "--proj", instance_files["proj"], "--samples", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: n_samples must be >= 1\n"

    def test_malformed_json_exits_2(self, instance_files, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(
            ["verify", "--rep", str(path), "--m0", instance_files["m0"],
             "--proj", instance_files["proj"]]
        )
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_nonpositive_seed_exits_2_without_flag(self, instance_files, tmp_path, capsys):
        seed = -np.eye(4)
        path = tmp_path / "negseed.json"
        path.write_text(canonical_dumps(matrix_to_json(seed)), encoding="utf-8")
        argv = ["verify", "--rep", instance_files["rep"], "--m0", str(path),
                "--proj", instance_files["proj"]]
        assert main(argv) == 2
        assert "positive" in capsys.readouterr().err
        assert main(argv + ["--allow-nonpositive"]) in (0, 1)

    def test_tolerance_flag(self, instance_files, tmp_path, capsys):
        perturbed = P_PLUS_4.copy()
        perturbed[0, 1] = 1e-6
        perturbed[1, 0] = 1e-6
        path = tmp_path / "almost.json"
        path.write_text(canonical_dumps(matrix_to_json(perturbed)), encoding="utf-8")
        argv = ["verify", "--rep", instance_files["rep"], "--m0", instance_files["m0"],
                "--proj", str(path)]
        # default tolerance: the perturbed candidate is not a projection
        assert main(argv) == 2
        capsys.readouterr()
        # a loose tolerance admits it
        assert main(argv + ["--tol", "1e-4"]) == 0


class TestScan:
    def test_grid_rows_and_flags(self, capsys):
        tau_star = 1.0 / (2.0 * math.sqrt(2.0))
        code, report = run_json(
            capsys, ["scan", "--grid", f"0.1,0.2,{tau_star!r}", "--seed", "3"]
        )
        assert code == 0
        points = [a for a in report["assertions"] if a["name"].startswith("point-")]
        assert len(points) == 3
        assert [p["details"]["max_entropy"] for p in points] == [False, False, True]
        assert all(p["details"]["span_dim"] == 3 for p in points)
        aggregate = next(a for a in report["assertions"] if a["name"] == "aggregate")
        assert aggregate["details"]["points"] == 3

    def test_range_spec(self, capsys):
        code, report = run_json(capsys, ["scan", "--grid", "0.1:0.4:4", "--seed", "0"])
        assert code == 0
        points = [a for a in report["assertions"] if a["name"].startswith("point-")]
        assert [p["details"]["tau"] for p in points] == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_deterministic_under_seed(self, capsys):
        argv = ["scan", "--grid", "0.05,0.45", "--seed", "11", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_aggregate_carries_worst_point_residual(self, capsys):
        code, report = run_json(capsys, ["scan", "--grid", "0.05:0.45:9", "--seed", "2"])
        assert code == 0
        *points, aggregate = report["assertions"]
        assert aggregate["residual"] == max(p["residual"] for p in points) > 0.0

    def test_empty_grid_exits_2(self, capsys):
        assert main(["scan", "--grid", " "]) == 2
        assert main(["scan", "--grid", ","]) == 2


# rows that reached no test: each is a usage error with its own message
VERIFY = ["verify", "--rep", "{rep}", "--m0", "{m0}", "--proj", "{proj}"]
REP_DOC = rep_to_json(two_block_rep(P_PLUS_4))


@pytest.mark.parametrize("argv,docs,message", [
    (VERIFY, {"m0": [1, 2]}, "matrix document must be a JSON object"),
    (VERIFY, {"rep": [1]}, "representation document must be a JSON object"),
    (VERIFY, {"m0": {"rows": 0, "cols": 2, "data": []}}, "matrix dimensions must be positive"),
    (VERIFY, {"m0": {"rows": 2, "cols": 0, "data": []}}, "matrix dimensions must be positive"),
    (VERIFY, {"rep": {"dim": 4, "projections": REP_DOC["projections"]}},
     "representation document missing/invalid field: 'freqs'"),
    (VERIFY, {"rep": {**REP_DOC, "dim": 3}}, "projections are 4x4, but dim is 3"),
    # used to exit 2 with numpy's "operands could not be broadcast together"
    (VERIFY, {"m0": {"rows": 3, "cols": 4, "data": [[[1, 0]] * 4] * 3}},
     "expected a 4x4 matrix, got (3, 4)"),
    (["verify", "--rep", "{tmp}/missing.json", "--m0", "{m0}", "--proj", "{proj}"], {},
     "cannot read {tmp}/missing.json"),
    # used to name no file: "error: 'utf-8' codec can't decode byte 0xff ..."
    (VERIFY, {"rep": b"\xff\xfe{}"},
     "malformed JSON in {tmp}/bad-rep.json: 'utf-8' codec can't decode byte 0xff in position 0"),
    (["scan", "--grid", "0:1"], {}, "range grid must be start:stop:count"),
    (["scan", "--grid", "0:1:0"], {}, "grid count must be >= 1"),
    (["scan", "--grid", "0:1:x"], {}, "malformed grid '0:1:x'"),
    (["scan", "--grid", "a,b"], {}, "malformed grid 'a,b'"),
    # used to exit 2 with numpy's "expected non-negative integer"
    (["scan", "--grid", "0.1", "--seed", "-1"], {}, "--seed must be non-negative, got -1"),
], ids=["matrix-not-object", "rep-not-object", "rows-0", "cols-0", "rep-without-freqs",
        "dim-disagrees", "seed-3x4", "unreadable-rep", "rep-not-utf-8", "grid-two-fields",
        "grid-count-0", "grid-count-not-int", "grid-not-floats", "scan-seed-negative"])
def test_input_rejections(argv, docs, message, instance_files, tmp_path, capsys):
    paths = {**instance_files, "tmp": str(tmp_path)}
    for name, doc in docs.items():
        path = tmp_path / f"bad-{name}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"error: {message.format(**paths)}" in capsys.readouterr().err


# a (d, d, d**4) stack at d = 3000 used to end in a traceback with exit 1
def test_allocation_failure_exits_2(capsys, monkeypatch):
    def refuse(*args):
        raise MemoryError("Unable to allocate 1.15 PiB")

    monkeypatch.setattr(covgraph.cli, "bell_code_report", refuse)
    assert main(["bell", "--dim", "3000", "--j", "1"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 1.15 PiB\n"


def _flag_ids(value: str) -> str:
    return f"flag-{value}"


class TestTolerance:
    # inf used to pass bell with span_dim 0; nan and 0 failed with unrelated messages
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"], ids=_flag_ids)
    def test_unusable_tolerance_exits_2(self, value, capsys):
        assert main(["bell", "--dim", "3", "--j", "1", "--tol", value]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    # at 1e-15, bell --dim 8 --j 7 would fail its own exact graph on rounding
    # (adjoint residual 1.6e-15)
    @pytest.mark.parametrize("value", ["1e-15", "1e-300"], ids=_flag_ids)
    def test_tolerance_below_rounding_exits_2(self, value, capsys):
        assert main(["bell", "--dim", "6", "--j", "2", "--tol", value]) == 2
        assert "tolerance must be at least 1e-14" in capsys.readouterr().err

    def test_tolerance_at_the_floor_is_accepted(self):
        assert main(["bell", "--dim", "6", "--j", "2", "--tol", "1e-14"]) == 0

    # with a block frame recovered by eigh, its identity residual was 1.2e-14
    def test_large_bell_report_passes_at_the_floor(self):
        assert main(["bell", "--dim", "12", "--j", "1", "--tol", "1e-14"]) == 0

    # the library and the CLI accept the same values; 5e-13 once passed only the CLI
    @pytest.mark.parametrize("value", ["1e-14", "5e-13", "1e-10", "1e-4"])
    def test_library_accepted_tolerance_passes(self, value, capsys):
        assert Tolerance(eq_tol=float(value)).eq_tol == float(value)
        assert main(["bell", "--dim", "3", "--j", "1", "--tol", value]) == 0


# z1 + z4 - z2 overflowed in the corner: two numpy RuntimeWarnings, then
# "input has non-finite entries" for a finite input
def test_overflowing_phase_sum_exits_2_without_warnings():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "covgraph.cli", "demo4", "--tau", "0.3", "--z1", "1e308",
         "--z4", "1e308"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    assert "z1 + z4 - z2 must be finite" in proc.stderr


# P - P^dagger and P P overflowed: two numpy RuntimeWarnings before the error
def test_overflowing_candidate_exits_2_with_the_error_line_alone(instance_files, tmp_path):
    import subprocess
    import sys

    proj = tmp_path / "huge.json"
    proj.write_text(canonical_dumps(matrix_to_json(np.full((4, 4), 1e200))), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "covgraph.cli", "verify", "--rep", instance_files["rep"],
         "--m0", instance_files["m0"], "--proj", str(proj)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: candidate is not an orthogonal projection within eq_tol\n"


# the smallest eigenvalue times the seed's scale overflowed in a numpy scalar,
# a RuntimeWarning before the error
def test_overflowing_psd_message_is_the_error_line_alone(tmp_path):
    import subprocess
    import sys

    paths = {}
    for name, doc in (("rep", rep_to_json(two_block_rep(np.diag([1.0, 0.0])))),
                      ("m0", matrix_to_json(-1.5e308 * np.ones((2, 2)))),
                      ("proj", matrix_to_json(np.diag([1.0, 0.0])))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(canonical_dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "covgraph.cli", "verify", "--rep", str(paths["rep"]),
         "--m0", str(paths["m0"]), "--proj", str(paths["proj"])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("error: seed is not positive semidefinite (min eigenvalue -inf); "
                           "pass allow_nonpositive=True (--allow-nonpositive) to explore anyway\n")


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "covgraph.cli", "bell", "--dim", "2", "--j", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["version"] == "covgraph-report/1"
