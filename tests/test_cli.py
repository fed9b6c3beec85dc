import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import random_coverage_function, random_flow_instance
from permopt import cli, scheduler, subproblems
from permopt.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, METHODS, run
from permopt.instance_io import (
    ValidationError,
    bundled_instance,
    parse_instance,
    serialize_instance,
)
from permopt.lp import ITERATION_LIMIT, LpSolution


class TestParseInstance:
    def test_bundled_g1(self):
        inst = parse_instance(serialize_instance(bundled_instance("g1")))
        assert inst.family == "matching"
        assert inst.m == 3
        assert inst == bundled_instance("g1")

    def test_bundled_d3(self):
        inst = parse_instance(serialize_instance(bundled_instance("d3")))
        assert inst.family == "flow"
        assert inst.m == 8
        assert len(inst.fixed) == 1

    def test_negative_weight_names_element(self):
        doc = {
            "family": "matching",
            "elements": [{"id": 0, "fixed": False, "u": 1, "v": 2, "w": -1}],
            "left": [1],
        }
        with pytest.raises(ValidationError, match="element 0.w"):
            parse_instance(json.dumps(doc))

    def test_non_bipartite_edge_rejected(self):
        doc = {
            "family": "matching",
            "elements": [{"id": 0, "fixed": False, "u": 1, "v": 2, "w": 1}],
            "left": [1, 2],
        }
        with pytest.raises(ValidationError, match="bipartition"):
            parse_instance(json.dumps(doc))

    def test_bad_family(self):
        with pytest.raises(ValidationError, match="family"):
            parse_instance(json.dumps({"family": "tsp", "elements": []}))

    def test_duplicate_id(self):
        doc = {
            "family": "flow",
            "elements": [
                {"id": 0, "fixed": False, "tail": 0, "head": 1, "cap": 1},
                {"id": 0, "fixed": False, "tail": 1, "head": 2, "cap": 1},
            ],
            "source": 0,
            "sink": 2,
        }
        with pytest.raises(ValidationError, match="duplicate"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [("w", math.nan), ("w", math.inf), ("cap", math.nan)])
    def test_non_finite_number_rejected(self, field, value):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        if field == "w":
            doc = {"family": "matching", "left": [1],
                   "elements": [{"id": 0, "fixed": False, "u": 1, "v": 2, "w": value}]}
        else:
            doc = {"family": "flow", "source": 0, "sink": 1,
                   "elements": [{"id": 0, "fixed": False, "tail": 0, "head": 1, "cap": value}]}
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("family,field", [
        ("matching", "id"), ("matching", "u"), ("matching", "v"), ("matching", "w"),
        ("matching", "left"), ("flow", "id"), ("flow", "tail"), ("flow", "head"),
        ("flow", "cap"), ("flow", "source"), ("flow", "sink"),
    ])
    def test_boolean_rejected_as_number(self, family, field):
        # JSON true loads as a bool, which Python also counts as an int
        if family == "matching":
            doc = {"family": "matching", "left": [1],
                   "elements": [{"id": 0, "fixed": False, "u": 1, "v": 2, "w": 1}]}
        else:
            doc = {"family": "flow", "source": 0, "sink": 1,
                   "elements": [{"id": 0, "fixed": False, "tail": 0, "head": 1, "cap": 1}]}
        if field == "left":
            doc["left"] = [True]
        elif field in ("source", "sink"):
            doc[field] = True
        else:
            doc["elements"][0][field] = True
        with pytest.raises(ValidationError, match=rf"\b{field}:"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("name", ["g1", "g2", "d1", "d2", "d3"])
    def test_round_trip(self, name):
        inst = bundled_instance(name)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_family_without_a_schema_is_not_written(self):
        # coverage has no JSON schema; it must not be written as a flow
        with pytest.raises(ValidationError, match="'coverage' has no JSON schema"):
            serialize_instance(random_coverage_function(random.Random(1), 3))


class TestRun:
    def test_solve_g1_lp(self, capsys):
        assert run(["solve", "--instance", "g1.json", "--method", "lp"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["instance"] == "g1"
        assert report["methods"][0]["total"] == "5.800000000"

    def test_solve_d3_brute(self, capsys):
        assert run(["solve", "--instance", "d3.json", "--method", "brute"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["methods"][0]["total"] == "6.400000000"

    def test_compare_g2(self, capsys):
        assert run(["compare", "--instance", "g2.json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        totals = {m["method"]: m["total"] for m in report["methods"]}
        assert totals == {
            "lp": "7.000000000",
            "greedy-marginal": "5.500000000",
            "greedy-first": "7.000000000",
            "brute": "7.000000000",
        }
        ratios = {k: float(v) for k, v in report["comparison"]["ratios"].items()}
        assert all(0 < r <= 1 for r in ratios.values())
        assert ratios[report["comparison"]["best"]] == 1.0

    def test_compare_never_reports_greedy_above_exact(self, capsys):
        for name in ("g1", "d1"):
            assert run(["compare", "--instance", f"{name}.json"]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            totals = {m["method"]: float(m["total"]) for m in report["methods"]}
            exact = min(totals["lp"], totals["brute"])
            assert totals["greedy-marginal"] <= exact + 1e-6
            assert totals["greedy-first"] <= exact + 1e-6

    def test_byte_stable(self, capsys):
        run(["compare", "--instance", "d1.json"])
        first = capsys.readouterr().out
        run(["compare", "--instance", "d1.json"])
        assert capsys.readouterr().out == first

    def test_validate(self, capsys):
        assert run(["validate", "--instance", "d2.json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"instance": "d2", "family": "flow", "m": 4, "fixed": 5, "valid": True}

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"family": "matching", "elements": []}')
        assert run(["validate", "--instance", str(bad)]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_unbounded_flow_exit_code(self, tmp_path, capsys):
        doc = {"family": "flow", "source": 0, "sink": 1, "elements": [
            {"id": 0, "fixed": False, "tail": 0, "head": 2, "cap": "inf"},
            {"id": 1, "fixed": True, "tail": 2, "head": 1, "cap": "inf"},
            {"id": 2, "fixed": False, "tail": 0, "head": 1, "cap": 2},
        ]}
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", "--instance", str(path)]) == EXIT_VALIDATION
        assert "unbounded" in capsys.readouterr().err

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["compare", "--instance", str(path)]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_no_orderable_element(self, tmp_path, capsys):
        # every arc fixed: validation accepts it, so every method solves it
        doc = {"family": "flow", "source": 0, "sink": 1, "elements": [
            {"id": 0, "fixed": True, "tail": 0, "head": 2, "cap": 3},
            {"id": 1, "fixed": True, "tail": 2, "head": 1, "cap": 2},
        ]}
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        assert run(["compare", "--instance", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["methods"]) == 4
        assert {m["total"] for m in report["methods"]} == {"0.000000000"}

    def test_missing_file_exit_code(self, capsys):
        assert run(["solve", "--instance", "nope.json"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_epsilon_regeneration(self, capsys):
        assert run(["solve", "--instance", "g1.json", "--method", "brute",
                    "--epsilon", "0.2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        # 6 - 2*eps
        assert report["methods"][0]["total"] == "5.600000000"

    @pytest.mark.parametrize("name", ["g1", "d1"])
    def test_nan_epsilon_rejected(self, name, capsys):
        assert run(["compare", "--instance", f"{name}.json", "--epsilon", "nan"]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_tol_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--instance", "g1.json", "--tol", "1.0"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_zero_capacity_arc(self, tmp_path, capsys):
        doc = {"family": "flow", "source": 0, "sink": 1, "elements": [
            {"id": 0, "fixed": False, "tail": 0, "head": 2, "cap": 0},
            {"id": 1, "fixed": False, "tail": 2, "head": 1, "cap": 3},
            {"id": 2, "fixed": False, "tail": 0, "head": 1, "cap": 1},
        ]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert run(["compare", "--instance", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert {m["total"] for m in report["methods"]} == {"3.000000000"}

    def test_epsilon_rejected_for_non_bundled(self, capsys):
        assert run(["solve", "--instance", "custom.json", "--epsilon", "0.2"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_solve_from_file(self, tmp_path, capsys):
        path = tmp_path / "mine.json"
        path.write_text(serialize_instance(bundled_instance("g1")))
        assert run(["solve", "--instance", str(path), "--method", "greedy-first"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["instance"] == "mine"
        assert report["methods"][0]["total"] == "5.000000000"

    def test_cutting_plane_mode(self, capsys):
        assert run(["solve", "--instance", "d1.json", "--mode", "cutting-plane"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["methods"][0]["total"] == "5.900000000"

    def test_overflowing_total_exit_code(self, tmp_path, capsys):
        # both steps are worth 1.7e308, so the total overflows to inf
        doc = {"family": "matching", "left": [0], "elements": [
            {"id": 0, "fixed": False, "u": 0, "v": 1, "w": 1.7e308},
            {"id": 1, "fixed": False, "u": 0, "v": 2, "w": 1.0},
        ]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert run(["compare", "--instance", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_compare_drops_brute_above_its_guard(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "SUBSET_GUARD", 9)
        inst = random_flow_instance(random.Random(5), 10)
        path = tmp_path / "m10.json"
        path.write_text(serialize_instance(inst))
        assert run(["compare", "--instance", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [m["method"] for m in report["methods"]] == ["lp", "greedy-marginal",
                                                            "greedy-first"]

    def test_compare_runs_brute_up_to_the_subset_table_guard(self, tmp_path, capsys):
        inst = random_flow_instance(random.Random(5), 10)
        path = tmp_path / "m10.json"
        path.write_text(serialize_instance(inst))
        assert run(["compare", "--instance", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [m["method"] for m in report["methods"]] == list(METHODS)
        totals = {m["method"]: m["total"] for m in report["methods"]}
        assert totals["lp"] == totals["brute"]

    def test_compare_runs_the_exact_engine_once(self, monkeypatch, capsys):
        # g1's LP order falls short of the bound, so lp repairs; brute force
        # reads the same exact order, cached on the instance
        calls = []
        engine = subproblems.exact_order
        monkeypatch.setattr(subproblems, "exact_order",
                            lambda inst: calls.append(inst) or engine(inst))
        assert run(["compare", "--instance", "g1.json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["methods"][0]["repaired"] is True
        assert len(calls) == 1

    def test_validate_rejects_a_matching_past_the_enumeration_guard(self, tmp_path, capsys):
        # 12+12 vertices, 24 fixed edges and 2 orderable ones (m = 2): every
        # method reads the value of all 26 edges, past the guard of 25
        pairs = [(i, 12 + i) for i in range(12)] + [(i, 12 + (i + 1) % 12) for i in range(12)]
        pairs += [(0, 14), (1, 15)]
        doc = {"family": "matching", "left": list(range(12)), "elements": [
            {"id": e, "fixed": e < 24, "u": u, "v": v, "w": 1.0} for e, (u, v) in enumerate(pairs)
        ]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            assert run([command, "--instance", str(path)]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "26 edges exceeds enumeration guard 25" in captured.err

    def test_lp_bound_below_the_total_exit_code(self, monkeypatch, capsys):
        # an LP that stops short: its bound falls below g1's evaluated total
        solve = scheduler.lp_solve

        def halved(lp):
            sol = solve(lp)
            return replace(sol, objective=sol.objective / 2)

        monkeypatch.setattr(scheduler, "lp_solve", halved)
        assert run(["solve", "--instance", "g1.json"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the LP bound" in captured.err

    def test_master_lp_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(scheduler, "lp_solve", lambda lp: LpSolution(ITERATION_LIMIT))
        assert run(["solve", "--instance", "g1.json"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver failure" in captured.err


BUNDLED_REPORTS = json.loads((Path(__file__).parent / "data" / "bundled_reports.json").read_text())


@pytest.mark.parametrize("argv", sorted(BUNDLED_REPORTS))
def test_bundled_compare_report_is_byte_identical(argv, capsys):
    """`compare` on g1-d3 at the default and two other epsilons prints the
    reports recorded in tests/data/bundled_reports.json, byte for byte."""
    assert run(argv.split()) == EXIT_OK
    assert capsys.readouterr().out == BUNDLED_REPORTS[argv]
