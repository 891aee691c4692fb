"""Command-line interface: parsing, exit codes, output formats."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reachmax
from reachmax import SolveStatus, solve
from reachmax.benchgen import BenchSpec, ObjectiveKind, SystemKind, random_instance
from reachmax.errors import ReachmaxError
from reachmax.cli import main

from support import hump_seq, plateau_seq


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def oscillator_doc(Q=((1.0, 0.0), (0.0, 1.0)), q=None):
    doc = {
        "A": [[1.0, 0.01], [-0.01, 0.99]],
        "Q": [list(row) for row in Q],
        "initial_set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    if q is not None:
        doc["q"] = list(q)
    return doc


DECAYING_DOC = {
    "A": [[0.5]],
    "Q": [[1.0]],
    "q": [-1.0],
    "initial_set": {"type": "box", "lower": [0.25], "upper": [0.5]},
    "N": 100,
}

CONCAVE_DOC = {
    "A": [[0.5, 0.0], [0.0, 0.25]],
    "Q": [[-1.0, 0.0], [0.0, -1.0]],
    "q": [1.0, 0.5],
    "initial_set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
}


class TestSolveCommand:
    def test_oscillator_json_output(self, tmp_path, capsys):
        path = write_json(tmp_path / "osc.json", oscillator_doc())
        assert main(["solve", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "KDiag"
        assert out["nu_opt"] == 2.0
        assert out["k_opt"] == 0
        assert out["K_trace"] == [[0, 111]]
        assert out["N"] == 100

    def test_failed_instance_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "dec.json", DECAYING_DOC)
        assert main(["solve", path, "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Failed"
        assert out["N"] == 100
        assert out["iterations"] == 101

    def test_jordan_block_named_error(self, tmp_path, capsys):
        doc = oscillator_doc()
        doc["A"] = [[1.0, 1.0], [0.0, 1.0]]
        path = write_json(tmp_path / "jordan.json", doc)
        assert main(["solve", path, "--json"]) == 1
        assert "NotDiagonalizable" in capsys.readouterr().err

    def test_near_jordan_beyond_the_conditioning_limit_named_error(self, tmp_path, capsys):
        for eps in (1e-14, 1e-16, 1e-20):
            doc = oscillator_doc()
            doc["A"] = [[0.5, 1.0], [eps, 0.5]]
            path = write_json(tmp_path / "near_jordan.json", doc)
            assert main(["solve", path, "--json"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("NotDiagonalizable:") and "Traceback" not in err

    def test_scan_cap_must_be_a_positive_integer(self, tmp_path, capsys):
        for N in (float("inf"), 2.7, "20", 0):
            path = write_json(tmp_path / "bad_n.json", dict(DECAYING_DOC, N=N))
            assert main(["solve", path, "--json"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("InvalidInstanceFile: N must be a positive integer")
            assert "Traceback" not in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[0.5]],', encoding="utf-8")
        assert main(["solve", str(path), "--json"]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_key_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "nokey.json", {"A": [[0.5]]})
        assert main(["solve", path]) == 1
        assert "Q" in capsys.readouterr().err

    def test_n_flag_overrides_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "dec.json", DECAYING_DOC)
        assert main(["solve", path, "--json", "--n", "7"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["N"] == 7
        assert out["iterations"] == 8

    def test_json_report_round_trips(self, tmp_path, capsys):
        path = write_json(tmp_path / "osc.json", oscillator_doc(Q=((1.0, 0.0), (0.0, 0.0))))
        assert main(["solve", path, "--json"]) == 0
        text = capsys.readouterr().out
        assert json.loads(text) == json.loads(json.dumps(json.loads(text)))

    def test_pretty_output_default(self, tmp_path, capsys):
        path = write_json(tmp_path / "osc.json", oscillator_doc())
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out == (
            "status      KDiag\nnu_opt      2.0\nk_opt       0\nx_opt       [-1.0, -1.0]\nk_pos       0\n"
            "K_trace     [(0, 111)]\niterations  112\n"
        )

    def test_no_flag_names_the_default_output(self, tmp_path, capsys):
        path = write_json(tmp_path / "osc.json", oscillator_doc())
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--pretty"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err

    def test_vertices_initial_set(self, tmp_path, capsys):
        doc = oscillator_doc()
        doc["initial_set"] = {"type": "vertices", "points": [[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]}
        path = write_json(tmp_path / "v.json", doc)
        assert main(["solve", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["nu_opt"] == 2.0

    def test_concave_instance(self, tmp_path, capsys):
        path = write_json(tmp_path / "concave.json", CONCAVE_DOC)
        assert main(["solve", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] in ("KDiag", "CorollaryOne")

    def test_qp_tolerance_flag_is_a_usage_error(self, tmp_path, capsys):
        # the concave QP's duality-measure target is set in one place, qpcore.maximize_concave_qp
        path = write_json(tmp_path / "concave.json", CONCAVE_DOC)
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--tol-qp", "1e-8"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --tol-qp 1e-8" in captured.err

    def test_non_utf8_file_is_an_invalid_instance_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        assert main(["solve", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("InvalidInstanceFile:") and str(path) in captured.err

    def test_unreadable_path_is_an_invalid_instance_file(self, tmp_path, capsys):
        # a directory, and a file that does not exist
        for path in (tmp_path, tmp_path / "missing.json"):
            assert main(["solve", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"InvalidInstanceFile: cannot read {path}: ")

    def test_boolean_entry_is_an_invalid_instance_file(self, tmp_path, capsys):
        # numpy reads true as 1.0: A = [[1.0]] is not convergent, and would fail with NotConvergent
        path = write_json(tmp_path / "bool.json", dict(DECAYING_DOC, A=[[True]]))
        assert main(["solve", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidInstanceFile: {path} holds a boolean, and no field of the file is boolean\n"

    def test_boolean_in_the_initial_set_is_an_invalid_instance_file(self, tmp_path, capsys):
        # read as numbers, the bounds would give the box [0, 1]^2, and the solve would exit 0
        doc = dict(oscillator_doc(), initial_set={"type": "box", "lower": [False, False], "upper": [True, True]})
        assert main(["solve", write_json(tmp_path / "bool_set.json", doc), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("InvalidInstanceFile:") and "boolean" in captured.err

    def test_asymmetric_Q_is_an_invalid_instance_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "asym.json", oscillator_doc(Q=((1.0, 0.5), (0.0, 1.0))))
        assert main(["solve", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "InvalidInstanceFile: Q asymmetry 5.000e-01 exceeds 1.0e-09 times max|Q| 1.000e+00\n"

    def test_deeply_nested_json_is_an_invalid_instance_file(self, tmp_path, capsys):
        # json.loads recurses once per level: this depth raises RecursionError inside the parser
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert main(["solve", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidInstanceFile: {path} is nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "initial_set, message",
        [
            ({"lower": [0.0], "upper": [1.0]}, 'initial_set must be an object with a "type" key'),
            ([0.0, 1.0], 'initial_set must be an object with a "type" key'),
            ({"type": "box", "lower": [0.0]}, "initial_set is missing key 'upper'"),
            ({"type": "vertices"}, "initial_set is missing key 'points'"),
            ({"type": "box", "lower": ["a"], "upper": [1.0]},
             "lower holds the string 'a', and numbers must be JSON numbers"),
            ({"type": "box", "lower": [1.0], "upper": [0.0]},
             "invalid initial_set: empty box: lower > upper in some coordinate"),
            ({"type": "ball", "centre": [0.0]}, "unknown initial_set type 'ball'"),
            # numpy parses numeric strings, so these bounds and points were read as numbers
            ({"type": "box", "lower": [0.25], "upper": ["0.5"]},
             "upper holds the string '0.5', and numbers must be JSON numbers"),
            ({"type": "vertices", "points": [[0.25], ["0.5"]]},
             "points holds the string '0.5', and numbers must be JSON numbers"),
        ],
    )
    def test_initial_set_refusals(self, tmp_path, capsys, initial_set, message):
        path = write_json(tmp_path / "set.json", dict(DECAYING_DOC, initial_set=initial_set))
        assert main(["solve", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidInstanceFile: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([DECAYING_DOC], "instance file must contain a JSON object"),
            (dict(DECAYING_DOC, A=[0.5]), "A must be a rectangular array of arrays"),
            (dict(DECAYING_DOC, A=[[0.5, 0.0], [0.0]]), "non-numeric or ragged array: "),
            (dict(DECAYING_DOC, Q=[["a"]]), "Q holds the string 'a', and numbers must be JSON numbers"),
            (dict(DECAYING_DOC, q=[[1.0], [2.0, 3.0]]), "non-numeric or ragged array: "),
            # numpy parses "0.5", " 1 " and "inf" as numbers
            (dict(DECAYING_DOC, A=[["0.5"]]), "A holds the string '0.5', and numbers must be JSON numbers"),
            (dict(DECAYING_DOC, b=[" 1 "]), "b holds the string ' 1 ', and numbers must be JSON numbers"),
            (dict(DECAYING_DOC, q=["inf"]), "q holds the string 'inf', and numbers must be JSON numbers"),
            # json reads 10**400 as a Python int, which float() refuses with OverflowError
            (dict(DECAYING_DOC, A=[[10**400]]), "non-numeric or ragged array: int too large to convert to float"),
            # Python's json writes and reads the non-standard literal NaN
            (dict(DECAYING_DOC, A=[[float("nan")]]), "problem data must be finite"),
        ],
    )
    def test_instance_document_refusals(self, tmp_path, capsys, doc, message):
        path = write_json(tmp_path / "doc.json", doc)
        assert main(["solve", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"InvalidInstanceFile: {message}")

    def test_strings_outside_the_numeric_fields_are_ignored(self, tmp_path, capsys):
        doc = {"name": "demo", "A": [[0.5]], "Q": [[1.0]], "initial_set": {"type": "box", "lower": [0.0], "upper": [2.0]}}
        assert main(["solve", write_json(tmp_path / "named.json", doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "CorollaryOne"

    def test_pretty_output_of_a_failed_solve(self, tmp_path, capsys):
        # a concave objective without a linear part over a box that misses 0: f < f(0) = 0 everywhere
        doc = {"A": [[0.5]], "Q": [[-1.0]], "initial_set": {"type": "box", "lower": [1.0], "upper": [2.0]}}
        assert main(["solve", write_json(tmp_path / "cah.json", doc)]) == 2
        assert capsys.readouterr().out == "status      Failed\nN           100\niterations  101\n"


class TestAnalyzeSeqCommand:
    def test_hump_profile(self, tmp_path, capsys):
        path = write_json(tmp_path / "z.json", list(hump_seq(41)))
        assert main(["analyze-seq", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["k_geq"], out["k_gt"], out["K_geq"], out["K_gt"]) == (1, 2, 4, 4)

    def test_plateau_profile(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", list(plateau_seq(41)))
        assert main(["analyze-seq", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K_geq"] == 4 and out["K_gt"] == 11

    def test_single_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "zero.json", [0])
        assert main(["analyze-seq", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sup_value"] == 0.0
        assert out["argmax_set"] == [0]
        assert out["k_gt"] == "infinite"

    def test_all_negative_reports_sentinels(self, tmp_path, capsys):
        path = write_json(tmp_path / "neg.json", [-1.0, -2.0])
        assert main(["analyze-seq", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k_geq"] == "beyond-prefix"
        assert out["k_gt"] == "infinite"

    def test_empty_array_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "empty.json", [])
        assert main(["analyze-seq", path]) == 1

    def test_nested_array_rejected_as_not_flat(self, tmp_path, capsys):
        path = write_json(tmp_path / "nested.json", [[1, 2], [3, 4]])
        assert main(["analyze-seq", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "InvalidInstanceFile: sequence must be a flat array of numbers\n"

    def test_non_utf8_file_is_an_invalid_instance_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff[1.0]")
        assert main(["analyze-seq", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("InvalidInstanceFile:") and str(path) in captured.err

    def test_unreadable_path_is_an_invalid_instance_file(self, tmp_path, capsys):
        assert main(["analyze-seq", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"InvalidInstanceFile: cannot read {tmp_path}: ")

    @pytest.mark.parametrize("text", ["[1.0, NaN, 2.0]", "[1.0, Infinity]"])
    def test_non_finite_term_is_refused(self, tmp_path, capsys, text):
        # Python's json reads the non-standard literals NaN and Infinity as floats
        path = tmp_path / "nonfinite.json"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze-seq", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "InvalidInstanceFile: sequence terms must be finite\n"

    def test_malformed_json_reports_path_and_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1.0, 2.0", encoding="utf-8")
        assert main(["analyze-seq", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"InvalidInstanceFile: malformed JSON in {path}: ")
        assert "line 1 column" in captured.err

    def test_boolean_entry_is_an_invalid_instance_file(self, tmp_path, capsys):
        # read as numbers, [true, false, 0.5] would report sup_value 1.0 and exit 0
        path = write_json(tmp_path / "bool.json", [True, False, 0.5])
        assert main(["analyze-seq", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidInstanceFile: {path} holds a boolean, and no field of the file is boolean\n"

    def test_numeric_string_entry_is_refused(self, tmp_path, capsys):
        # numpy parses the strings, so this profiled [1, 2.5, -3] and exited 0
        path = write_json(tmp_path / "str.json", ["1", "2.5", "-3"])
        assert main(["analyze-seq", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "InvalidInstanceFile: the sequence holds the string '1', and numbers must be JSON numbers\n"

    def test_deeply_nested_json_is_an_invalid_instance_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert main(["analyze-seq", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"InvalidInstanceFile: {path} is nested too deeply to parse\n"


class TestBenchCommand:
    def test_small_batch_writes_both_csvs(self, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        rc = main([
            "bench", "--dim", "2", "--kind", "linear", "--objective", "cxh",
            "--set", "vertices:12", "--count", "5", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "obj_type"
        assert rows[1][0] == "CXH"
        c, k, f = (int(v) for v in rows[1][3].split("/"))
        assert c + k + f == 5
        inst_rows = list(csv.reader((tmp_path / "agg.instances.csv").open()))
        assert len(inst_rows) == 1 + 5
        assert inst_rows[0][:3] == ["index", "status", "nu_opt"]

    def test_forbidden_combination_exits_one(self, tmp_path, capsys):
        rc = main([
            "bench", "--dim", "2", "--kind", "linear", "--objective", "cah",
            "--set", "vertices:8", "--count", "2", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "box" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("vertices:x", "invalid vertex count in 'vertices:x'"),
            ("vertices:", "invalid vertex count in 'vertices:'"),
            ("cube", '--set must be "box" or "vertices:<count>", got \'cube\''),
            ("vertices:0", "vertex sets need a positive vertex count"),
        ],
    )
    def test_set_flag_refusals(self, tmp_path, capsys, flag, message):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--dim", "2", "--kind", "linear", "--objective", "cxh", "--set", flag, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"InvalidBenchSpec: {message}\n"
        assert not out.exists()

    def test_failed_instances_become_error_rows(self, tmp_path, capsys):
        # a 23-cube has 2^23 corners, above the vertex cap: each solve is refused, and the batch still ends 0
        out = tmp_path / "big.csv"
        rc = main(["bench", "--dim", "23", "--kind", "linear", "--objective", "cxh", "--count", "2", "--out", str(out)])
        assert rc == 0
        agg = list(csv.DictReader(out.open()))
        assert [(r["status_c_k_f"], r["errors"], r["avg_iter"]) for r in agg] == [("0/0/0", "2", "")]
        rows = list(csv.DictReader((tmp_path / "big.instances.csv").open()))
        assert [r["index"] for r in rows] == ["0", "1"]
        for r in rows:
            assert r["status"] == "Error:DimensionTooLarge"
            assert [r[k] for k in ("nu_opt", "k_opt", "k_pos", "K_init", "K_final", "iterations")] == [""] * 6

    @pytest.mark.parametrize(
        "kind, objective, count, seed, empty_trace",
        [
            ("affine", "cxnh", 5, 3, set()),
            # the boxes that hold 0 end in the degenerate KDiag, the others Failed: both have no K_trace
            ("linear", "cah", 10, 6, {"KDiag", "Failed"}),
        ],
    )
    def test_instance_rows_hold_each_report(self, tmp_path, capsys, kind, objective, count, seed, empty_trace):
        out = tmp_path / "b.csv"
        assert main([
            "bench", "--dim", "2", "--kind", kind, "--objective", objective,
            "--count", str(count), "--seed", str(seed), "--out", str(out),
        ]) == 0
        spec = BenchSpec(2, SystemKind(kind), ObjectiveKind(objective), instance_count=count, seed=seed)
        rows = list(csv.DictReader((tmp_path / "b.instances.csv").open(newline="")))
        assert [r["index"] for r in rows] == [str(i) for i in range(count)]
        columns = ("status", "nu_opt", "k_opt", "k_pos", "K_init", "K_final", "iterations")
        for row in rows:
            rep = solve(random_instance(spec, int(row["index"])))
            ends = (rep.K_trace[0][1], rep.K_trace[-1][1]) if rep.K_trace else (None, None)
            nu = None if rep.nu_opt is None else repr(rep.nu_opt)
            cells = [rep.status.value, nu, rep.k_opt, rep.k_pos, *ends, rep.iterations]
            assert [row[c] for c in columns] == ["" if v is None else str(v) for v in cells]
        assert {row["status"] for row in rows if row["K_init"] == ""} == empty_trace

    @pytest.mark.parametrize(
        "spec",
        [
            # the boxes that hold 0 end in the degenerate KDiag, the others Failed: neither has a K_trace
            BenchSpec(2, SystemKind.LINEAR, ObjectiveKind.CAH, instance_count=10, seed=6),
            BenchSpec(2, SystemKind.AFFINE, ObjectiveKind.CXNH, 5, instance_count=8, seed=3),
            # a 23-cube has 2^23 corners, above the vertex cap: every solve is refused
            BenchSpec(23, SystemKind.LINEAR, ObjectiveKind.CXH, instance_count=2),
        ],
        ids=["degenerate-box", "vertex-list", "all-errors"],
    )
    def test_aggregate_row_matches_direct_solves(self, tmp_path, capsys, spec):
        out = tmp_path / "agg.csv"
        set_flag = "box" if spec.vertex_count is None else f"vertices:{spec.vertex_count}"
        assert main([
            "bench", "--dim", str(spec.dim), "--kind", spec.system_kind.value,
            "--objective", spec.objective_kind.value, "--set", set_flag,
            "--count", str(spec.instance_count), "--seed", str(spec.seed), "--out", str(out),
        ]) == 0
        header, row = list(csv.reader(out.open(newline="")))
        assert capsys.readouterr().out == ",".join(row) + "\n"
        agg = dict(zip(header, row))

        reports = []
        for i in range(spec.instance_count):
            try:
                reports.append(solve(random_instance(spec, i)))
            except ReachmaxError:
                pass
        stopped = [rep for rep in reports if rep.status is SolveStatus.K_DIAG and rep.K_trace]
        k_pos = [rep.k_pos for rep in reports if rep.k_pos is not None]
        finals = [rep.K_trace[-1][1] for rep in stopped]
        gaps = [K - rep.k_opt for K, rep in zip(finals, stopped)]

        def mean(values):
            return f"{sum(values) / len(values):.2f}" if values else ""

        def largest(values):
            return str(max(values)) if values else ""

        statuses = [rep.status for rep in reports]
        assert {k: v for k, v in agg.items() if k not in ("avg_time_s", "avg_mem_mib")} == {
            "obj_type": spec.objective_kind.name,
            "dim": str(spec.dim),
            "vertex_count": str(2**spec.dim if spec.vertex_count is None else spec.vertex_count),
            "status_c_k_f": "/".join(
                str(statuses.count(s)) for s in (SolveStatus.COROLLARY_ONE, SolveStatus.K_DIAG, SolveStatus.FAILED)
            ),
            "avg_k_pos": mean(k_pos),
            "max_k_pos": largest(k_pos),
            "avg_iter": mean(finals),
            "max_iter": largest(finals),
            "avg_gap": mean(gaps),
            "max_gap": largest(gaps),
            "errors": str(spec.instance_count - len(reports)),
        }
        # the mean of the per-instance times, each rounded to 6 places as the mean is
        times = [float(r["time_s"]) for r in csv.DictReader((tmp_path / "agg.instances.csv").open(newline=""))]
        assert float(agg["avg_time_s"]) == pytest.approx(sum(times) / len(times), abs=1.5e-6)
        assert re.fullmatch(r"\d+\.\d{6}", agg["avg_time_s"])
        if reports:
            assert re.fullmatch(r"\d+\.\d{3}", agg["avg_mem_mib"]) and float(agg["avg_mem_mib"]) > 0.0
        else:
            assert agg["avg_mem_mib"] == ""

    def test_unwritable_output_exits_one_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_batch(spec):
            raise AssertionError("the batch ran before its outputs were opened")

        monkeypatch.setattr("reachmax.cli.run_bench", no_batch)
        # a missing directory for the aggregate CSV, then a directory in place of the per-instance CSV
        (tmp_path / "agg.instances.csv").mkdir()
        for out, named in ((tmp_path / "missing" / "x.csv", "x.csv"), (tmp_path / "agg.csv", "agg.instances.csv")):
            rc = main([
                "bench", "--dim", "2", "--kind", "linear", "--objective", "cxh",
                "--count", "2", "--seed", "1", "--out", str(out),
            ])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip()
            assert "\n" not in err and "cannot write" in err and str(out.with_name(named)) in err

    def test_determinism_excluding_wall_clock(self, tmp_path, capsys):
        def run(name):
            out = tmp_path / name
            assert main([
                "bench", "--dim", "2", "--kind", "affine", "--objective", "canh",
                "--count", "3", "--seed", "9", "--out", str(out),
            ]) == 0
            rows = list(csv.reader((tmp_path / (out.stem + ".instances.csv")).open()))
            return [row[:-1] for row in rows]  # drop the time_s column

        assert run("a.csv") == run("b.csv")


def run_child(*args):
    """A fresh interpreter run with args, importing the package these tests import, installed or not."""
    src = str(Path(reachmax.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}
    )


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = run_child("-m", "reachmax.cli", "solve", write_json(tmp_path / "osc.json", oscillator_doc()), "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "KDiag"

    def test_package_import_loads_only_the_solve_path(self):
        # perfbench's setup_s times a fresh import of the package, so the command-line front end,
        # the benchmark generator and the sequence lab stay out of `import reachmax`
        proc = run_child("-c", "import json, sys, reachmax; print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        loaded = [m for m in json.loads(proc.stdout) if m.split(".")[0] == "reachmax"]
        assert loaded == [
            "reachmax", "reachmax.bounds", "reachmax.errors", "reachmax.geometry",
            "reachmax.linalg", "reachmax.qpcore", "reachmax.solver",
        ]
