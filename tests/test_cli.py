"""CLI end-to-end: subcommands, formats, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sevlogit as sl
import sevlogit.cli
import sevlogit.io
from sevlogit.cli import build_parser, main
from sevlogit.io import model_spec_to_dict, write_csv
from sevlogit.report import estimation_record, render


@pytest.fixture
def workdir(tmp_path, speed_model, speed_dataset):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
    data = tmp_path / "data.csv"
    write_csv(speed_dataset, data)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestEstimateCommand:
    def test_success_table(self, workdir, capsys):
        code = run("estimate", "--data", workdir / "data.csv", "--model", workdir / "spec.json")
        out = capsys.readouterr().out
        assert code == 0
        assert "speed_limit:injury+fatality" in out
        assert "t-ratio" in out
        assert "rho-squared" in out
        assert "command=estimate" in out

    def test_converged_table_omits_gradient_noise(self, workdir, capsys):
        code = run(
            "estimate", "--data", workdir / "data.csv", "--model", workdir / "spec.json",
            "--format", "records",
        )
        assert code == 0
        iterations = _records_of(capsys)[1]["iterations"]
        run("estimate", "--data", workdir / "data.csv", "--model", workdir / "spec.json")
        out = capsys.readouterr().out
        assert f"Iterations: {iterations}    Converged: yes\n" in out
        assert "max |gradient|" not in out

    def test_a_floored_probability_is_noted_in_the_record_and_the_table(self, workdir, capsys):
        # a row of negligible weight whose observed outcome the fit makes impossible: its
        # probability is floored, and the fit is the one without it
        data = workdir / "data.csv"
        lines = data.read_text().splitlines()
        rows = [f"{lines[0]},weight", *(f"{line},1" for line in lines[1:]),
                "property-damage-only,other,other,other,1000000,0,1e-300"]
        data.write_text("\n".join(rows) + "\n")
        argv = ("estimate", "--data", data, "--model", workdir / "spec.json")
        note = ("observed-outcome probability floored for 1 observation(s) during optimization "
                "(possible quasi-separation)")
        assert run(*argv, "--format", "records") == 0
        assert _records_of(capsys)[1]["diagnostics"] == [note]
        assert run(*argv) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"Converged: yes\nNote: {note}\n")

    def test_unconverged_table_shows_gradient(self, speed_model, speed_dataset):
        with pytest.raises(sl.NonConvergenceError) as err:
            sl.estimate(speed_model, speed_dataset, sl.EstimateOptions(max_iterations=1))
        partial = err.value.last_result
        table = render(estimation_record(partial))
        assert (
            f"Iterations: 1    Converged: no    max |gradient|: {partial.gradient_max:.3e}\n"
            in table
        )

    def test_output_file_written(self, workdir):
        out_path = workdir / "report.txt"
        code = run(
            "estimate",
            "--data", workdir / "data.csv",
            "--model", workdir / "spec.json",
            "--out", out_path,
        )
        assert code == 0
        assert "Log-likelihood" in out_path.read_text()

    def test_records_byte_identical_across_runs(self, workdir):
        a, b = workdir / "a.jsonl", workdir / "b.jsonl"
        for target in (a, b):
            code = run(
                "estimate",
                "--data", workdir / "data.csv",
                "--model", workdir / "spec.json",
                "--format", "records",
                "--out", target,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_records_are_self_describing_json_lines(self, workdir, capsys):
        code = run(
            "estimate",
            "--data", workdir / "data.csv",
            "--model", workdir / "spec.json",
            "--format", "records",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "run_config"
        assert records[0]["backend"] == sl.active_backend()
        assert records[1]["record"] == "estimation_result"
        assert len(records[1]["estimates"]) == 4


class TestExitCodes:
    def test_missing_input_is_config_error(self, workdir, capsys):
        code = run("estimate", "--data", workdir / "nope.csv", "--model", workdir / "spec.json")
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scale, code, message",
        [(1e160, 1, "score or information matrix is not finite at iteration 0"),
         (1e100, 5, "information matrix is singular or near-singular at iteration 0")],
    )
    def test_a_hugely_scaled_covariate_exits_with_one_named_error(
        self, workdir, scale, code, message
    ):
        # at 1e160 the information matrix overflows to inf; at 1e100 it is finite but
        # singular. A subprocess shows whether numpy's overflow warning reaches stderr.
        header, *rows = (workdir / "data.csv").read_text().splitlines()
        k = header.split(",").index("speed_limit")
        scaled = [header]
        for row in rows:
            cells = row.split(",")
            cells[k] = repr(float(cells[k]) * scale)
            scaled.append(",".join(cells))
        (workdir / "data.csv").write_text("\n".join(scaled) + "\n")
        src = str(Path(sl.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sevlogit", "estimate", "--data", "data.csv",
             "--model", "spec.json", "--out", "fit.txt"],
            cwd=workdir, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(f"error: {message}")
        assert len(proc.stderr.splitlines()) == 1
        assert not (workdir / "fit.txt").exists()

    @pytest.mark.parametrize("kind", ["directory", "fifo", "summarize-directory"])
    def test_an_input_that_is_not_a_regular_file_exits_2(self, workdir, kind, capsys):
        path = workdir / ("fifo.csv" if kind == "fifo" else "adir")
        if kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            os.mkfifo(path)
        else:
            path.mkdir()
        argv = ("estimate", "--data", path, "--model", workdir / "spec.json")
        if kind.startswith("summarize"):
            argv = ("summarize", "--data", path, "--bins", "30")
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {path} (not a regular file)\n")

    def test_bad_spec_is_config_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{")
        assert run("estimate", "--data", workdir / "data.csv", "--model", bad) == 2

    @pytest.mark.parametrize("deep", ["spec", "config", "spec-of-config"])
    def test_json_nested_too_deeply_is_config_error(self, workdir, deep, capsys):
        (workdir / "deep.json").write_text("[" * 100_000)
        (workdir / "gen.json").write_text(json.dumps({"model": "deep.json"}))
        if deep == "spec":
            with pytest.raises(sl.ModelSpecError):
                sevlogit.io.load_model_spec(workdir / "deep.json")
            argv = ("estimate", "--data", workdir / "data.csv", "--model", workdir / "deep.json")
        else:
            config = workdir / ("deep.json" if deep == "config" else "gen.json")
            with pytest.raises(sl.ConfigError if deep == "config" else sl.ModelSpecError):
                sevlogit.io.load_generator_config(config)
            argv = ("simulate", "--config", config, "--out", workdir / "new.csv")
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {workdir / 'deep.json'}: not valid JSON (")
        assert err.count("\n") == 1 and not (workdir / "new.csv").exists()

    def test_malformed_data_is_ingestion_error(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text(
            "outcome,road_class,location,accident_type,speed_limit,curve\n"
            "injury,other,other,other,notanumber,0\n"
        )
        code = run("estimate", "--data", bad, "--model", workdir / "spec.json")
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    def test_data_that_is_not_utf8_is_ingestion_error(self, workdir, quoted, capsys):
        bad = workdir / "bad.csv"
        rows = (workdir / "data.csv").read_bytes().splitlines(keepends=True)[:6]
        rows[4] = rows[4].replace(b",", b",\xff", 1)  # physical line 5
        if quoted:
            rows[2] = rows[2].replace(b"other", b'"other"', 1)
        bad.write_bytes(b"".join(rows))
        code = run("estimate", "--data", bad, "--model", workdir / "spec.json")
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: {bad}: line 5: byte 0xff is not UTF-8 (invalid start byte)\n"
        )

    @pytest.mark.parametrize("where", ["row", "header"])
    def test_a_field_over_the_csv_field_limit_is_ingestion_error(self, workdir, where, capsys):
        bad, out = workdir / "bad.csv", workdir / "out.txt"
        huge = '"' + "1" * 140_000 + '"'
        header = "outcome,road_class,location,accident_type,speed_limit,curve"
        if where == "header":
            bad.write_text(f"# a comment\n{header.replace('curve', huge)}\n"
                           "injury,other,other,other,50,0\n")
        else:
            bad.write_text(f"{header}\ninjury,other,other,other,50,0\n"
                           f'"injury",other,other,other,{huge},0\n')
        argv = ("estimate", "--data", bad, "--model", workdir / "spec.json", "--out", out)
        assert run(*argv) == 3
        out_text, err = capsys.readouterr()
        line = {"header": 2, "row": 3}[where]
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith(f"error: {bad}: line {line}: field larger than field limit (")
        assert not out.exists()

    @pytest.mark.parametrize("command", [("elasticities",), ("split-test", "--by", "road_class"),
                                         ("partition", "--by", "road_class"), ("temporal-test",),
                                         ("summarize", "--bins", "35,45,55")],
                             ids=lambda command: command[0])
    def test_every_command_names_a_field_over_the_csv_field_limit(self, workdir, command, capsys):
        bad, out = workdir / "bad.csv", workdir / "out.txt"
        rows = (workdir / "data.csv").read_text().splitlines(keepends=True)[:5]
        rows[3] = rows[3].replace(",", ',"' + "1" * 140_000 + '",', 1)  # physical line 4
        bad.write_text("".join(rows))
        argv = (*command, "--data", bad, "--out", out)
        if command[0] != "summarize":
            argv += ("--model", workdir / "spec.json")
        assert run(*argv) == 3
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith(f"error: {bad}: line 4: field larger than field limit (")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["data", "model", "summarize-data", "config",
                                       "spec-of-config"])
    def test_an_unreadable_input_exits_2_with_one_line(self, workdir, which, monkeypatch,
                                                        capsys):
        gen = workdir / "gen.json"
        gen.write_text(json.dumps({
            "model": "spec.json", "theta": [-1.8, -4.0, 0.7, 0.03], "n": 20,
            "covariates": {"speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                           "curve": {"dist": "indicator", "p": 0.3}},
        }))
        data, spec, out = workdir / "data.csv", workdir / "spec.json", workdir / "out.csv"
        argv, unreadable = {
            "data": (("estimate", "--data", data, "--model", spec), data),
            "model": (("estimate", "--data", data, "--model", spec), spec),
            "summarize-data": (("summarize", "--data", data, "--bins", "30"), data),
            "config": (("simulate", "--config", gen, "--out", out), gen),
            "spec-of-config": (("simulate", "--config", gen, "--out", out), spec),
        }[which]
        opened = Path.open

        def refused(path, *args, **kwargs):  # as a file of mode 000 to a user who is not root
            if path == unreadable:
                raise PermissionError(13, "Permission denied", str(path))
            return opened(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refused)
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {unreadable} (Permission denied)\n")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["spec", "config", "spec-of-config"])
    def test_a_spec_or_config_that_is_not_utf8_is_named(self, workdir, which, capsys):
        bad = workdir / "bad.json"
        bad.write_bytes(b'{"outcomes": ["a", "b\xff"]}')
        (workdir / "gen.json").write_text(json.dumps({"model": "bad.json"}))
        if which == "spec":
            argv = ("estimate", "--data", workdir / "data.csv", "--model", bad)
        else:
            config = bad if which == "config" else workdir / "gen.json"
            argv = ("simulate", "--config", config, "--out", workdir / "new.csv")
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: not UTF-8 text (")
        assert err.count("\n") == 1 and not (workdir / "new.csv").exists()

    @pytest.mark.parametrize(
        "text, problem",
        [("", "no header row found"),
         ("outcome,road_class,location,accident_type,x,x\ninjury,other,other,other,1,2\n",
          "duplicate column names in header"),
         ("outcome,road_class,location,accident_type,weight\ninjury,other,other,other,heavy\n",
          "1 problem(s) while ingesting:\n  line 2: non-numeric weight 'heavy'")],
        ids=["empty", "duplicate-header", "non-numeric-weight"],
    )
    def test_an_ingest_problem_exits_3_and_is_named(self, workdir, text, problem, capsys):
        bad = workdir / "bad.csv"
        bad.write_text(text)
        assert run("estimate", "--data", bad, "--model", workdir / "spec.json") == 3
        assert capsys.readouterr() == ("", f"error: {bad}: {problem}\n")

    @pytest.mark.parametrize(
        "doc, problem",
        [([1, 2], "{path}: expected a JSON object"),
         ({"model": 3}, "{path}: 'model' must be a spec object or a path to one"),
         ({"theta": None}, "{path}: missing required key 'theta'"),
         ({"n": None}, "{path}: missing required key 'n'"),
         ({"covariates": None}, "{path}: missing required key 'covariates'"),
         ({"covariates": {"x": {"low": 1}}},
          "{path}: covariate 'x': expected an object with a 'dist' key"),
         ({"covariates": {"x": {"dist": "uniform", "low": 1}}},
          "{path}: covariate 'x': missing distribution parameter 'high'"),
         ({"theta": [0.1, 0.2]}, "{path}: theta: expected 1 parameter values, got shape (2,) "
                                 "(slot order ['constant:b'])"),
         ({"model": {"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": [1]}]}},
          "{path}: no covariate distribution for model variables ['x']"),
         ({"n": 0}, "{path}: n_obs (config key 'n') must be an integer >= 1, got 0"),
         ({"segments": [{"weight": 0.3}, {"weight": 0.3}]},
          "{path}: segment weights must sum to 1, got 0.6"),
         ({"segments": [{"theta": [0.1, 0.2]}]},
          "{path}: segment 0: theta: expected 1 parameter values, got shape (2,) "
          "(slot order ['constant:b'])"),
         ({"model": {"outcomes": ["a", "b"], "terms": []}},
          "{path}#model: model spec needs at least one term"),
         ({"covariates": {"x": {"dist": "uniform", "low": -1e308, "high": 1e308}}},
          "{path}: covariate 'x': uniform range high - low must be finite, got (-1e+308, 1e+308)")],
        ids=["not-an-object", "model-of-another-type", "no-theta", "no-n", "no-covariates",
             "no-dist", "no-parameter", "theta-length", "no-distribution-for-a-variable",
             "n-zero", "segment-weights", "segment-theta-length", "inline-spec-without-terms",
             "uniform-range-overflows"],
    )
    def test_a_bad_generator_config_exits_2(self, tmp_path, doc, problem, capsys):
        gen, out = tmp_path / "gen.json", tmp_path / "sim.csv"
        if isinstance(doc, dict):
            model = {"outcomes": ["a", "b"], "terms": [{"variable": "constant", "outcomes": [1]}]}
            doc = {"model": model, "theta": [0.1], "n": 20, "covariates": {}, **doc}
            doc = {key: value for key, value in doc.items() if value is not None}
        gen.write_text(json.dumps(doc))
        assert run("simulate", "--config", gen, "--out", out) == 2
        assert capsys.readouterr() == ("", f"error: {problem.format(path=gen)}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "terms, problem",
        [([{"variable": "x", "outcomes": []}], "{path}: term 0: term 'x' lists no outcomes"),
         ([], "{path}: model spec needs at least one term"),
         ([{"variable": "x", "outcomes": [1]}, {"variable": "x", "outcomes": ["b"]}],
          "{path}: duplicate (variable, outcome) pair: 'x' on outcome 1"),
         ([{"variable": "x", "outcomes": [5]}],
          "{path}: term 'x' references outcome 5, but the outcome set has only 2 outcomes"),
         ([{"variable": "x", "outcomes": [-1]}],
          "{path}: term 0: term 'x': outcome indices must be >= 0, got (-1,)"),
         (5, "{path}: 'terms' must be a list of term objects"),
         (None, "{path}: 'terms' must be a list of term objects")],
        ids=["term-without-outcomes", "no-terms", "duplicate-pair", "outcome-out-of-range",
             "negative-outcome", "terms-a-number", "terms-null"],
    )
    def test_a_bad_model_spec_exits_2(self, workdir, terms, problem, capsys):
        spec, out = workdir / "bad.json", workdir / "out.txt"
        spec.write_text(json.dumps({"outcomes": ["a", "b"], "terms": terms}))
        assert run("estimate", "--data", workdir / "data.csv", "--model", spec, "--out", out) == 2
        assert capsys.readouterr() == ("", f"error: {problem.format(path=spec)}\n")
        assert not out.exists()

    def test_iteration_cap_is_nonconvergence(self, workdir):
        code = run(
            "estimate",
            "--data", workdir / "data.csv",
            "--model", workdir / "spec.json",
            "--max-iter", 1,
        )
        assert code == 4

    def test_separable_fixture_is_nonidentification(self, tmp_path):
        spec = tmp_path / "sep_spec.json"
        spec.write_text(
            json.dumps(
                {
                    "outcomes": ["property-damage-only", "injury", "fatality"],
                    "terms": [
                        {"variable": "constant", "outcomes": ["injury", "fatality"]},
                        {"variable": "z", "outcomes": ["fatality"]},
                    ],
                }
            )
        )
        rows = ["outcome,road_class,location,accident_type,z"]
        for i in range(2000):
            z = 1 if i % 10 == 0 else 0
            outcome = "fatality" if z else ("injury" if i % 3 == 0 else "property-damage-only")
            rows.append(f"{outcome},other,other,other,{z}")
        data = tmp_path / "sep.csv"
        data.write_text("\n".join(rows) + "\n")
        code = run("estimate", "--data", data, "--model", spec, "--tol", "1e-9")
        assert code == 5

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--tol", "-1", "gradient_tol"), ("--tol", "nan", "gradient_tol"),
         ("--max-iter", "0", "max_iterations")],
    )
    def test_invalid_estimate_option_exits_2(self, workdir, capsys, flag, value, field):
        code = run(
            "estimate", "--data", workdir / "data.csv", "--model", workdir / "spec.json",
            flag, value,
        )
        assert code == 2
        assert field in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        assert run("estimate", "--data") == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("partition", "--by", "road_class", "--confidence", "1.5"), "--confidence"),
            (("partition", "--by", "road_class", "--min-cell-size", "-5"), "minimum cell size"),
            (("summarize", "--bins", "30,nan"), "finite"),
            (("summarize", "--bins", "30,inf"), "finite"),
            (("elasticities", "--sig-threshold", "nan"), "significance threshold"),
            (("elasticities", "--sig-threshold", "inf"), "significance threshold"),
            (("elasticities", "--sig-threshold", "-1"), "significance threshold"),
            (("partition", "--by", "road_class", "--min-cell-size", "10000000"),
             "every cell is below the minimum size 10000000"),
        ],
        ids=["confidence", "min-cell-size", "bins-nan", "bins-inf",
             "sig-threshold-nan", "sig-threshold-inf", "sig-threshold-negative",
             "min-cell-size-above-every-cell"],
    )
    def test_out_of_range_value_exits_2(self, workdir, capsys, argv, message):
        model = () if argv[0] == "summarize" else ("--model", workdir / "spec.json")
        code = run(*argv, "--data", workdir / "data.csv", *model)
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_unwritable_out_exits_2(self, workdir, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out.txt"
        if command == "estimate":
            argv = ("--data", workdir / "data.csv", "--model", workdir / "spec.json")
        else:
            gen = tmp_path / "gen.json"
            model = {"outcomes": ["a", "b"], "terms": [{"variable": "constant", "outcomes": ["b"]}]}
            gen.write_text(json.dumps({"model": model, "theta": [0.3], "n": 10, "covariates": {}}))
            argv = ("--config", gen)
        code = run(command, *argv, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out} (")
        assert len(err.splitlines()) == 1


# Fitting commands and the arguments each needs besides --data and --model.
FITTING = {
    "estimate": (),
    "elasticities": (),
    "split-test": ("--by", "road_class"),
    "temporal-test": (),
    "partition": ("--by", "road_class"),
}
# A bad value of each option, and the message that names it.
BAD_VALUES = [
    *[((cmd, *req, "--max-iter", "0"), "max_iterations must be >= 1, got 0")
      for cmd, req in FITTING.items()],
    *[((cmd, *req, "--tol", "nan"), "gradient_tol must be finite and > 0, got nan")
      for cmd, req in FITTING.items()],
    (("elasticities", "--sig-threshold", "nan"),
     "significance threshold must be finite and >= 0, got nan"),
    (("elasticities", "--sig-threshold", "-1"),
     "significance threshold must be finite and >= 0, got -1.0"),
    (("partition", "--by", "bogus"), "unknown partition dims ['bogus']"),
    (("partition", "--by", ""), "partition dims must be non-empty"),
    (("partition", "--by", "road_class", "--min-cell-size", "-5"),
     "minimum cell size must be >= 1, got -5"),
    (("partition", "--by", "road_class", "--confidence", "1.5"),
     "--confidence must be in (0, 1), got 1.5"),
    (("split-test", "--by", "bogus"), "unknown partition dims ['bogus']"),
    (("split-test", "--by", ""), "partition dims must be non-empty"),
    (("temporal-test", "--period-a", "2004"), "give both --period-a and --period-b"),
    (("temporal-test", "--period-a", "2004", "--period-b", "2004"),
     "--period-a and --period-b must differ, both are '2004'"),
    (("summarize", "--bins", "30,nan"), "bin edges must be finite, got [30.0, nan]"),
    (("summarize", "--bins", "30,abc"), "--bins must be a comma list of numbers, got '30,abc'"),
    (("summarize", "--bins", "50,30"), "bin edges must be strictly increasing, got [50.0, 30.0]"),
    (("simulate", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
    (("simulate", "--period", ""), "period label must be non-empty"),
]


class TestArgumentsBeforeData:
    """Every option value is checked before an input file is opened."""

    @pytest.mark.parametrize(
        "argv, message", BAD_VALUES, ids=[" ".join(a or "''" for a in v) for v, _ in BAD_VALUES]
    )
    def test_bad_value_exits_2_before_any_read(self, tmp_path, capsys, argv, message):
        files = ("--data", tmp_path / "missing.csv")
        if argv[0] == "simulate":
            files = ("--config", tmp_path / "missing.json", "--out", tmp_path / "out.csv")
        elif argv[0] != "summarize":
            files += ("--model", tmp_path / "missing.json")
        code = run(*argv, *files)
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "not found" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["under-a-file", "a-directory"])
    @pytest.mark.parametrize("command", [*FITTING, "summarize", "simulate"])
    def test_unwritable_out_exits_2_before_any_read(self, tmp_path, capsys, command, kind):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "out.txt" if kind == "under-a-file" else tmp_path
        if command == "simulate":
            files = ("--config", tmp_path / "missing.json")
        else:
            files = ("--data", tmp_path / "missing.csv", *FITTING.get(command, ()))
            if command != "summarize":
                files += ("--model", tmp_path / "missing.json")
            else:
                files += ("--bins", "30")
        code = run(command, *files, "--out", out)
        captured = capsys.readouterr()
        assert code == 2
        reason = {
            "under-a-file": f"{out.parent} is not a writable directory",
            "a-directory": "it is a directory",
        }[kind]
        assert captured.err == f"error: cannot write {out} ({reason})\n"
        assert captured.out == ""

    def test_every_numeric_option_has_a_case(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        covered = {(argv[0], arg) for argv, _ in BAD_VALUES for arg in argv[1:]}
        for command in (*FITTING, "summarize", "simulate"):
            for action in commands[command]._actions:
                if action.type in (int, float):
                    assert (command, action.option_strings[0]) in covered, (command, action.dest)


class TestOtherCommands:
    def test_elasticities(self, workdir, capsys):
        code = run(
            "elasticities",
            "--data", workdir / "data.csv",
            "--model", workdir / "spec.json",
            "--aggregation", "prob-weighted",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Elasticity" in out
        assert "aggregation: prob-weighted" in out

    def test_summarize(self, workdir, capsys):
        code = run("summarize", "--data", workdir / "data.csv", "--bins", "30,50,60")
        out = capsys.readouterr().out
        assert code == 0
        assert "<= 30" in out
        assert "(30, 50]" in out
        assert "> 60" in out
        assert "property-damage-only" in out

    def test_summarize_missing_speed_var_is_ingestion_error(self, workdir):
        code = run(
            "summarize", "--data", workdir / "data.csv", "--bins", "30", "--speed-var", "nope"
        )
        assert code == 3

    def test_simulate_then_summarize(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        gen.write_text(
            json.dumps(
                {
                    "model": {
                        "outcomes": ["property-damage-only", "injury", "fatality"],
                        "terms": [
                            {"variable": "constant", "outcomes": ["injury", "fatality"]},
                            {
                                "variable": "speed_limit",
                                "outcomes": ["injury", "fatality"],
                                "shared": True,
                            },
                        ],
                    },
                    "theta": [-1.5, -4.0, 0.02],
                    "n": 500,
                    "seed": 9,
                    "covariates": {
                        "speed_limit": {
                            "dist": "categorical",
                            "values": [25, 40, 55, 65],
                            "probs": [0.3, 0.3, 0.25, 0.15],
                        }
                    },
                }
            )
        )
        data = tmp_path / "sim.csv"
        assert run("simulate", "--config", gen, "--out", data) == 0
        assert data.read_text().startswith("# generator: numpy PCG64, seed=9\n")
        assert run("summarize", "--data", data, "--bins", "30,50,60") == 0
        assert "Observations: 500" in capsys.readouterr().out

    def test_simulate_deterministic(self, tmp_path):
        gen = tmp_path / "gen.json"
        gen.write_text(
            json.dumps(
                {
                    "model": {
                        "outcomes": ["a", "b"],
                        "terms": [{"variable": "constant", "outcomes": ["b"]}],
                    },
                    "theta": [0.3],
                    "n": 100,
                    "seed": 5,
                    "covariates": {},
                }
            )
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", gen, "--out", a) == 0
        assert run("simulate", "--config", gen, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_fractional_n_exits_2_and_writes_nothing(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        gen.write_text(
            json.dumps(
                {
                    "model": {
                        "outcomes": ["a", "b"],
                        "terms": [{"variable": "constant", "outcomes": ["b"]}],
                    },
                    "theta": [0.3],
                    "n": 20.7,
                    "seed": 1,
                    "covariates": {},
                }
            )
        )
        out = tmp_path / "sim.csv"
        assert run("simulate", "--config", gen, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {gen}: n_obs (config key 'n') must be an integer >= 1, got 20.7\n"
        )
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["gen.json"]

    def test_split_test(self, tmp_path, speed_model, speed_theta, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            3000,
            {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
            segments=(
                sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
                sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
            ),
            seed=6,
        )
        data = tmp_path / "mix.csv"
        write_csv(sl.simulate(config), data)
        code = run("split-test", "--data", data, "--model", spec, "--by", "road_class")
        out = capsys.readouterr().out
        assert code == 0
        assert "Likelihood-ratio split test" in out
        assert "df: 4" in out

    def test_partition_records(self, tmp_path, speed_model, speed_theta, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            3000,
            {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
            segments=(
                sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
                sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
            ),
            seed=7,
        )
        data = tmp_path / "mix.csv"
        write_csv(sl.simulate(config), data)
        code = run(
            "partition", "--data", data, "--model", spec, "--by", "road_class",
            "--format", "records",
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        rec = json.loads(lines[1])
        assert rec["record"] == "partition_report"
        assert rec["split_recommended"] in (True, False)
        assert {c["status"] for c in rec["cells"]} == {"ok"}

    def test_temporal_test(self, tmp_path, speed_model, speed_theta, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
        covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
        early = sl.simulate(
            sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, seed=1)
        ).with_period("2004")
        late = sl.simulate(
            sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, seed=2)
        ).with_period("2006")
        data = tmp_path / "years.csv"
        write_csv(sl.concatenate([early, late]), data)
        code = run("temporal-test", "--data", data, "--model", spec)
        out = capsys.readouterr().out
        assert code == 0
        assert "temporal" in out
        assert "70%" in out

    @pytest.mark.parametrize("flag", ["--period-a", "--period-b"])
    def test_temporal_test_period_not_in_the_data_exits_2(self, tmp_path, speed_model,
                                                          speed_theta, flag, capsys):
        files = _two_period_files(tmp_path, speed_model, speed_theta)
        periods = {"--period-a": "2004", "--period-b": "2006", flag: "2005"}
        argv = ("--data", files / "data.csv", "--model", files / "spec.json")
        assert run("temporal-test", *argv, *(item for pair in periods.items() for item in pair)) == 2
        assert capsys.readouterr() == (
            "", "error: period '2005' not present in the data (found ['2004', '2006'])\n"
        )

    def test_simulate_seed_and_period_override_the_config(self, tmp_path, capsys):
        gen, out = tmp_path / "gen.json", tmp_path / "sim.csv"
        model = {"outcomes": ["a", "b"], "terms": [{"variable": "constant", "outcomes": [1]}]}
        doc = {"model": model, "theta": [0.3], "n": 50, "seed": 5, "covariates": {},
               "period": "2004"}
        gen.write_text(json.dumps(doc))
        assert run("simulate", "--config", gen, "--out", out, "--seed", 8, "--period", "2006") == 0
        assert "(PCG64 seed 8;" in capsys.readouterr().out
        note, header, *rows = out.read_text().splitlines()
        assert note == "# generator: numpy PCG64, seed=8"
        period = header.split(",").index("period")
        assert len(rows) == 50 and {row.split(",")[period] for row in rows} == {"2006"}
        gen.write_text(json.dumps({**doc, "seed": 8, "period": "2006"}))
        assert run("simulate", "--config", gen, "--out", tmp_path / "same.csv") == 0
        assert (tmp_path / "same.csv").read_bytes() == out.read_bytes()

    def test_summarize_renders_an_empty_band_as_a_dash(self, workdir, capsys):
        assert run("summarize", "--data", workdir / "data.csv", "--bins", "30,50,200,300") == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split() for row in rows if row.startswith(("(200", "> 300"))] == [
            ["(200,", "300]", "-", "-", "-"], [">", "300", "-", "-", "-"]
        ]

    def test_temporal_test_needs_two_periods(self, workdir, capsys):
        code = run(
            "temporal-test", "--data", workdir / "data.csv", "--model", workdir / "spec.json"
        )
        assert code == 2
        assert "period" in capsys.readouterr().err


def _records_of(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]


class TestOneTestPath:
    """split-test and temporal-test share partition's fits and one LR computation."""

    def test_failed_cell_exits_with_its_code_but_partition_reports_it(
        self, tmp_path, dark_gap_model, dark_gap_dataset, capsys
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(dark_gap_model)))
        data = tmp_path / "gap.csv"
        write_csv(dark_gap_dataset, data)
        code = run("split-test", "--data", data, "--model", spec, "--by", "road_class")
        assert code == 5
        assert "dark:fatality" in capsys.readouterr().err
        code = run(
            "partition", "--data", data, "--model", spec, "--by", "road_class",
            "--format", "records",
        )
        assert code == 0
        rec = _records_of(capsys)[1]
        statuses = {c["label"]: c["status"] for c in rec["cells"]}
        assert statuses == {"road_class=county-road": "failed", "road_class=interstate": "ok"}
        assert rec["test"] is None
        assert rec["test_unavailable_reason"].startswith("not all cells estimated: ")

    def test_temporal_test_equals_split_by_period(
        self, tmp_path, speed_model, speed_theta, capsys
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
        covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
        early = sl.simulate(
            sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, seed=3)
        ).with_period("2004")
        late = sl.simulate(
            sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, seed=4)
        ).with_period("2006")
        data = tmp_path / "years.csv"
        write_csv(sl.concatenate([early, late]), data)
        common = ("--data", data, "--model", spec, "--format", "records")
        assert run("temporal-test", *common) == 0
        temporal = _records_of(capsys)[-1]
        assert run("split-test", *common, "--by", "period") == 0
        split = _records_of(capsys)[-1]
        assert (temporal["kind"], split["kind"]) == ("temporal", "split")
        for field in ("statistic", "df", "p_value"):
            assert temporal[field] == split[field], field

    def test_partition_and_split_test_agree(self, tmp_path, speed_model, speed_theta, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            3000,
            {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
            segments=(
                sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
                sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
            ),
            seed=8,
        )
        data = tmp_path / "mix.csv"
        write_csv(sl.simulate(config), data)
        common = ("--data", data, "--model", spec, "--by", "road_class", "--format", "records")
        assert run("partition", *common) == 0
        partition_test = _records_of(capsys)[1]["test"]
        assert run("split-test", *common) == 0
        assert _records_of(capsys)[-1] == partition_test

    def test_split_test_single_cell_is_config_error(self, workdir, capsys):
        code = run(
            "split-test", "--data", workdir / "data.csv", "--model", workdir / "spec.json",
            "--by", "location",
        )
        assert code == 2
        assert "need at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["split-test", "partition"])
    def test_empty_data_is_config_error(self, workdir, capsys, command):
        header = (workdir / "data.csv").read_text().splitlines()[0]
        data = workdir / "empty.csv"
        data.write_text(header + "\n")
        code = run(command, "--data", data, "--model", workdir / "spec.json", "--by", "road_class")
        assert code == 2
        assert "empty" in capsys.readouterr().err


class TestOutputContract:
    """A table is the run-config header plus the rendering of the last record."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, speed_model, speed_theta):
        work = tmp_path_factory.mktemp("contract")
        (work / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
        covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
        segments = (
            sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
            sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
        )
        years = [
            sl.simulate(
                sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, segments, seed=seed)
            ).with_period(year)
            for seed, year in ((11, "2004"), (12, "2006"))
        ]
        write_csv(sl.concatenate(years), work / "data.csv")
        return work

    def test_config_echo(self, files, speed_model, capsys):
        common = ("--data", files / "data.csv", "--model", files / "spec.json")
        common += ("--format", "records")
        assert run("partition", *common, "--by", "location,road_class") == 0
        config = _records_of(capsys)[0]
        assert config["by"] == "location,road_class"
        assert config["min_cell_size"] == 30 * speed_model.n_params
        assert config["confidence"] == 0.95
        argv = ("--sig-threshold", "0", "--aggregation", "prob-weighted")
        assert run("elasticities", *common, *argv) == 0
        config = _records_of(capsys)[0]
        assert (config["sig_threshold"], config["aggregation"]) == (0.0, "prob-weighted")

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate",),
            ("elasticities",),
            ("split-test", "--by", "road_class"),
            ("partition", "--by", "road_class,period"),
            ("temporal-test",),
            ("summarize", "--bins", "35,45,55"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_table_renders_the_last_record(self, files, argv, capsys):
        common = ("--data", files / "data.csv")
        if argv[0] != "summarize":
            common += ("--model", files / "spec.json")
        assert run(*argv, *common, "--format", "records") == 0
        records = _records_of(capsys)
        assert run(*argv, *common) == 0
        table = capsys.readouterr().out
        config = {**records[0], "format": "table"}
        header = "# " + " ".join(f"{k}={config[k]}" for k in sorted(config) if k != "record")
        assert table == header + "\n\n" + render(records[-1])


def test_records_do_not_depend_on_blas_threads(tmp_path, speed_model, speed_theta):
    # a BLAS dot over more than 10,000 rows splits its sum across threads; the LL sum
    # must not go through one, so 10,001 rows is the smallest file that shows it
    config = sl.GeneratorConfig(
        speed_model,
        speed_theta,
        10_001,
        {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
        segments=tuple(sl.SegmentComponent(sl.SegmentKey(road_class=r), 0.5)
                       for r in ("interstate", "county-road")),
        seed=5,
    )
    write_csv(sl.simulate(config), tmp_path / "data.csv")
    (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
    src = str(Path(sl.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        for argv in (("estimate",), ("partition", "--by", "road_class")):
            _store(tmp_path).unlink(missing_ok=True)  # fit every time
            proc = subprocess.run(
                [sys.executable, "-m", "sevlogit", *argv, "--data", "data.csv",
                 "--model", "spec.json", "--format", "records"],
                cwd=tmp_path, env=env, capture_output=True, check=True,
            )
            outputs.setdefault(argv[0], set()).add(proc.stdout)
    assert all(len(out) == 1 for out in outputs.values())


def _two_period_files(tmp_path, speed_model, speed_theta):
    """spec.json and a 2,000-row data.csv: two road classes, periods 2004 and 2006."""
    (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
    covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
    segments = (
        sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
        sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
    )
    years = [
        sl.simulate(
            sl.GeneratorConfig(speed_model, speed_theta, 1000, covs, segments, seed=seed)
        ).with_period(year)
        for seed, year in ((31, "2004"), (32, "2006"))
    ]
    write_csv(sl.concatenate(years), tmp_path / "data.csv")
    return tmp_path


def _store(directory):
    """The store the CLI keeps beside `data.csv`."""
    return directory / ".data.csv.sevlogit.npz"


def _store_meta(store, edit=None):
    """The `meta` of a store. `edit(meta)` gives new metadata (an object, or the raw bytes of
    the member) that is written in place of the old, with the columns kept and mode 0600,
    as the CLI writes a store."""
    with np.load(store) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["meta"].tobytes())
    if edit is None:
        return meta
    meta = edit(meta)
    raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    arrays["meta"] = np.frombuffer(raw, np.uint8)
    store.unlink()
    np.savez(store, **arrays)
    store.chmod(0o600)


@pytest.fixture
def parses(monkeypatch):
    """The CSVs the CLI parsed, in order."""
    calls, real = [], sevlogit.cli.ingest_csv

    def counting(path, *args):
        calls.append(Path(path).name)
        return real(path, *args)

    monkeypatch.setattr(sevlogit.cli, "ingest_csv", counting)
    return calls


@pytest.fixture
def fits(monkeypatch):
    """The row counts of the real fits the CLI made, in order."""
    calls, real = [], sevlogit.cli.estimate

    def counting(*args):
        calls.append(args[1].n_obs)
        return real(*args)

    monkeypatch.setattr(sevlogit.cli, "estimate", counting)
    return calls


@pytest.fixture
def code_digest():
    """io._code_digest with an empty cache, emptied again when the test ends."""
    sevlogit.io._code_digest.cache_clear()
    yield sevlogit.io._code_digest
    sevlogit.io._code_digest.cache_clear()


class TestColumnSidecar:
    """The CLI keeps the columns of each cleanly ingested CSV in its store,
    `.<name>.sevlogit.npz` beside it, and loads them instead of parsing while the key (the
    CSV's bytes, the outcome labels and the package's code) matches. No record depends on which
    happened."""

    COMMANDS = [
        ("estimate",),
        ("elasticities",),
        ("split-test", "--by", "road_class"),
        ("partition", "--by", "road_class"),
        ("temporal-test",),
        ("summarize", "--bins", "35,45,55"),
    ]

    @pytest.fixture
    def files(self, tmp_path, speed_model, speed_theta):
        return _two_period_files(tmp_path, speed_model, speed_theta)

    @staticmethod
    def argv(files, command=("summarize", "--bins", "35,45,55")):
        common = ("--data", files / "data.csv", "--format", "records")
        if command[0] != "summarize":
            common += ("--model", files / "spec.json")
        return (*command, *common)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_a_hit_gives_the_records_of_a_miss(self, files, parses, command, monkeypatch, capsys):
        calls = []  # each command reads the store once and writes it at most once

        def counting(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("read_store", "write_store"):
            monkeypatch.setattr(sevlogit.cli, name, counting(name, getattr(sevlogit.cli, name)))
        assert run(*self.argv(files, command)) == 0
        miss, store = capsys.readouterr().out, _store(files)
        assert parses == ["data.csv"] and calls == ["read_store", "write_store"]
        status, written = store.stat(), store.read_bytes()
        assert sorted(os.listdir(files)) == [store.name, "data.csv", "spec.json"]
        assert run(*self.argv(files, command)) == 0
        assert capsys.readouterr().out == miss
        assert parses == ["data.csv"] and calls == ["read_store", "write_store", "read_store"]
        # a command that hits everything writes nothing
        assert (store.stat().st_ino, store.stat().st_mtime_ns) == (status.st_ino, status.st_mtime_ns)
        assert store.read_bytes() == written

    def test_store_holds_the_ingested_dataset_and_fits(self, files, speed_model):
        data, labels = files / "data.csv", speed_model.outcome_set
        key = sevlogit.io.store_key(data, labels)
        ingested = sl.ingest_csv(data, labels)
        entry = sevlogit.io.fit_entry("a fit key", sl.estimate(speed_model, ingested))
        sevlogit.io.write_store(data, key, ingested, [entry])
        assert sevlogit.io.read_store(data, key, labels) == (ingested, {"a fit key": entry})
        digest, owner, stamp = key  # columns of another key miss; the fits are still there
        assert sevlogit.io.read_store(data, ("another", owner, stamp), labels) == (
            None, {"a fit key": entry}
        )
        # a store not owned by the CSV's owner is ignored
        assert sevlogit.io.read_store(data, (digest, owner + 1, stamp), labels) == (None, {})

    @pytest.mark.parametrize("change", ["edited-csv", "outcome-order", "ingest-code"])
    def test_a_changed_key_misses_and_rewrites(self, files, parses, change, monkeypatch, capsys):
        argv, store = self.argv(files), _store(files)
        assert run(*argv) == 0
        first, written = capsys.readouterr().out, store.read_bytes()
        if change == "edited-csv":  # one digit changed, size and mtime kept
            data = files / "data.csv"
            status, text = data.stat(), data.read_text()
            digit = text.index("2004,") + len("2004,")  # first speed_limit cell
            data.write_text(text[:digit] + str(9 - int(text[digit])) + text[digit + 1:])
            os.utime(data, ns=(status.st_atime_ns, status.st_mtime_ns))
            assert data.stat().st_size == status.st_size
        elif change == "outcome-order":
            argv += ("--outcomes", "fatality,injury,property-damage-only")
        else:
            monkeypatch.setattr(sevlogit.io, "_code_digest", lambda: b"another ingest")
        assert run(*argv) == 0
        changed = capsys.readouterr().out
        assert parses == ["data.csv", "data.csv"]
        assert store.read_bytes() != written
        if change != "ingest-code":  # the parse, not the old store, gave the records
            assert changed != first
        assert run(*argv) == 0
        assert capsys.readouterr().out == changed
        assert parses == ["data.csv", "data.csv"]

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "npy-file", "directory", "deep-meta"]
    )
    def test_a_damaged_sidecar_is_a_miss_and_rewritten(self, files, parses, fits, damage, capsys):
        argv, store = self.argv(files, ("estimate",)), _store(files)
        assert run(*argv) == 0
        first, written = capsys.readouterr().out, store.read_bytes()
        if damage == "deep-meta":  # nested too deeply for the JSON parser
            _store_meta(store, lambda meta: b"[" * 100_000)
        else:
            store.unlink()
        if damage == "truncated":
            store.write_bytes(written[: len(written) // 2])
        elif damage == "garbage":
            store.write_bytes(b"[" * 100_000)
        elif damage == "npy-file":
            with store.open("wb") as handle:
                np.save(handle, np.arange(10))
        elif damage == "directory":
            store.mkdir()
        assert run(*argv) == 0
        assert capsys.readouterr() == (first, "")
        assert parses == ["data.csv", "data.csv"] and len(fits) == 2
        if damage != "directory":  # os.replace cannot put a file over a directory
            assert store.read_bytes() == written
            assert run(*argv) == 0
            assert capsys.readouterr().out == first
            assert parses == ["data.csv", "data.csv"] and len(fits) == 2

    @pytest.mark.parametrize("kind", ["group-writable", "symlink", "foreign-owner"])
    def test_an_untrusted_sidecar_is_ignored(self, files, parses, fits, kind, capsys):
        argv, store = self.argv(files, ("estimate",)), _store(files)
        assert run(*argv) == 0
        first = capsys.readouterr().out
        if kind == "group-writable":
            store.chmod(0o660)
        elif kind == "symlink":
            store.rename(files / "elsewhere.npz")
            store.symlink_to(files / "elsewhere.npz")
        elif os.geteuid() == 0:
            os.chown(store, os.getuid() + 1, -1)
        else:  # only root can give a file away: check the owner rule itself
            with sevlogit.io._trusted(store, os.getuid() + 1) as handle:
                assert handle is None
            return
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert parses == ["data.csv", "data.csv"] and len(fits) == 2

    def test_a_csv_changed_during_the_ingest_gets_no_sidecar(self, files, monkeypatch, capsys):
        real = sevlogit.cli.ingest_csv

        def touched(path, *args):
            dataset = real(path, *args)
            os.utime(path, ns=(0, 10**9))  # as if the file were rewritten meanwhile
            return dataset

        monkeypatch.setattr(sevlogit.cli, "ingest_csv", touched)
        assert run(*self.argv(files)) == 0
        assert not (files / ".data.csv.sevlogit.npz").exists()

    def test_read_only_directory_gets_no_sidecar(self, files, parses, monkeypatch, capsys):
        argv = self.argv(files, ("estimate",))
        assert run(*argv) == 0
        first = capsys.readouterr().out
        (files / ".data.csv.sevlogit.npz").unlink()
        before = sorted(os.listdir(files))
        files.chmod(0o555)
        try:
            if os.access(files, os.W_OK):  # root ignores the mode: refuse as the OS would
                def refuse(name, flags, *args, open=os.open):
                    if flags & os.O_CREAT:
                        raise PermissionError(13, "Permission denied")
                    return open(name, flags, *args)

                monkeypatch.setattr(sevlogit.io.os, "open", refuse)
            assert run(*argv) == 0
            assert capsys.readouterr() == (first, "")
            assert sorted(os.listdir(files)) == before
        finally:
            files.chmod(0o755)

    def test_malformed_csv_gets_no_sidecar(self, files, speed_model, capsys):
        data = files / "data.csv"
        data.write_text(data.read_text().replace("injury,", "Injury,", 3))
        with pytest.raises(sl.IngestionError) as err:
            sl.ingest_csv(data, speed_model.outcome_set)
        assert run(*self.argv(files, ("estimate",))) == 3
        assert capsys.readouterr() == ("", f"error: {err.value}\n")
        assert not (files / ".data.csv.sevlogit.npz").exists()

    def test_library_ingest_and_simulate_write_no_sidecar(self, files, capsys):
        before = sorted(os.listdir(files))
        sl.ingest_csv(files / "data.csv")
        sl.ingest_csv(files / "data.csv")
        assert sorted(os.listdir(files)) == before
        config = {
            "model": "spec.json",
            "theta": [-1.8, -4.0, 0.03, 0.7],
            "n": 50,
            "covariates": {
                "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                "curve": {"dist": "indicator", "p": 0.3},
            },
        }
        (files / "gen.json").write_text(json.dumps(config))
        assert run("simulate", "--config", files / "gen.json", "--out", files / "data.csv") == 0
        capsys.readouterr()
        assert sorted(os.listdir(files)) == sorted([*before, "gen.json"])


class TestFitStore:
    """The CLI keeps each converged fit it makes in the `meta` of the store beside the CSV,
    keyed by all that `estimate` reads, and rebuilds a fit from it instead of fitting again.
    No record depends on which happened."""

    COMMANDS = [command for command in TestColumnSidecar.COMMANDS if command[0] != "summarize"]

    @pytest.fixture
    def files(self, tmp_path, speed_model, speed_theta):
        return _two_period_files(tmp_path, speed_model, speed_theta)

    @staticmethod
    def argv(files, command=("estimate",), *extra):
        return (*command, "--data", files / "data.csv", "--model", files / "spec.json", *extra)

    @pytest.mark.parametrize("fmt", ["records", "table"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_a_hit_gives_the_records_of_a_miss(self, files, fits, command, fmt, capsys):
        argv = self.argv(files, command, "--format", fmt)
        assert run(*argv) == 0
        miss, made = capsys.readouterr().out, len(fits)
        assert made >= 1 and len(_store_meta(_store(files))["fits"]) == made
        assert run(*argv) == 0
        assert capsys.readouterr().out == miss
        assert len(fits) == made

    def test_elasticities_after_estimate_makes_no_pooled_fit(self, files, fits, capsys):
        assert run(*self.argv(files, ("estimate",), "--format", "records")) == 0
        estimated = _records_of(capsys)[1]
        assert run(*self.argv(files, ("elasticities",), "--format", "records")) == 0
        assert _records_of(capsys)[1] == estimated
        assert fits == [2000]
        assert run(*self.argv(files, ("partition", "--by", "road_class"))) == 0
        assert fits[0] == 2000 and len(fits) == 3  # pooled: a hit again; the two cells: misses

    def test_fits_outlive_a_column_miss(self, files, parses, fits, capsys):
        argv = self.argv(files, ("estimate",), "--format", "records")
        assert run(*argv) == 0
        first = capsys.readouterr().out
        summarize = ("summarize", "--data", files / "data.csv", "--bins", "35,45,55")
        assert run(*summarize, "--outcomes", "fatality,injury,property-damage-only") == 0
        assert run(*argv) == 0  # its columns are missed again, its fit is not
        assert capsys.readouterr().out.endswith(first)
        assert parses == ["data.csv"] * 3 and len(fits) == 1
        assert sorted(os.listdir(files)) == [_store(files).name, "data.csv", "spec.json"]

    def test_a_rerun_of_a_42_cell_partition_makes_no_fit(self, tmp_path, speed_model, fits, capsys):
        # the paper's road class by accident type grid: more fits than FIT_STORE_ENTRIES
        (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
        layout = sl.build_layout(speed_model)
        theta = sl.ParameterVector.from_dict(layout, {
            "constant:injury": -0.5, "constant:fatality": -1.5,
            "speed_limit:injury+fatality": 0.01, "curve:fatality": 0.5,
        })
        segments = tuple(
            sl.SegmentComponent(sl.SegmentKey(road_class=road, accident_type=kind), 1 / 42)
            for road in sl.data.ROAD_CLASSES for kind in sl.data.ACCIDENT_TYPES
        )
        covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
        config = sl.GeneratorConfig(speed_model, theta, 42 * 150, covs, segments, seed=8)
        write_csv(sl.simulate(config), tmp_path / "data.csv")
        argv = self.argv(tmp_path, ("partition", "--by", "road_class,accident_type"),
                         "--min-cell-size", "1", "--format", "records")
        assert run(*argv) == 0
        first = capsys.readouterr().out
        assert len(fits) == 43 and len(_store_meta(_store(tmp_path))["fits"]) == 43
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert len(fits) == 43
        # a new fit keeps the newest FIT_STORE_ENTRIES, its own last
        assert run(*self.argv(tmp_path, ("estimate",), "--tol", "1e-7")) == 0
        stored = [entry["key"] for entry in _store_meta(_store(tmp_path))["fits"]]
        assert len(fits) == 44 and len(stored) == sevlogit.io.FIT_STORE_ENTRIES
        assert len(set(stored)) == len(stored)

    def test_the_loaded_dataset_is_keyed_by_its_column_digest(self, files, parses, fits,
                                                               monkeypatch, capsys):
        def unread(*args):
            raise AssertionError("the pooled fit key read the arrays")

        monkeypatch.setattr(sevlogit.io, "_hash_array", unread)
        estimate, elasticities = (self.argv(files, (command,), "--format", "records")
                                  for command in ("estimate", "elasticities"))
        assert run(*estimate) == 0  # a column miss
        assert run(*elasticities) == 0  # a column hit: the same fit key
        assert run("summarize", "--data", files / "data.csv", "--bins", "35,45,55",
                   "--outcomes", "fatality,injury,property-damage-only") == 0  # other columns
        assert run(*elasticities) == 0  # a column miss again: still the same fit key
        capsys.readouterr()
        assert parses == ["data.csv"] * 3 and fits == [2000]

    @pytest.mark.parametrize("column", ["X", "y", "w"])
    def test_same_shape_cells_that_differ_in_one_value_get_different_keys(self, files,
                                                                          speed_model, column):
        dataset = sl.ingest_csv(files / "data.csv", speed_model.outcome_set)
        cell = dataset.take(np.arange(500))
        columns = {**cell.columns, column: cell.columns[column].copy()}
        columns[column].flat[123] = {"X": 99.5, "y": (columns["y"][123] + 1) % 3, "w": 2.0}[column]
        other = sl.Dataset.from_columns(cell.outcome_set, cell.variable_names, columns,
                                        cell.period_labels)

        def key(data):
            return sevlogit.io.fit_key(speed_model, data, sl.EstimateOptions())

        assert key(other) != key(cell) == key(dataset.take(np.arange(500)))

    @pytest.mark.parametrize("change", ["edited-csv", "spec", "tol", "max-iter", "fit-code"])
    def test_a_changed_key_misses_and_rewrites(self, files, fits, change, monkeypatch, capsys):
        argv = self.argv(files, ("estimate",), "--format", "records")
        assert run(*argv) == 0
        first, written = capsys.readouterr().out, _store(files).read_bytes()
        if change == "edited-csv":
            data = files / "data.csv"
            text = data.read_text()
            digit = text.index("2004,") + len("2004,")  # first speed_limit cell
            data.write_text(text[:digit] + str(9 - int(text[digit])) + text[digit + 1:])
        elif change == "spec":
            spec = json.loads((files / "spec.json").read_text())
            spec["terms"] = [t for t in spec["terms"] if t["variable"] != "curve"]
            (files / "spec.json").write_text(json.dumps(spec))
        elif change == "tol":
            argv += ("--tol", "1e-7")
        elif change == "max-iter":
            argv += ("--max-iter", "50")
        else:
            monkeypatch.setattr(sevlogit.io, "_code_digest", lambda: b"another fit")
        assert run(*argv) == 0
        changed = capsys.readouterr().out
        assert len(fits) == 2
        assert _store(files).read_bytes() != written
        if change == "fit-code":  # a new key for the same fit
            assert changed == first
        assert run(*argv) == 0
        assert capsys.readouterr().out == changed
        assert len(fits) == 2

    def test_an_edit_to_any_module_changes_every_key(self, files, speed_model, monkeypatch,
                                                      code_digest):
        data, labels = files / "data.csv", speed_model.outcome_set
        dataset = sl.ingest_csv(data, labels)
        fitted = [(dataset, sl.EstimateOptions()), (dataset, sl.EstimateOptions(max_iterations=9)),
                  (dataset.take(dataset.columns["period"] == 0), sl.EstimateOptions())]

        def keys():
            code_digest.cache_clear()
            fit_keys = [sevlogit.io.fit_key(speed_model, *args) for args in fitted]
            return sevlogit.io.store_key(data, labels), fit_keys

        (store_key, fit_keys), read = keys(), Path.read_bytes
        # report.py holds no ingest or fit rule, and is covered all the same
        monkeypatch.setattr(Path, "read_bytes",
                            lambda path: read(path) + b"\n" * (path.name == "report.py"))
        edited_store_key, edited_fit_keys = keys()
        assert edited_store_key[0] != store_key[0] and edited_store_key[1:] == store_key[1:]
        assert all(new != old for new, old in zip(edited_fit_keys, fit_keys))
        monkeypatch.undo()
        assert keys() == (store_key, fit_keys)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_unreadable_sources_parse_and_fit_and_keep_no_store(self, files, parses, fits, command,
                                                                 monkeypatch, code_digest, capsys):
        argv = self.argv(files, command, "--format", "records")
        assert run(*argv) == 0
        normal, made = capsys.readouterr().out, len(fits)
        _store(files).unlink()

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        code_digest.cache_clear()
        monkeypatch.setattr(Path, "read_bytes", unreadable)
        for _ in range(2):
            assert run(*argv) == 0
            assert capsys.readouterr() == (normal, "")
        assert parses == ["data.csv"] * 3 and len(fits) == 3 * made
        assert sorted(os.listdir(files)) == ["data.csv", "spec.json"]

    def test_a_package_without_sources_keeps_no_store(self, files, fits, tmp_path_factory,
                                                      monkeypatch, code_digest, capsys):
        sourceless = tmp_path_factory.mktemp("sourceless")  # as a zip or .pyc-only install
        (sourceless / "io.cpython.pyc").write_bytes(b"")
        monkeypatch.setattr(sevlogit.io, "__file__", str(sourceless / "io.py"))
        with pytest.raises(OSError):
            code_digest()
        data = files / "data.csv"
        assert sevlogit.io.store_key(data, sl.OutcomeSet()) is None
        argv = self.argv(files, ("estimate",), "--format", "records")
        assert run(*argv) == 0
        first = capsys.readouterr().out
        assert run(*argv) == 0
        assert capsys.readouterr().out == first and len(fits) == 2
        assert sorted(os.listdir(files)) == ["data.csv", "spec.json"]

    @pytest.mark.parametrize("damage", ["wrong-shape", "wrong-type", "older-version", "not-a-list"])
    def test_a_damaged_store_is_a_miss_and_rewritten(self, files, fits, damage, capsys):
        argv = self.argv(files, ("estimate",), "--format", "records")
        assert run(*argv) == 0
        first, store = capsys.readouterr().out, _store(files)
        written = store.read_bytes()

        def edit(meta):
            entry = meta["fits"][0]
            if damage == "wrong-shape":
                entry["covariance"] = entry["covariance"][:-1]
            elif damage == "wrong-type":
                entry["iterations"] = float(entry["iterations"])
            elif damage == "older-version":  # a column sidecar: no fits in its metadata
                del meta["fits"]
            else:
                meta["fits"] = 7
            return meta

        _store_meta(store, edit)
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert len(fits) == 2
        assert store.read_bytes() == written
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert len(fits) == 2

    @pytest.mark.parametrize("stored", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["theta", "covariance", "t_ratios"])
    def test_a_non_finite_stored_value_is_a_miss(self, files, fits, field, stored, capsys):
        argv = self.argv(files, ("estimate",), "--format", "records")
        assert run(*argv) == 0
        first, store = capsys.readouterr().out, _store(files)
        written = store.read_bytes()

        def edit(meta):
            values = meta["fits"][0][field]
            (values[0] if field == "covariance" else values)[0] = stored
            return meta  # NaN and Infinity: Python's JSON reads them back

        _store_meta(store, edit)
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert len(fits) == 2
        assert store.read_bytes() == written

    def test_failed_fits_are_not_stored(self, files, fits, capsys):
        argv = self.argv(files, ("estimate",), "--max-iter", "1")
        for made in (1, 2):
            assert run(*argv) == 4
            assert "no convergence after 1 iterations" in capsys.readouterr().err
            assert len(fits) == made
        assert _store_meta(_store(files))["fits"] == []

    def test_read_only_directory_gets_no_store(self, files, fits, monkeypatch, capsys):
        argv = self.argv(files, ("split-test", "--by", "road_class"), "--format", "records")
        assert run(*argv) == 0
        first = capsys.readouterr().out
        _store(files).unlink()
        before = sorted(os.listdir(files))
        files.chmod(0o555)
        try:
            if os.access(files, os.W_OK):  # root ignores the mode: refuse as the OS would
                def refuse(name, flags, *args, open=os.open):
                    if flags & os.O_CREAT:
                        raise PermissionError(13, "Permission denied")
                    return open(name, flags, *args)

                monkeypatch.setattr(sevlogit.io.os, "open", refuse)
            assert run(*argv) == 0
            assert capsys.readouterr() == (first, "")
            assert sorted(os.listdir(files)) == before
        finally:
            files.chmod(0o755)

    def test_library_and_other_commands_write_no_store(self, files, speed_model, capsys):
        before = sorted(os.listdir(files))
        dataset = sl.ingest_csv(files / "data.csv", speed_model.outcome_set)
        sl.estimate(speed_model, dataset)
        sl.evaluate_partition(speed_model, dataset, ("road_class",))
        assert sorted(os.listdir(files)) == before
        assert run("summarize", "--data", files / "data.csv", "--bins", "35,45,55") == 0
        config = {
            "model": "spec.json",
            "theta": [-1.8, -4.0, 0.03, 0.7],
            "n": 50,
            "covariates": {
                "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                "curve": {"dist": "indicator", "p": 0.3},
            },
        }
        (files / "gen.json").write_text(json.dumps(config))
        assert run("simulate", "--config", files / "gen.json", "--out", files / "new.csv") == 0
        capsys.readouterr()
        assert _store_meta(_store(files))["fits"] == []
        assert sorted(os.listdir(files)) == sorted([*before, _store(files).name, "gen.json", "new.csv"])


@pytest.mark.parametrize("command", [*TestColumnSidecar.COMMANDS, ("simulate",)],
                         ids=lambda command: command[0])
def test_no_command_leaves_a_thread_running(tmp_path, speed_model, speed_theta, command,
                                            capsys):
    files = _two_period_files(tmp_path, speed_model, speed_theta)
    argv = TestColumnSidecar.argv(files, command)
    if command[0] == "simulate":
        config = {
            "model": "spec.json",
            "theta": [-1.8, -4.0, 0.03, 0.7],
            "n": 2000,
            "covariates": {
                "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                "curve": {"dist": "indicator", "p": 0.3},
            },
        }
        (files / "gen.json").write_text(json.dumps(config))
        argv = ("simulate", "--config", files / "gen.json", "--out", files / "new.csv")
    running = threading.active_count()
    for _ in ("miss", "hit"):
        assert run(*argv) == 0
        assert threading.active_count() == running
    capsys.readouterr()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_umask_and_stores_stay_private(tmp_path, speed_model, umask):
    (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
    config = {
        "model": "spec.json",
        "theta": [-1.8, -4.0, 0.7, 0.03],
        "n": 500,
        "seed": 3,
        "covariates": {
            "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
            "curve": {"dist": "indicator", "p": 0.3},
        },
    }
    (tmp_path / "gen.json").write_text(json.dumps(config))
    script = (
        "import os, sys; os.umask(int(sys.argv[1])); from sevlogit.cli import main\n"
        "assert main(['simulate', '--config', 'gen.json', '--out', 'data.csv']) == 0\n"
        "assert main(['estimate', '--data', 'data.csv', '--model', 'spec.json',"
        " '--out', 'report.txt']) == 0\n"
    )
    src = str(Path(sl.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", script, str(umask)], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    mode = {name: os.stat(tmp_path / name).st_mode & 0o777 for name in os.listdir(tmp_path)}
    assert mode["data.csv"] == mode["report.txt"] == 0o666 & ~umask
    assert sorted(mode) == [".data.csv.sevlogit.npz", "data.csv", "gen.json", "report.txt", "spec.json"]
    assert mode[".data.csv.sevlogit.npz"] == 0o600


@pytest.mark.parametrize(
    "field, raw",
    [("low", {"dist": "uniform", "low": "25", "high": 70}),
     ("p", {"dist": "indicator", "p": True})],
)
def test_a_config_number_of_another_type_writes_nothing(tmp_path, speed_model, field, raw, capsys):
    (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
    config = {
        "model": "spec.json",
        "theta": [-1.8, -4.0, 0.03, 0.7],
        "n": 20,
        "covariates": {
            "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
            "curve": {"dist": "indicator", "p": 0.3},
        },
    }
    config["covariates"]["speed_limit" if field == "low" else "curve"] = raw
    (tmp_path / "gen.json").write_text(json.dumps(config))
    assert run("simulate", "--config", tmp_path / "gen.json", "--out", tmp_path / "data.csv") == 2
    assert f"'{field}' must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"covariates": {"x": {"dist": "categorical", "values": ["1", True], "probs": [0.5, 0.5]}}},
         "covariate 'x': 'values' entry 0 must be a finite number, got '1'"),
        ({"covariates": {"x": {"dist": "categorical", "values": [1, 2], "probs": [0.5, "0.5"]}}},
         "covariate 'x': 'probs' entry 1 must be a finite number, got '0.5'"),
        ({"covariates": {"x": {"dist": "categorical", "values": "ab", "probs": [0.5, 0.5]}}},
         "covariate 'x': 'values' must be a list of numbers, got 'ab'"),
        ({"model": {"outcomes": [0, 1], "terms": [{"variable": "x", "outcomes": [1]}]}},
         "gen.json#model: outcome labels must be strings, got (0, 1)"),
        ({"model": {"outcomes": ["a", "b"], "terms": [{"variable": 7, "outcomes": [1]}]}},
         "gen.json#model: term 0: term variable must be a non-empty string, got 7"),
        ({"period": 2006}, "period label must be a string or None, got 2006"),
        ({"period": ""}, "gen.json: period label must be non-empty"),
        ({"model": {"outcomes": ["a", "b"], "terms": [{"variable": "weight", "outcomes": [1]}]},
          "covariates": {"weight": {"dist": "uniform", "low": 1, "high": 2}}},
         "variable name 'weight' is reserved"),
    ],
    ids=["categorical-values", "categorical-probs", "categorical-string", "outcome-labels",
         "term-variable", "period", "empty-period", "weight-covariate"],
)
def test_a_config_value_of_another_type_exits_2_and_writes_nothing(tmp_path, change, message,
                                                                   capsys):
    config = {
        "model": {"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": [1]}]},
        "theta": [0.1],
        "n": 20,
        "covariates": {"x": {"dist": "uniform", "low": 25, "high": 70}},
        **change,
    }
    (tmp_path / "gen.json").write_text(json.dumps(config))
    assert run("simulate", "--config", tmp_path / "gen.json", "--out", tmp_path / "data.csv") == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == ["gen.json"]


def test_a_simulate_utility_overflow_exits_1_with_one_named_error(tmp_path):
    # speed_limit up to 1.7e308 times 10 overflows the utilities; a subprocess shows
    # whether numpy's overflow and invalid-value warnings reach stderr
    config = {
        "model": {"outcomes": ["a", "b"], "terms": [{"variable": "speed_limit", "outcomes": [1]}]},
        "theta": [10],
        "n": 20,
        "covariates": {"speed_limit": {"dist": "uniform", "low": 0, "high": 1.7e308}},
    }
    (tmp_path / "gen.json").write_text(json.dumps(config))
    src = str(Path(sl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "sevlogit", "simulate", "--config", "gen.json", "--out", "data.csv"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: non-finite utility while computing probabilities")
    assert len(proc.stderr.splitlines()) == 1
    assert os.listdir(tmp_path) == ["gen.json"]


def test_a_constant_column_exits_3_and_is_named(workdir, capsys):
    data = workdir / "data.csv"
    data.write_text(data.read_text().replace("curve", "constant", 1))
    assert run("estimate", "--data", data, "--model", workdir / "spec.json") == 3
    assert "column 'constant' is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["same", "relative", "symlink", "model", "config"])
def test_out_may_not_name_an_input(workdir, spelling, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    data, spec = workdir / "data.csv", workdir / "spec.json"
    (workdir / "link.csv").symlink_to(data)
    inputs = {path: path.read_bytes() for path in (data, spec)}
    argv = ["estimate", "--data", data, "--model", spec, "--out"]
    if spelling == "config":
        gen = workdir / "gen.json"
        gen.write_text(json.dumps({"model": "spec.json", "theta": [-1.8, -4.0, 0.03, 0.7],
                                   "n": 20, "covariates": {}}))
        inputs[gen] = gen.read_bytes()
        argv, name = ["simulate", "--config", gen, "--out", gen], "--config"
    else:
        out = {"same": data, "relative": "./data.csv", "symlink": "link.csv", "model": spec}
        argv, name = [*argv, out[spelling]], "--model" if spelling == "model" else "--data"
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"(it is the {name} input)" in captured.err
    assert all(path.read_bytes() == raw for path, raw in inputs.items())
    assert sorted(os.listdir(workdir)) == sorted(["link.csv", *(p.name for p in inputs)])


@pytest.mark.parametrize("spelling", ["spec.json", "./spec.json", "link.json"])
def test_simulate_out_may_not_name_the_spec_its_config_names(workdir, spelling, monkeypatch,
                                                              capsys):
    # the config names the spec against its own directory, not the working directory
    monkeypatch.chdir(workdir)
    (workdir / "link.json").symlink_to(workdir / "spec.json")
    (workdir / "conf").mkdir()
    gen = workdir / "conf" / "gen.json"
    gen.write_text(json.dumps({
        "model": "../spec.json", "theta": [-1.8, -4.0, 0.7, 0.03], "n": 20,
        "covariates": {"speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                       "curve": {"dist": "indicator", "p": 0.3}},
    }))
    inputs = {path: path.read_bytes() for path in (gen, *workdir.glob("*.*"))}
    assert run("simulate", "--config", gen, "--out", spelling) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(it is the model spec --config names)" in captured.err
    assert all(path.read_bytes() == raw for path, raw in inputs.items())
    assert sorted(os.listdir(workdir)) == ["conf", "data.csv", "link.json", "spec.json"]
    assert os.listdir(workdir / "conf") == ["gen.json"]


@pytest.mark.parametrize("stored", [False, True], ids=["no-store-yet", "store"])
@pytest.mark.parametrize("spelling", ["plain", "relative", "symlink"])
def test_out_may_not_name_the_store_of_data(workdir, stored, spelling, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    data, spec, store = workdir / "data.csv", workdir / "spec.json", _store(workdir)
    if stored:
        assert run("estimate", "--data", data, "--model", spec) == 0
    inputs = {path: path.read_bytes() for path in (data, spec, store) if path.exists()}
    (workdir / "link.npz").symlink_to(store)  # dangling while there is no store
    out = {"plain": store, "relative": "./.data.csv.sevlogit.npz", "symlink": "link.npz"}[spelling]
    for argv in (("estimate", "--model", spec), ("summarize", "--bins", "40")):
        capsys.readouterr()
        assert run(*argv, "--data", data, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "(it is the store of --data)" in captured.err
    assert {path: path.read_bytes() for path in (data, spec, store) if path.exists()} == inputs
    assert sorted(os.listdir(workdir)) == sorted(["data.csv", "link.npz", "spec.json",
                                                  *[store.name] * stored])


def test_no_command_imports_numpy_ma(tmp_path, speed_model):
    # numpy loads numpy.ma for some calls only, such as np.unique without index outputs
    (tmp_path / "spec.json").write_text(json.dumps(model_spec_to_dict(speed_model)))
    config = {
        "model": "spec.json",
        "theta": [-1.8, -4.0, 0.7, 0.03],
        "n": 2000,
        "seed": 2,
        "covariates": {
            "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
            "curve": {"dist": "indicator", "p": 0.3},
        },
        "segments": [{"road_class": "interstate", "weight": 0.5},
                     {"road_class": "county-road", "weight": 0.5}],
    }
    (tmp_path / "gen.json").write_text(json.dumps(config))
    script = (
        "import os, sys; from sevlogit.cli import main\n"
        "assert main(['simulate', '--config', 'gen.json', '--out', 'data.csv']) == 0\n"
        "common = ['--data', 'data.csv', '--model', 'spec.json']\n"
        "assert main(['estimate', *common]) == 0\n"  # parses the CSV and writes its store
        "assert os.path.exists('.data.csv.sevlogit.npz')\n"
        "assert main(['estimate', *common]) == 0\n"  # the store's columns and fit
        "assert main(['partition', *common, '--by', 'road_class']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(sl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_split_test_names_the_no_period_cell_as_partition_does(tmp_path, speed_model,
                                                                speed_theta, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(model_spec_to_dict(speed_model)))
    covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
    early, unknown = (sl.simulate(sl.GeneratorConfig(speed_model, speed_theta, 1500, covs, seed=s))
                      for s in (3, 4))
    write_csv(sl.concatenate([early.with_period("2004"), unknown]), tmp_path / "data.csv")
    common = ("--data", tmp_path / "data.csv", "--model", spec, "--by", "period",
              "--format", "records")
    assert run("split-test", *common) == 0
    labels = [record["label"] for record in _records_of(capsys)[1:-1]]
    assert sorted(labels) == ["-", "2004", "pooled"]
    assert run("partition", *common) == 0
    cells = _records_of(capsys)[1]["cells"]
    assert [f"period={label}" for label in labels[1:]] == [cell["label"] for cell in cells]


def test_a_string_period_label_is_written(tmp_path, capsys):
    config = {
        "model": {"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": [1]}]},
        "theta": [0.1],
        "n": 20,
        "covariates": {"x": {"dist": "uniform", "low": 25, "high": 70}},
        "period": "2006",
    }
    (tmp_path / "gen.json").write_text(json.dumps(config))
    assert run("simulate", "--config", tmp_path / "gen.json", "--out", tmp_path / "data.csv") == 0
    dataset = sl.ingest_csv(tmp_path / "data.csv", sl.OutcomeSet(("a", "b")))
    assert dataset.period_labels == ("2006",)
