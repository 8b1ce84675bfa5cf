"""CLI end-to-end: subcommands, formats, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sevlogit as sl
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

    def test_bad_spec_is_config_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{")
        assert run("estimate", "--data", workdir / "data.csv", "--model", bad) == 2

    def test_malformed_data_is_ingestion_error(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text(
            "outcome,road_class,location,accident_type,speed_limit,curve\n"
            "injury,other,other,other,notanumber,0\n"
        )
        code = run("estimate", "--data", bad, "--model", workdir / "spec.json")
        assert code == 3
        assert "line 2" in capsys.readouterr().err

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
        assert captured.err == "error: n_obs (config key 'n') must be an integer >= 1, got 20.7\n"
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
            proc = subprocess.run(
                [sys.executable, "-m", "sevlogit", *argv, "--data", "data.csv",
                 "--model", "spec.json", "--format", "records"],
                cwd=tmp_path, env=env, capture_output=True, check=True,
            )
            outputs.setdefault(argv[0], set()).add(proc.stdout)
    assert all(len(out) == 1 for out in outputs.values())
