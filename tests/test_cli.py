"""CLI end-to-end: subcommands, formats, and exit codes."""

import json

import pytest

import sevlogit as sl
from sevlogit.cli import main
from sevlogit.io import model_spec_to_dict, write_csv


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
