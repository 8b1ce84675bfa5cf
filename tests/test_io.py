"""CSV ingestion/emission, spec files, generator configs, atomic writes."""

import csv
import json
import os
import tracemalloc
from io import StringIO

import pytest

import sevlogit as sl
from sevlogit.io import (
    ingest_csv,
    load_generator_config,
    load_model_spec,
    model_spec_to_dict,
    write_csv,
    write_text_atomic,
)


@pytest.fixture
def csv_fixture(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "outcome,road_class,location,accident_type,speed_limit,curve\n"
        "property-damage-only,interstate,rural,one-vehicle,65,0\n"
        "injury,county-road,urban,C+C,35,1\n"
        "fatality,state-route,rural,C/LT+HT,55.5,0\n",
        encoding="utf-8",
    )
    return path


class TestIngestCSV:
    def test_three_row_round_trip(self, csv_fixture):
        ds = ingest_csv(csv_fixture)
        assert ds.n_obs == 3
        assert ds.variable_names == ("speed_limit", "curve")
        assert ds.observations[0].covariates == {"speed_limit": 65.0, "curve": 0.0}
        assert ds.observations[2].outcome == 2
        assert ds.observations[2].covariates["speed_limit"] == 55.5
        assert ds.observations[1].segment == sl.SegmentKey(
            road_class="county-road", location="urban", accident_type="C+C"
        )

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["outcome,road_class,location,accident_type,speed_limit"]
        for i in range(6):
            rows.append(f"injury,other,other,other,{30 + i}")
        rows[-1] = "injury,other,other,other,fast"  # physical line 7
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (7,)
        assert "line 7" in str(err.value)
        assert "fast" in str(err.value)

    def test_every_offending_line_listed(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,speed_limit\n"
            "injury,other,other,other,40\n"
            "Injury,other,other,other,40\n"  # bad label, line 3
            "injury,freeway,other,other,40\n"  # bad enum, line 4
            "injury,other,other,other,\n",  # missing value, line 5
            encoding="utf-8",
        )
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert set(err.value.lines) == {3, 4, 5}

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "no_outcome.csv"
        path.write_text("road_class,location,accident_type,x\nother,other,other,1\n")
        with pytest.raises(sl.SchemaError, match="outcome"):
            ingest_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text(
            "# generator: numpy PCG64, seed=7\n"
            "outcome,road_class,location,accident_type,x\n"
            "injury,other,other,other,1.5\n"
        )
        ds = ingest_csv(path)
        assert ds.n_obs == 1

    def test_period_and_weight_columns(self, tmp_path):
        path = tmp_path / "pw.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,period,weight,x\n"
            "injury,other,other,other,2004,2.5,1\n"
            "injury,other,other,other,,,2\n"
        )
        ds = ingest_csv(path)
        assert ds.observations[0].period == "2004"
        assert ds.observations[0].weight == 2.5
        assert ds.observations[1].period is None
        assert ds.observations[1].weight == 1.0

    def test_non_finite_cells_are_ingest_problems(self, tmp_path):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,weight,x\n"
            "injury,other,other,other,1,nan\n"  # line 2
            "injury,other,other,other,1,1e400\n"  # line 3: overflows to inf
            "injury,other,other,other,inf,1\n"  # line 4
            "injury,other,other,other,1,2\n"
        )
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (2, 3, 4)
        assert "'nan'" in str(err.value) and "'1e400'" in str(err.value)
        assert "weight must be finite, got inf" in str(err.value)

    def test_two_bad_segment_cells_both_listed(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,x\n"
            "injury,freeway,suburban,other,1\n"
        )
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (2, 2)
        assert "unknown road_class 'freeway'" in str(err.value)
        assert "unknown location 'suburban'" in str(err.value)

    def test_ragged_and_blank_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,x\n"
            "injury,other,other,other,1\n"
            "\n"
            ",,,,\n"
            "injury,other,other,other\n"  # line 5: zip would drop this row's missing cell
            "injury,other,other,other,1,9\n"  # line 6
        )
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (5, 6)
        assert "expected 5 cells, got 4" in str(err.value)

    def test_bounded_memory(self, speed_model, speed_theta, tmp_path):
        # peak allocation while ingesting stays within a small multiple of the columns' bytes
        covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
        years = [
            sl.simulate(sl.GeneratorConfig(speed_model, speed_theta, 50_000, covs, seed=seed))
            .with_period(year)
            for seed, year in ((5, "2004"), (6, "2006"))
        ]
        path = tmp_path / "large.csv"
        write_csv(sl.concatenate(years), path)
        tracemalloc.start()
        try:
            ds = ingest_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_obs == 100_000 and ds.period_labels == ("2004", "2006")
        numeric = sum(column.nbytes for column in ds.columns.values())
        assert peak <= 10 * numeric, f"peak {peak / numeric:.1f}x the numeric bytes"

    def test_byte_order_mark_accepted(self, csv_fixture, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + csv_fixture.read_bytes())
        assert ingest_csv(path) == ingest_csv(csv_fixture)

    def test_listing_is_capped_but_lines_complete(self, tmp_path, monkeypatch):
        path = tmp_path / "miscased.csv"
        rows = ["outcome,road_class,location,accident_type,x"]
        rows += [f"Injury,other,other,other,{i}" for i in range(6)]  # lines 2-7
        rows[4] = "Injury,freeway,other,other,3"  # line 5: two problems
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 2)
        monkeypatch.setattr(sl.io, "LISTED_PROBLEMS", 4)
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (2, 3, 4, 5, 5, 6, 7)
        message = str(err.value).splitlines()
        assert message[0].endswith("7 problem(s) while ingesting:")
        assert [m.split(":")[0] for m in message[1:5]] == [f"  line {n}" for n in (2, 3, 4, 5)]
        assert "'Injury'" in message[4]
        assert message[5:] == ["  … and 3 more problem(s)"]

    def test_lines_count_physical_lines_across_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "blocks.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,period,x\n"
            "injury,other,other,other,2004,1\n"  # block 1
            'injury,other,other,other,"a\nb",2\n'  # lines 3-4
            "Injury,other,other,other,2004,3\n"  # line 5
            "injury,other,other,other,2004\n"  # block 2 starts with a ragged row
            "injury,freeway,other,other,2004,x5\n"  # line 7: two problems
            "\n"  # block 2 ends with a blank row
            "injury,other,other,other,2001,7\n"  # block 3
            "fatality,other,other,other,2001,\n"  # line 10
            "injury,other,other,other,2001,1,2\n"  # block 3 ends with a ragged row
            "injury,other,other,other,2004,nan\n",  # block 4, line 12
            encoding="utf-8",
        )
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 3)
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (5, 6, 7, 7, 10, 11, 12)
        assert str(err.value).splitlines()[1:] == [
            "  line 5: unknown outcome label 'Injury' "
            "(expected one of ('property-damage-only', 'injury', 'fatality'))",
            "  line 6: expected 6 cells, got 5",
            "  line 7: " + sl.data.unknown_level("road_class", "freeway"),
            "  line 7: non-numeric value 'x5' for covariate 'x'",
            "  line 10: missing value for covariate 'x'",
            "  line 11: expected 6 cells, got 7",
            "  line 12: non-finite value 'nan' for covariate 'x'",
        ]

    def test_blocks_join_into_one_dataset(self, tmp_path, monkeypatch):
        path = tmp_path / "clean.csv"
        path.write_text(
            "outcome,road_class,location,accident_type,period,weight,x\n"
            "injury,interstate,rural,one-vehicle,2004,,1.5\n"
            'fatality,other,other,other,"a\nb",2,2\n'
            "property-damage-only,other,urban,C+C,2004,,3\n"
            "\n"
            "injury,other,other,other,,,4\n"
            "injury,county-road,other,other,2006,0.5,5\n"
            "fatality,other,other,other,2001,,6\n",  # a label first seen in block 3
            encoding="utf-8",
        )
        whole = ingest_csv(path)
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 3)
        blocked = ingest_csv(path)
        assert blocked == whole
        assert blocked.period_labels == ("2001", "2004", "2006", "a\nb")
        assert [o.period for o in blocked.observations] == [
            "2004", "a\nb", "2004", None, "2006", "2001"
        ]
        assert blocked.weights.tolist() == [1.0, 2.0, 1.0, 1.0, 0.5, 1.0]

    def test_custom_outcome_set(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "outcome,road_class,location,accident_type\nnone,other,other,other\nsevere,other,other,other\n"
        )
        ds = ingest_csv(path, sl.OutcomeSet(("none", "severe")))
        assert list(ds.outcome_indices) == [0, 1]


GOOD_ROWS = [
    "injury,interstate,rural,one-vehicle,2004,,1.5",
    "fatality,other,other,other,2006,2,2",
    "property-damage-only,other,urban,C+C,,,3",
    "injury,county-road,other,other,2006,0.5,4e-3",
    "injury,other,other,other,2001,,-6",
]
# with BLOCK_ROWS = 3, blank and all-comma rows open and close blocks
CLEAN_ROWS = ["", GOOD_ROWS[0], ",,,,,,", ",,", *GOOD_ROWS[1:3], "", ",", *GOOD_ROWS[3:]]
BAD_ROWS = [
    ",,,,,,",
    "Injury,other,other,other,2004,,1",  # unknown outcome label
    "injury,freeway,other,other,2004,,1",  # unknown level
    "",
    "injury,other,other,other,2004,,x5",  # non-numeric
    "injury,other,other,other,2004,,nan",  # non-finite
    GOOD_ROWS[0],
    "injury,other,other,other,2004,inf,1e400",  # non-finite weight and covariate
    "injury,other,other,other,2004,1",  # ragged: one cell short
    "",
    "injury,other,other,other,2004,,1,9",  # ragged: one cell over
    " ",  # one cell
    "injury,other,other,other,2004,,",  # missing covariate
]


class TestTokeniserEquivalence:
    """On quote-free files the str-split tokeniser gives what csv.reader gives."""

    @pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    # a BOM, and a quote in a comment line, which does not make the data quoted
    @pytest.mark.parametrize(
        "prefix", ["", '\ufeff# note "quoted"\n# seed=7\n'], ids=["bare", "bom-comments"]
    )
    @pytest.mark.parametrize("rows", [CLEAN_ROWS, BAD_ROWS], ids=["clean", "bad"])
    def test_split_path_matches_csv_reader(
        self, tmp_path, monkeypatch, rows, prefix, newline, final
    ):
        path = tmp_path / "data.csv"
        lines = [*prefix.splitlines(), "outcome,road_class,location,accident_type,period,weight,x"]
        text = newline.join(lines + rows) + (newline if final else "")
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 3)

        def outcome():
            try:
                return ingest_csv(path)
            except sl.IngestionError as err:
                return str(err), err.lines

        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_csv_blocks", None)  # the split path must not need it
            split = outcome()
        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_split_blocks", None)
            patched.setattr(sl.io, "_quote_bytes", lambda path: -1)  # as if the data held a quote
            oracle = outcome()
        assert split == oracle
        if rows is CLEAN_ROWS:
            assert split.n_obs == len(GOOD_ROWS)
            assert all(split.columns[k].dtype == oracle.columns[k].dtype for k in split.columns)
        else:
            assert len(split[1]) == 10


class TestWriteCSV:
    def test_emit_ingest_identity(self, speed_dataset, tmp_path):
        path = tmp_path / "round.csv"
        write_csv(speed_dataset, path, note="generator: numpy PCG64, seed=11")
        again = ingest_csv(path)
        assert again == speed_dataset
        assert path.read_text().startswith("# generator: numpy PCG64, seed=11\n")

    def test_period_weight_round_trip(self, tmp_path):
        outs = sl.OutcomeSet()
        obs = (
            sl.Observation({"x": 1.25}, 1, sl.SegmentKey(), "2004", 2.0),
            sl.Observation({"x": 0.1234567890123}, 0, sl.SegmentKey(), "2006", 1.0),
        )
        ds = sl.Dataset(outs, obs, ("x",))
        path = tmp_path / "pw.csv"
        write_csv(ds, path)
        assert ingest_csv(path) == ds


    def test_quoted_period_labels_round_trip(self, speed_dataset, tmp_path):
        ds = sl.concatenate(
            [speed_dataset.with_period("2004, Q1"), speed_dataset.with_period('Q2 "late"')]
        )
        path = tmp_path / "quoted.csv"
        write_csv(ds, path)
        assert ingest_csv(path) == ds
        text = path.read_text()
        assert '"2004, Q1"' in text
        # the writer quotes exactly as csv.writer does wherever no bare CR is involved
        expected = StringIO()
        csv.writer(expected, lineterminator="\n").writerows(csv.reader(StringIO(text)))
        assert text == expected.getvalue()

    def test_carriage_returns_in_labels_round_trip(self, tmp_path):
        obs = (
            sl.Observation({"x": 1.5}, 1, period="a\rb"),
            sl.Observation({"x": 2.0}, 0, period="c\r\nd"),
        )
        for rows in (obs[:1], obs):
            ds = sl.Dataset(sl.OutcomeSet(), rows, ("x",))
            path = tmp_path / "cr.csv"
            write_csv(ds, path)
            assert ingest_csv(path) == ds
            with path.open(newline="", encoding="utf-8") as handle:
                assert '"a\rb"' in handle.read()


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "report.txt"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    @pytest.mark.parametrize("kind", ["parent-is-file", "target-is-dir"])
    def test_unwritable_path_is_config_error(self, tmp_path, kind):
        if kind == "parent-is-file":
            (tmp_path / "file").write_text("")
            target = tmp_path / "file" / "out.txt"
        else:
            target = tmp_path / "dir"
            target.mkdir()
        with pytest.raises(sl.ConfigError, match="cannot write"):
            write_text_atomic(target, "text")
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestModelSpecFile:
    def test_parse_with_labels(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": ["property-damage-only", "injury", "fatality"],
                    "terms": [
                        {"variable": "constant", "outcomes": ["injury", "fatality"]},
                        {
                            "variable": "speed_limit",
                            "outcomes": ["injury", "fatality"],
                            "shared": True,
                        },
                    ],
                }
            )
        )
        model = load_model_spec(path)
        assert model.n_params == 3
        assert model.terms[1].shared

    def test_round_trip_dict(self, speed_model, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(model_spec_to_dict(speed_model)))
        assert load_model_spec(path) == speed_model

    def test_integer_outcomes_accepted(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": [1]}]})
        )
        assert load_model_spec(path).n_params == 1

    def test_errors(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(sl.ModelSpecError):
            load_model_spec(bad_json)

        unknown_label = tmp_path / "unknown.json"
        unknown_label.write_text(
            json.dumps({"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": ["c"]}]})
        )
        with pytest.raises(sl.ModelSpecError, match="unknown outcome"):
            load_model_spec(unknown_label)

        missing_keys = tmp_path / "missing.json"
        missing_keys.write_text(json.dumps({"outcomes": ["a", "b"]}))
        with pytest.raises(sl.ModelSpecError):
            load_model_spec(missing_keys)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"outcomes": "pdo", "terms": [{"variable": "x", "outcomes": [1]}]}, "'outcomes' must"),
            ({"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": "b"}]},
             "term 0 needs 'variable' and a list of 'outcomes'"),
            ({"outcomes": ["a", "b", "c"], "terms": [{"variable": "x", "outcomes": [1.7]}]},
             "outcomes must be integer indices, got \\(1.7,\\)"),
            ({"outcomes": ["a", "b", "c"], "terms": [{"variable": "x", "outcomes": [True]}]},
             "outcomes must be integer indices"),
            ({"outcomes": ["a", "b", "c"],
              "terms": [{"variable": "x", "outcomes": [1, 2], "shared": "false"}]},
             "shared must be true or false, got 'false'"),
        ],
    )
    def test_malformed_values_are_refused(self, tmp_path, doc, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(sl.ModelSpecError, match=message):
            load_model_spec(path)


class TestGeneratorConfigFile:
    def _write(self, tmp_path, doc):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        return path

    def test_inline_model_and_theta_dict(self, tmp_path):
        doc = {
            "model": {
                "outcomes": ["property-damage-only", "injury", "fatality"],
                "terms": [{"variable": "constant", "outcomes": ["injury", "fatality"]}],
            },
            "theta": {"constant:injury": -1.0, "constant:fatality": -2.0},
            "n": 50,
            "seed": 3,
            "covariates": {},
            "period": "2006",
        }
        config, period = load_generator_config(self._write(tmp_path, doc))
        assert period == "2006"
        assert config.n_obs == 50
        ds = sl.simulate(config)
        assert ds.n_obs == 50

    def test_model_by_path_and_theta_list(self, tmp_path, speed_model):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(model_spec_to_dict(speed_model)))
        doc = {
            "model": "spec.json",
            "theta": [-1.8, -4.0, 0.7, 0.03],
            "n": 20,
            "covariates": {
                "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                "curve": {"dist": "indicator", "p": 0.3},
            },
            "segments": [
                {"road_class": "interstate", "location": "rural", "weight": 0.5},
                {"road_class": "county-road", "weight": 0.5, "theta": [-1.0, -3.0, 0.5, 0.02]},
            ],
        }
        config, period = load_generator_config(self._write(tmp_path, doc))
        assert period is None
        assert config.segments[1].theta is not None
        sl.simulate(config)

    def test_theta_length_checked(self, tmp_path):
        doc = {
            "model": {
                "outcomes": ["a", "b"],
                "terms": [{"variable": "constant", "outcomes": ["b"]}],
            },
            "theta": [1.0, 2.0],
            "n": 5,
            "covariates": {},
        }
        with pytest.raises(sl.ConfigError, match="slot order"):
            load_generator_config(self._write(tmp_path, doc))

    @pytest.mark.parametrize("theta", [{"constant:b": None}, 0.5, ["x"]])
    def test_theta_of_wrong_type_is_config_error(self, tmp_path, theta):
        doc = {
            "model": {
                "outcomes": ["a", "b"],
                "terms": [{"variable": "constant", "outcomes": ["b"]}],
            },
            "theta": theta,
            "n": 5,
            "covariates": {},
        }
        with pytest.raises(sl.ConfigError, match="slot order"):
            load_generator_config(self._write(tmp_path, doc))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"n": 20.7}, "n_obs \\(config key 'n'\\) must be an integer >= 1, got 20.7"),
            ({"n": True}, "config key 'n'\\) must be an integer >= 1, got True"),
            ({"n": "20"}, "config key 'n'\\) must be an integer >= 1, got '20'"),
            ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
            ({"seed": "1"}, "seed must be a non-negative integer, got '1'"),
            ({"covariates": ["x"]}, "'covariates' must be an object"),
            ({"segments": ["interstate"]}, "'segments' must be a list of objects"),
            ({"segments": {"road_class": "interstate"}}, "'segments' must be a list of objects"),
        ],
    )
    def test_malformed_values_are_refused(self, tmp_path, changes, message):
        doc = {
            "model": {"outcomes": ["a", "b"], "terms": [{"variable": "constant", "outcomes": [1]}]},
            "theta": [0.1],
            "n": 20,
            "seed": 1,
            "covariates": {},
            **changes,
        }
        with pytest.raises(sl.ConfigError, match=message):
            load_generator_config(self._write(tmp_path, doc))

    def test_integral_float_n_is_accepted(self, tmp_path):
        doc = {
            "model": {"outcomes": ["a", "b"], "terms": [{"variable": "constant", "outcomes": [1]}]},
            "theta": [0.1],
            "n": 2e1,
            "covariates": {},
        }
        config, _ = load_generator_config(self._write(tmp_path, doc))
        assert config.n_obs == 20 and type(config.n_obs) is int

    def test_unknown_distribution(self, tmp_path):
        doc = {
            "model": {
                "outcomes": ["a", "b"],
                "terms": [{"variable": "x", "outcomes": ["b"]}],
            },
            "theta": [0.1],
            "n": 5,
            "covariates": {"x": {"dist": "zipf", "s": 2}},
        }
        with pytest.raises(sl.ConfigError, match="unknown distribution"):
            load_generator_config(self._write(tmp_path, doc))
