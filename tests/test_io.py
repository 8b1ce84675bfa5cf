"""CSV ingestion/emission, spec files, generator configs, atomic writes."""

import csv
import json
import math
import os
import sys
import tracemalloc
from hashlib import blake2b
from io import FileIO, StringIO

import numpy as np
import pytest

import sevlogit as sl
import sevlogit.io
from sevlogit.data import SEGMENT_LEVELS
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


def csv_reader_only(handle, path, first, width):
    """io._split_blocks as if the first block held a '"': csv.reader tokenises every row."""
    return sl.io._csv_blocks(path, first, width)


def ingest_outcome(path):
    """The dataset of a clean CSV, else its IngestionError's message and lines."""
    try:
        return ingest_csv(path)
    except sl.IngestionError as err:
        return str(err), err.lines


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

    def test_the_file_name_keeps_the_errors_type_and_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("outcome,road_class,location,accident_type,speed_limit\n"
                        "Injury,other,other,other,40\n"
                        "injury,other,other,other,fast\n")
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert type(err.value) is sl.IngestionError and err.value.lines == (2, 3)
        assert str(err.value).startswith(f"{path}: 2 problem(s) while ingesting:\n  line 2: ")
        path.write_text("outcome,road_class,location\n")
        with pytest.raises(sl.SchemaError) as err:
            ingest_csv(path)
        assert str(err.value) == f"{path}: missing required column(s) ['accident_type']"

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

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, monkeypatch, quoted,
                                                     newline):
        path = tmp_path / "latin1.csv"
        lines = ["# seed=7", "outcome,road_class,location,accident_type,period,x",
                 "injury,other,other,other,2004,1", "Injury,other,other,other,2004,2",
                 "injury,other,other,other,2004,3", "injury,other,other,other,2004,4"]
        if quoted:
            lines[3] = 'Injury,other,other,other,"2004",2'
        data = newline.join(lines).encode() + newline.encode()
        path.write_bytes(data.replace(b",3", b",\xe9", 1))  # line 5 holds a Latin-1 é
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 2)
        # each file must take its own tokeniser
        if quoted:
            monkeypatch.setattr(sl.io, "_split_blocks", csv_reader_only)
        else:
            monkeypatch.setattr(sl.io, "_csv_blocks", None)
        with pytest.raises(sl.IngestionError) as err:
            sl.ingest_csv(path)
        assert err.value.lines == (5,)
        assert str(err.value) == f"{path}: line 5: byte 0xe9 is not UTF-8 (invalid continuation byte)"

    @pytest.mark.parametrize("where", ["header", "first-row", "spanning-lines", "later-block"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_field_over_the_csv_field_limit_names_its_line(self, tmp_path, monkeypatch, where,
                                                              newline):
        path, limit = tmp_path / "huge.csv", csv.field_size_limit()
        lines = ["# seed=7", "outcome,road_class,location,accident_type,period,x",
                 "injury,other,other,other,2004,1", f'injury,other,other,other,"a{newline}b",2',
                 "injury,other,other,other,2004,3", "injury,other,other,other,2004,4"]
        huge = '"' + "1" * (limit + 1) + '"'
        at, line = {"header": (1, 2), "first-row": (2, 3), "spanning-lines": (3, 4),
                    "later-block": (5, 7)}[where]  # the row's index, the line it starts on
        if where == "spanning-lines":  # the row starts on line 4; the limit is passed on line 5
            lines[at] = f'injury,other,other,other,"a{newline}{huge[1:]},2'
        else:
            lines[at] = lines[at].rsplit(",", 1)[0] + "," + huge
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 2)  # lines 3-5 are block 1, lines 6-7 block 2
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        assert err.value.lines == (line,)
        assert str(err.value) == f"{path}: line {line}: field larger than field limit ({limit})"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_header_name_holding_a_line_break_is_refused(self, tmp_path, newline):
        path = tmp_path / "broken.csv"
        lines = ["# seed=7", f'outcome,road_class,location,accident_type,"x{newline}y"',
                 "injury,other,other,other,1", "injury,other,other,other,2"]
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        with pytest.raises(sl.SchemaError) as err:
            ingest_csv(path)
        assert err.value.lines == (2,)
        assert str(err.value) == f"{path}: line 2: unexpected end of data"  # the quote is open

    @pytest.mark.parametrize("kind, line", [
        pytest.param("open-quote", 3, id="open-quote-first-row"),  # runs on to the end of file
        pytest.param("open-quote", 7, id="open-quote-last-row"),  # block 3: lines 3-4, 5-6, 7
        pytest.param("text-after-quote", 3, id="text-after-quote-first-row"),
        pytest.param("text-after-quote", 6, id="text-after-quote-later-block"),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_quote_left_open_or_followed_by_text_names_its_line(self, tmp_path, monkeypatch,
                                                                  kind, line, newline):
        path = tmp_path / "quotes.csv"
        lines = ["# seed=7", "outcome,road_class,location,accident_type,period,x",
                 *(f"injury,other,other,other,2004,{i}" for i in range(1, 6))]
        lines[line - 1] = "injury,other,other,other,2004," + {"open-quote": '"2',
                                                            "text-after-quote": '"1"2'}[kind]
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 2)
        with pytest.raises(sl.IngestionError) as err:
            ingest_csv(path)
        reason = {"open-quote": "unexpected end of data",
                  "text-after-quote": "',' expected after '\"'"}[kind]
        assert err.value.lines == (line,)
        assert str(err.value) == f"{path}: line {line}: {reason}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_escaped_and_bare_quotes_load_as_the_csv_module_reads_them(self, tmp_path, newline):
        lines = ["outcome,road_class,location,accident_type,period,x",
                 'injury,other,other,other,"Q""1",1', 'injury,other,other,other,Q"1,2',
                 'injury,other,other,other,"Q""1",3']
        path = tmp_path / "quotes.csv"
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        with open(path, newline="", encoding="utf-8") as handle:
            expected = [row[4] for row in csv.reader(handle)][1:]
        dataset = ingest_csv(path)
        assert expected == ['Q"1'] * 3
        assert dataset.period_labels == ('Q"1',)
        assert dataset.columns["period"].tolist() == [0, 0, 0]
        assert dataset.covariate_matrix[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_an_undecodable_line_is_counted_across_reads(self, tmp_path):
        # the file is read in 1 MiB pieces: one CRLF straddles the first two, and the bad byte
        # is the first of an incomplete sequence that ends the file
        head, row = b"outcome,road_class,location,accident_type,x\r\n", b"injury,other,other,other,1\r\n"
        rows = 30_000
        size = (1 << 20) + 1 - len(head) - (rows - 1) * len(row)  # of a first row padded with 0s
        first = row[:-3] + b"0" * (size - len(row)) + row[-3:]
        path = tmp_path / "long.csv"
        path.write_bytes(head + first + row * rows + b"\xe2\x82")
        assert path.read_bytes()[(1 << 20) - 1 : (1 << 20) + 1] == b"\r\n"
        with pytest.raises(sl.IngestionError) as err:
            sl.ingest_csv(path)
        assert err.value.lines == (rows + 3,)
        assert f"line {rows + 3}: byte 0xe2 is not UTF-8 (unexpected end of data)" in str(err.value)

    def test_a_file_that_cannot_be_read_is_config_error(self, tmp_path, monkeypatch):
        path = tmp_path / "locked.csv"
        path.write_text("outcome,road_class,location,accident_type\n")

        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(type(path), "open", refused)
        with pytest.raises(sl.ConfigError, match=f"^cannot read {path} \\(Permission denied\\)$"):
            sl.ingest_csv(path)

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

    @pytest.mark.parametrize("quoted, opens", [(False, 1), (True, 2)], ids=["quote-free", "quoted"])
    def test_the_csv_is_opened_once_and_again_only_for_csv_reader(self, tmp_path, monkeypatch,
                                                                   quoted, opens):
        path = tmp_path / "data.csv"
        rows = [f"injury,other,other,other,{i}" for i in range(7)]
        if quoted:
            rows[5] = 'injury,other,other,"other",5'  # in the second block
        path.write_text("outcome,road_class,location,accident_type,x\n" + "\n".join(rows) + "\n")
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 3)
        opened = []

        def record(event, args):  # an audit hook stays for the process: it records until None
            if event == "open" and opened is not None:
                opened.append(str(args[0]))

        sys.addaudithook(record)
        try:
            ds = ingest_csv(path)
        finally:
            recorded, opened = opened, None
        assert ds.n_obs == 7
        assert recorded.count(str(path)) == opens

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
        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_csv_blocks", None)  # the split path must not need it
            split = ingest_outcome(path)
        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_split_blocks", csv_reader_only)
            oracle = ingest_outcome(path)
        assert split == oracle
        if rows is CLEAN_ROWS:
            assert split.n_obs == len(GOOD_ROWS)
            assert all(split.columns[k].dtype == oracle.columns[k].dtype for k in split.columns)
        else:
            assert len(split[1]) == 10

    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_csv_reader_takes_over_at_the_first_block_that_holds_a_quote(
        self, tmp_path, monkeypatch, bad, newline
    ):
        rows = [  # BLOCK_ROWS = 3: blocks 1 and 2 are quote-free; block 3 starts on line 9
            GOOD_ROWS[0], "", GOOD_ROWS[1],
            ",,,,,,", GOOD_ROWS[2], GOOD_ROWS[3],
            # a label that spans three lines: a bare CR, then the file's own line end
            GOOD_ROWS[4], f'fatality,other,other,other,"a\rb{newline}c",,2', ",",
            '"injury",other,other,other,2004,,3', "", GOOD_ROWS[0],
        ]
        if bad:
            rows[0] = "Injury,other,other,other,2004,,1"  # line 3: before the quote
            rows[5] = "injury,other,other,other,2004,1"  # line 8: ragged, the block before it
            rows[6] = "injury,freeway,other,other,2004,,x5"  # line 9: in the quote's block
            rows[9] = '"injury",other,other,other,2004,,3,4'  # line 14: ragged, after it
            rows[11] = "injury,other,other,other,2004,inf,"  # line 16
        lines = ['# note "quoted"', "outcome,road_class,location,accident_type,period,weight,x"]
        path = tmp_path / "late.csv"
        path.write_text(newline.join(lines + rows) + newline, encoding="utf-8", newline="")
        monkeypatch.setattr(sl.io, "BLOCK_ROWS", 3)
        real, handed_over = sl.io._csv_blocks, []

        def csv_blocks(path, first, width):
            handed_over.append(first)
            return real(path, first, width)

        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_csv_blocks", csv_blocks)
            mixed = ingest_outcome(path)
        with monkeypatch.context() as patched:
            patched.setattr(sl.io, "_split_blocks", csv_reader_only)
            oracle = ingest_outcome(path)
        assert handed_over == [9]  # the str split took blocks 1 and 2
        assert mixed == oracle
        if bad:
            assert mixed[1] == (3, 8, 9, 9, 14, 16, 16)
        else:
            assert mixed.n_obs == 8
            assert mixed.period_labels == ("2001", "2004", "2006", f"a\rb{newline}c")
            assert all(mixed.columns[k].dtype == oracle.columns[k].dtype for k in mixed.columns)


class TestWriteCSV:
    def test_emit_ingest_identity(self, speed_dataset, tmp_path):
        path = tmp_path / "round.csv"
        write_csv(speed_dataset, path, note="generator: numpy PCG64, seed=11")
        again = ingest_csv(path)
        assert again == speed_dataset
        assert path.read_text().startswith("# generator: numpy PCG64, seed=11\n")

    def test_failure_mid_stream_leaves_the_old_file(self, speed_dataset, tmp_path, monkeypatch):
        # blocks go to a temp file as they are formatted; only a complete file is renamed
        path = tmp_path / "data.csv"
        path.write_text("old\n")
        formatted = []
        real = sevlogit.io._format_column

        def failing(values):
            formatted.append(len(values))
            if len(formatted) > 2:  # two columns per block: the second block fails
                raise OSError(28, "No space left on device")
            return real(values)

        monkeypatch.setattr(sevlogit.io, "BLOCK_ROWS", 1000)
        monkeypatch.setattr(sevlogit.io, "_format_column", failing)
        with pytest.raises(sl.ConfigError, match="cannot write .*No space left"):
            write_csv(speed_dataset, path)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["data.csv"]

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

    @staticmethod
    def _reference(dataset, note):
        """write_csv's bytes, built one row and one cell at a time."""

        def quoted(field):
            special = any(ch in field for ch in ',"\r\n')
            return '"' + field.replace('"', '""') + '"' if special else field

        def number(value):
            integral = value == math.trunc(value) and abs(value) < 1e15
            return str(int(value)) if integral else repr(value)

        rows = dataset.observations
        period = any(o.period is not None for o in rows)
        weight = any(o.weight != 1.0 for o in rows)
        header = ["outcome", "road_class", "location", "accident_type"]
        header += ["period"] * period + ["weight"] * weight + list(dataset.variable_names)
        lines = [f"# {note}", ",".join(map(quoted, header))]
        for o in rows:
            labels = [dataset.outcome_set.labels[o.outcome], o.segment.road_class,
                      o.segment.location, o.segment.accident_type] + [o.period or ""] * period
            numbers = [o.weight] * weight + [o.covariates[name] for name in dataset.variable_names]
            lines.append(",".join([*map(quoted, labels), *map(number, numbers)]))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("block_rows", [1, 7, 8192])
    @pytest.mark.parametrize("periods_and_weights", [False, True])
    def test_bytes_match_a_per_row_writer(self, tmp_path, monkeypatch, block_rows,
                                          periods_and_weights):
        rng = np.random.default_rng(5)
        n = 200
        outcomes = sl.OutcomeSet(("pdo, minor", 'in"jury', "fa\rtal", "multi\nline"))
        mixed = np.array([-0.0, 0.0, 1e15, -1e15, 1e15 - 1, -7.0, 3.5, -2.25, 0.1, 123456789.0])
        columns = {
            "X": np.column_stack([rng.choice(mixed, n), rng.uniform(-50, 50, n),
                                  rng.integers(-3, 3, n).astype(float)]),
            "y": rng.integers(0, 4, n),
            "w": rng.choice([1.0, 0.5, 2.0, 1e-3], n) if periods_and_weights else np.ones(n),
            **{dim: rng.integers(0, len(levels), n) for dim, levels in SEGMENT_LEVELS.items()},
            "period": rng.integers(-1, 3, n) if periods_and_weights else np.full(n, -1),
        }
        labels = ("2004, Q1", 'Q2 "late"', "c\r\nd")
        ds = sl.Dataset.from_columns(outcomes, ("mixed", "a,b", "count"), columns, labels)
        monkeypatch.setattr(sevlogit.io, "BLOCK_ROWS", block_rows)
        write_csv(ds, tmp_path / "out.csv", note="note")
        assert (tmp_path / "out.csv").read_bytes() == self._reference(ds, "note")
        assert ingest_csv(tmp_path / "out.csv", outcomes) == ds


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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"covariates": {"x": {"dist": "constant", "value": "1"}}},
             "covariate 'x': 'value' must be a finite number, got '1'"),
            ({"covariates": {"x": {"dist": "uniform", "low": "25", "high": 70}}},
             "covariate 'x': 'low' must be a finite number, got '25'"),
            ({"covariates": {"x": {"dist": "uniform", "low": 25, "high": float("inf")}}},
             "covariate 'x': 'high' must be a finite number, got inf"),
            ({"covariates": {"x": {"dist": "indicator", "p": True}}},
             "covariate 'x': 'p' must be a finite number, got True"),
            ({"theta": {"x:b": "0.35"}},
             "theta: value of 'x:b' must be a finite number, got '0.35' \\(slot order"),
            ({"theta": [None]}, "theta: value 0 must be a finite number, got None \\(slot order"),
            ({"segments": [{"road_class": "interstate", "weight": True}]},
             "segment 0: 'weight' must be a finite number, got True"),
            ({"segments": [{"road_class": "interstate", "weight": 1.0, "theta": [False]}]},
             "segment 0: theta: value 0 must be a finite number, got False \\(slot order"),
        ],
        ids=["constant-value", "uniform-low", "uniform-high", "indicator-p", "theta-mapping",
             "theta-list", "segment-weight", "segment-theta"],
    )
    def test_numbers_must_be_numbers(self, tmp_path, changes, message):
        doc = {
            "model": {"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": [1]}]},
            "theta": [0.1],
            "n": 20,
            "covariates": {"x": {"dist": "uniform", "low": 25, "high": 70}},
            "segments": [{"road_class": "interstate", "weight": 1.0}],
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

    def test_a_distribution_name_that_is_not_a_string_is_unknown(self, tmp_path):
        doc = {"model": {"outcomes": ["a", "b"], "terms": [{"variable": "x", "outcomes": ["b"]}]},
               "theta": [0.1], "n": 5, "covariates": {"x": {"dist": ["uniform"]}}}
        path = self._write(tmp_path, doc)
        with pytest.raises(sl.ConfigError) as err:
            load_generator_config(path)
        assert str(err.value).startswith(f"{path}: covariate 'x': unknown distribution ['uniform']")


class TestKeyHash:
    """store_key hashes the code digest, the outcome labels and the CSV's bytes with one BLAKE2b,
    reading READ_BYTES at a time; fit_key hashes each array's dtype, shape and C-order bytes."""

    CHUNK = sevlogit.io.READ_BYTES
    LABELS = sl.OutcomeSet()

    @classmethod
    def reference(cls, data: bytes) -> str:
        """The column key's digest of a CSV holding `data`."""
        prefix = sevlogit.io._code_digest() + json.dumps(cls.LABELS.labels).encode()
        return blake2b(prefix + data).hexdigest()

    def write(self, tmp_path, size: int) -> tuple:
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        return path, data

    @staticmethod
    def read_through(monkeypatch, readinto) -> None:
        """Make store_key's reads `readinto(file, buffer)`."""

        class Patched(FileIO):
            def readinto(self, buffer):
                return readinto(super(), buffer)

        monkeypatch.setattr(sevlogit.io, "open", lambda path, *_, **__: Patched(path),
                            raising=False)

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 777])
    def test_the_key_is_one_digest_of_the_code_the_labels_and_the_bytes(self, tmp_path, size):
        path, data = self.write(tmp_path, size)
        digest, owner, stamp = sevlogit.io.store_key(path, self.LABELS)
        assert digest == self.reference(data)
        assert (owner, stamp) == (os.getuid(), (size, path.stat().st_mtime_ns))

    @pytest.mark.parametrize("where", ["first", "middle", "last-partial"])
    def test_a_one_byte_edit_in_any_leaf_changes_the_key(self, tmp_path, where):
        path, data = self.write(tmp_path, 4 * self.CHUNK + 100)
        before = sevlogit.io.store_key(path, self.LABELS)
        at = {"first": 0, "middle": 2 * self.CHUNK + 5, "last-partial": len(data) - 1}[where]
        path.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :])
        os.utime(path, ns=(0, before[2][1]))  # same size and mtime: only the bytes differ
        after = sevlogit.io.store_key(path, self.LABELS)
        assert after[0] != before[0] and after[1:] == before[1:]

    def test_a_read_error_is_a_silent_miss(self, tmp_path, monkeypatch):
        path, _ = self.write(tmp_path, 3 * self.CHUNK)
        reads = []

        def readinto(file, buffer):
            reads.append(len(buffer))
            if len(reads) == 2:  # after the first chunk was hashed
                raise OSError(5, "Input/output error")
            return file.readinto(buffer)

        self.read_through(monkeypatch, readinto)
        assert sevlogit.io.store_key(path, self.LABELS) is None
        assert reads == [self.CHUNK] * 2

    def test_a_file_that_shrinks_while_it_is_hashed_is_a_silent_miss(self, tmp_path,
                                                                      monkeypatch):
        path, _ = self.write(tmp_path, 3 * self.CHUNK)

        def readinto(file, buffer):
            os.truncate(path, self.CHUNK + 1)  # as if rewritten after its size was taken
            return file.readinto(buffer)

        self.read_through(monkeypatch, readinto)
        assert sevlogit.io.store_key(path, self.LABELS) is None

    def test_a_file_that_grows_while_it_is_hashed_is_a_silent_miss(self, tmp_path, monkeypatch):
        path, _ = self.write(tmp_path, 3 * self.CHUNK)
        reads = []

        def readinto(file, buffer):
            if not reads:  # as if appended to once after its size was taken
                with open(path, "ab") as handle:
                    handle.write(b"\n")
            reads.append(len(buffer))
            return file.readinto(buffer)

        self.read_through(monkeypatch, readinto)
        assert sevlogit.io.store_key(path, self.LABELS) is None

    def test_the_bytes_are_read_through_one_buffer_whatever_the_size(self, tmp_path):
        path, data = self.write(tmp_path, 8 * self.CHUNK + 3)
        sevlogit.io.store_key(path, self.LABELS)  # the code digest is taken once per process
        tracemalloc.start()
        try:
            digest = sevlogit.io.store_key(path, self.LABELS)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == self.reference(data)
        assert peak < 2 * self.CHUNK, f"peak {peak / self.CHUNK:.1f} read buffers"

    @pytest.mark.parametrize("name", ["X", "y", "w"])
    def test_a_strided_array_is_keyed_as_its_copy(self, speed_model, speed_dataset, name):
        def with_column(array):
            columns = {**speed_dataset.columns, name: array}
            return sl.Dataset.from_columns(speed_dataset.outcome_set, speed_dataset.variable_names,
                                           columns, speed_dataset.period_labels)

        column = speed_dataset.columns[name]
        strided = with_column(np.repeat(column, 2, axis=0)[::2])  # every other row of a copy
        copied = with_column(column.copy())
        assert not strided.columns[name].flags.c_contiguous
        assert np.array_equal(strided.columns[name], copied.columns[name])
        key = lambda dataset: sevlogit.io.fit_key(speed_model, dataset, sl.EstimateOptions())
        assert key(strided) == key(copied)

    def test_a_fortran_order_array_is_keyed_as_its_c_order_copy(self, speed_model,
                                                                  speed_dataset):
        def with_x(x):
            columns = {**speed_dataset.columns, "X": x}
            return sl.Dataset.from_columns(speed_dataset.outcome_set, speed_dataset.variable_names,
                                           columns, speed_dataset.period_labels)

        x = speed_dataset.columns["X"]
        fortran, c_order = with_x(np.asfortranarray(x)), with_x(np.ascontiguousarray(x))
        assert x.shape[1] > 1 and not fortran.columns["X"].flags.c_contiguous
        assert c_order.columns["X"].flags.c_contiguous
        key = lambda dataset: sevlogit.io.fit_key(speed_model, dataset, sl.EstimateOptions())
        assert key(fortran) == key(c_order)
