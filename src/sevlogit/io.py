"""File formats: accident CSV, model-spec JSON, generator-config JSON, atomic report writes.

CSV schema: UTF-8 (a leading byte-order mark is skipped), comma-separated, one
header row. Required columns are outcome, road_class, location, accident_type;
period and weight are optional; every remaining column is a numeric covariate.
Outcome cells hold the outcome label, case-sensitively. Lines starting with '#' before the header are
metadata comments (emitted datasets record their RNG there) and are skipped.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from functools import partial
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .data import COLUMNS, SEGMENT_LEVELS, Dataset, OutcomeSet, SegmentKey, unknown_level
from .errors import ConfigError, IngestionError, ModelSpecError, SchemaError
from .modelspec import ModelSpec, ParameterVector, TermSpec, build_layout
from .simulate import (
    CategoricalDist,
    ConstantDist,
    GeneratorConfig,
    IndicatorDist,
    SegmentComponent,
    UniformDist,
)

REQUIRED_COLUMNS = ("outcome", "road_class", "location", "accident_type")
OPTIONAL_COLUMNS = ("period", "weight")
BLOCK_ROWS = 8192  # rows converted or formatted at once; bounds memory to one block of cells
LISTED_PROBLEMS = 100  # problems an ingest error spells out; the rest are counted


def ingest_csv(path, outcome_set: Optional[OutcomeSet] = None) -> Dataset:
    """Read an accident CSV into a Dataset, reporting every malformed line at once.

    Rows are tokenised (by str methods if no '"' follows the header, else by csv.reader),
    converted and checked in one pass, BLOCK_ROWS at a time and a whole column at once:
    an unknown label codes -1 and a number that does not parse reads nan, so every bad
    cell is named from those masks, with the physical line its row starts on. The error's
    message spells out the first LISTED_PROBLEMS problems in line order and counts the
    rest; its `lines` holds the line of every problem.
    """
    outcome_set = outcome_set or OutcomeSet()
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        head = [handle.readline()]  # comment lines, then the header
        while head[-1].startswith("#"):
            head.append(handle.readline())
        line, first = head[-1], len(head) + 1  # first: the physical line of the first row
        if not line:
            raise SchemaError(f"{path}: no header row found")
        header = next(csv.reader([line]))
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {missing}")
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        covariate_names = tuple(
            name for name in header if name not in REQUIRED_COLUMNS and name not in OPTIONAL_COLUMNS
        )

        if _quote_bytes(path) == "".join(head).count('"'):
            tokenised = _split_blocks(path, first, len(header))
        else:
            tokenised = _csv_blocks(handle, first, len(header))
        blocks, periods, listed, bad_lines = [], [], [], []
        for block in tokenised:
            problems = []
            blocks.append(
                _convert_block(*block, header, covariate_names, outcome_set, periods, problems)
            )
            problems.sort(key=itemgetter(0))  # stable: a line keeps its problems in check order
            bad_lines.extend(n for n, _ in problems)
            listed.extend(problems[: LISTED_PROBLEMS - len(listed)])
            if bad_lines:
                blocks.clear()  # the file will not load: keep no columns while the rest is checked

    if bad_lines:
        listing = [f"  line {n}: {msg}" for n, msg in listed]
        if len(bad_lines) > len(listed):
            listing.append(f"  … and {len(bad_lines) - len(listed)} more problem(s)")
        raise IngestionError(
            f"{path}: {len(bad_lines)} problem(s) while ingesting:\n" + "\n".join(listing),
            lines=bad_lines,
        )
    columns = {key: np.concatenate([block[key] for block in blocks]) for key in COLUMNS}
    return Dataset.from_columns(outcome_set, covariate_names, columns, periods)


def _quote_bytes(path) -> int:
    """Number of '"' bytes in a file, read in binary chunks ('"' is one byte in UTF-8)."""
    with open(path, "rb") as raw:
        return sum(chunk.count(b'"') for chunk in iter(partial(raw.read, 1 << 20), b""))


def _split_blocks(path, first: int, width: int):
    """Blocks of a quote-free file, split with str methods: no Python object per row."""
    # universal newlines: CRLF and a lone CR each end one line, as csv.reader counts them
    with path.open(encoding="utf-8-sig") as handle:
        lines = islice(handle, first - 1, None)
        while True:
            block = list(islice(lines, BLOCK_ROWS))
            if block and not block[-1].endswith("\n"):
                block[-1] += "\n"
            counts = 1 + np.fromiter(map(str.count, block, repeat(",")), np.int64, len(block))
            blank = counts == np.fromiter(map(len, block), np.int64, len(block))  # commas only
            flat = "".join(compress(block, ~blank & (counts == width))).replace("\n", ",").split(",")
            flat.pop()  # the empty cell after the last newline
            columns, n = [flat[j::width] for j in range(width)], len(block)
            del block, flat  # only the columns' cells stay alive while the block is converted
            yield range(first, first + n), blank, counts, columns
            first += n
            if n < BLOCK_ROWS:
                return


def _csv_blocks(handle, first: int, width: int):
    """Blocks of csv.reader rows."""
    reader, line = csv.reader(handle), first
    while True:
        rows, starts = [], []
        for row in islice(reader, BLOCK_ROWS):
            rows.append(row)
            starts.append(line)
            line = first + reader.line_num  # a quoted field may span lines
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        blank = ~np.fromiter(map(any, rows), bool, len(rows))
        columns = list(zip(*compress(rows, ~blank & (counts == width)))) or [()] * width
        yield starts, blank, counts, columns
        if len(rows) < BLOCK_ROWS:
            return


def _codes(cells, labels) -> np.ndarray:
    """Index of each cell in `labels`, or -1."""
    index = {label: i for i, label in enumerate(labels)}
    return np.fromiter(map(index.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))


def _number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def _floats(cells) -> np.ndarray:
    """Cells as float64; a cell that does not parse reads nan."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:  # only a column holding a bad cell is parsed one guarded cell at a time
        return np.array([math.nan if v is None else v for v in map(_number, cells)], dtype=float)


def _weight_problem(cell: str) -> str:
    value = _number(cell)
    if value is None:
        return f"non-numeric weight {cell!r}"
    return f"weight must be {'finite' if value == math.inf else 'positive'}, got {cell}"


def _covariate_problem(name: str, cell: str) -> str:
    if cell == "":
        return f"missing value for covariate {name!r}"
    if _number(cell) is None:
        return f"non-numeric value {cell!r} for covariate {name!r}"
    return f"non-finite value {cell!r} for covariate {name!r}"


def _convert_block(
    starts, blank, counts, column_cells, header, covariate_names, outcome_set, periods, problems
) -> dict:
    """One tokenised block as Dataset columns; appends (line, message) per bad cell.

    A block, from either tokeniser, is the physical line each row starts on, a mask of
    blank rows (no cell holds anything), each row's cell count, and the cells of each
    column over the rows that are neither blank nor ragged. `periods` is the file-wide
    list of period labels the codes index; it grows as blocks bring new labels.
    """
    ragged = ~blank & (counts != len(header))
    problems.extend(
        (starts[i], f"expected {len(header)} cells, got {counts[i]}")
        for i in np.flatnonzero(ragged).tolist()
    )
    starts = list(compress(starts, ~blank & ~ragged))
    n = len(starts)
    cells = dict(zip(header, column_cells))
    columns = {dim: _codes(cells[dim], levels) for dim, levels in SEGMENT_LEVELS.items()}
    columns["y"] = _codes(cells["outcome"], outcome_set.labels)
    period = cells.get("period", ("",) * n)
    periods.extend(sorted(set(period) - set(periods) - {""}))
    columns["period"] = _codes(period, periods)
    weight = cells.get("weight", ("",) * n)
    given = np.fromiter(map(bool, weight), dtype=bool, count=n)
    columns["w"] = np.ones(n)
    columns["w"][given] = _floats(list(compress(weight, given)))
    columns["X"] = np.empty((n, len(covariate_names)))
    for j, name in enumerate(covariate_names):
        columns["X"][:, j] = _floats(cells[name])

    # (bad-cell mask, cells, message for a bad cell) in the order a line lists its problems
    checks = [
        (
            columns["y"] < 0,
            cells["outcome"],
            lambda cell: f"unknown outcome label {cell!r} (expected one of {outcome_set.labels})",
        ),
        *((columns[dim] < 0, cells[dim], partial(unknown_level, dim)) for dim in SEGMENT_LEVELS),
        (~((columns["w"] > 0) & np.isfinite(columns["w"])), weight, _weight_problem),
        *(
            (~np.isfinite(columns["X"][:, j]), cells[name], partial(_covariate_problem, name))
            for j, name in enumerate(covariate_names)
        ),
    ]
    for bad, column, message in checks:
        problems.extend((starts[i], message(column[i])) for i in np.flatnonzero(bad).tolist())
    return columns


def _format_column(values: np.ndarray) -> np.ndarray:
    """CSV cells of a float column: integral values as integers, the rest by repr."""
    # repr round-trips float64 exactly, preserving emit -> ingest identity
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e15)
    cells = np.empty(values.shape, dtype=object)
    cells[integral] = list(map(str, values[integral].astype(np.int64).tolist()))
    cells[~integral] = list(map(repr, values[~integral].tolist()))
    return cells


def _quoted(field: str) -> str:
    """A label as a CSV field, quoted if it holds a comma, a quote, LF or a bare CR."""
    if any(ch in field for ch in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def write_csv(dataset: Dataset, path, note: Optional[str] = None) -> None:
    """Emit a dataset in the ingestion schema; `note` becomes a '#' metadata line."""
    c = dataset.columns
    header = list(REQUIRED_COLUMNS)
    labels = [(dataset.outcome_set.labels, c["y"])]
    labels.extend((levels, c[dim]) for dim, levels in SEGMENT_LEVELS.items())
    if (c["period"] >= 0).any():
        header.append("period")
        labels.append((dataset.period_labels + ("",), c["period"]))
    numeric = [c["X"][:, j] for j in range(len(dataset.variable_names))]
    if (c["w"] != 1.0).any():
        header.append("weight")
        numeric.insert(0, c["w"])
    header.extend(dataset.variable_names)

    # blocks bound the cells held at once; csv.writer would leave a bare CR unquoted
    parts = [f"# {note}\n"] if note else []
    parts.append(",".join(map(_quoted, header)) + "\n")
    labels = [(np.asarray(list(map(_quoted, table)), dtype=object), codes) for table, codes in labels]
    for start in range(0, dataset.n_obs, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        cells = [table[codes[rows]] for table, codes in labels]
        cells.extend(_format_column(values[rows]) for values in numeric)
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    write_text_atomic(path, "".join(parts))


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory plus rename; OSError becomes ConfigError."""
    path, tmp = Path(path), None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({exc})") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_model_spec(path) -> ModelSpec:
    """Parse a model-spec JSON file: outcomes (base first) and terms."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelSpecError(f"{path}: not valid JSON ({exc})") from None
    return model_spec_from_dict(doc, source=str(path))


def model_spec_from_dict(doc: dict, source: str = "<inline>") -> ModelSpec:
    if not isinstance(doc, dict) or "outcomes" not in doc or "terms" not in doc:
        raise ModelSpecError(f"{source}: expected an object with 'outcomes' and 'terms'")
    if not isinstance(doc["outcomes"], list):
        raise ModelSpecError(f"{source}: 'outcomes' must be a list of labels, base first")
    try:
        outcome_set = OutcomeSet(tuple(str(lab) for lab in doc["outcomes"]))
    except ValueError as exc:
        raise ModelSpecError(f"{source}: {exc}") from None

    terms = []
    for i, raw in enumerate(doc["terms"]):
        listed = isinstance(raw, dict) and isinstance(raw.get("outcomes"), list)
        if not listed or "variable" not in raw:
            raise ModelSpecError(f"{source}: term {i} needs 'variable' and a list of 'outcomes'")
        outs = []
        for item in raw["outcomes"]:
            if isinstance(item, str):
                try:
                    outs.append(outcome_set.index_of(item))
                except KeyError as exc:
                    raise ModelSpecError(f"{source}: term {i}: {exc}") from None
            else:
                outs.append(item)
        terms.append(TermSpec(str(raw["variable"]), tuple(outs), raw.get("shared", False)))
    return ModelSpec(outcome_set, tuple(terms))


def model_spec_to_dict(model: ModelSpec) -> dict:
    return {
        "outcomes": list(model.outcome_set.labels),
        "terms": [
            {
                "variable": t.variable,
                "outcomes": [model.outcome_set.labels[i] for i in t.outcomes],
                "shared": t.shared,
            }
            for t in model.terms
        ],
    }


_DIST_PARSERS = {
    "constant": lambda d: ConstantDist(float(d["value"])),
    "uniform": lambda d: UniformDist(float(d["low"]), float(d["high"])),
    "categorical": lambda d: CategoricalDist(tuple(d["values"]), tuple(d["probs"])),
    "indicator": lambda d: IndicatorDist(float(d["p"])),
}


def _parse_distribution(name: str, raw: dict):
    if not isinstance(raw, dict) or "dist" not in raw:
        raise ConfigError(f"covariate {name!r}: expected an object with a 'dist' key")
    kind = raw["dist"]
    parser = _DIST_PARSERS.get(kind)
    if parser is None:
        raise ConfigError(
            f"covariate {name!r}: unknown distribution {kind!r} "
            f"(expected one of {sorted(_DIST_PARSERS)})"
        )
    try:
        return parser(raw)
    except KeyError as exc:
        raise ConfigError(f"covariate {name!r}: missing distribution parameter {exc}") from None


def _parse_theta(raw, model: ModelSpec) -> np.ndarray:
    """A {slot name: value} mapping or a list of values in slot order."""
    layout = build_layout(model)
    try:
        if isinstance(raw, dict):
            return ParameterVector.from_dict(layout, {k: float(v) for k, v in raw.items()}).values
        return ParameterVector([float(v) for v in raw], layout).values
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta: {exc} (slot order {list(layout.slot_names())})") from None


def load_generator_config(path) -> tuple[GeneratorConfig, Optional[str]]:
    """Parse a generator-config JSON file; returns the config and an optional period label."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")

    model_raw = doc.get("model")
    if isinstance(model_raw, str):
        model = load_model_spec(path.parent / model_raw)
    elif isinstance(model_raw, dict):
        model = model_spec_from_dict(model_raw, source=f"{path}#model")
    else:
        raise ConfigError(f"{path}: 'model' must be a spec object or a path to one")

    for key in ("theta", "n", "covariates"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")

    if not isinstance(doc["covariates"], dict):
        raise ConfigError(f"{path}: 'covariates' must be an object of name: distribution")
    covariates = {
        name: _parse_distribution(name, raw) for name, raw in doc["covariates"].items()
    }

    segments_raw = doc.get("segments", [])
    if not isinstance(segments_raw, list) or not all(isinstance(raw, dict) for raw in segments_raw):
        raise ConfigError(f"{path}: 'segments' must be a list of objects")
    segments = []
    for i, raw in enumerate(segments_raw):
        try:
            key = SegmentKey(
                road_class=raw.get("road_class", "other"),
                location=raw.get("location", "other"),
                accident_type=raw.get("accident_type", "other"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: segment {i}: {exc}") from None
        theta = _parse_theta(raw["theta"], model) if "theta" in raw else None
        segments.append(SegmentComponent(key, float(raw.get("weight", 1.0)), theta))

    config = GeneratorConfig(
        model=model,
        true_theta=_parse_theta(doc["theta"], model),
        n_obs=doc["n"],
        covariates=covariates,
        segments=tuple(segments),
        seed=doc.get("seed", 0),
    )
    period = doc.get("period")
    return config, (str(period) if period is not None else None)
