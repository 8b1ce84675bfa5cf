"""File formats: accident CSV, model-spec JSON, generator-config JSON, atomic report writes.

CSV schema: UTF-8 (a leading byte-order mark is skipped), comma-separated, one
header row. Required columns are outcome, road_class, location, accident_type;
period and weight are optional; every remaining column is a numeric covariate.
Outcome cells hold the outcome label, case-sensitively. Lines starting with '#' before the header are
metadata comments (emitted datasets record their RNG there) and are skipped.
The CLI keeps the columns of a clean ingest in a sidecar beside the CSV (sidecar_key),
and the converged fits it makes on the CSV's data in a fit store beside it (fit_key).
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import lru_cache, partial
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional

try:  # as the random module does: hashlib loads OpenSSL (3.5 MB of RSS); its blake2b is this one
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

import numpy as np

from .data import (COLUMNS, SEGMENT_LEVELS, Dataset, OutcomeSet, SegmentKey, period_label,
                   unknown_level)
from .errors import ConfigError, IngestionError, ModelSpecError, NumericError, SchemaError
from .estimate import EstimateOptions, EstimationResult
from .modelspec import ModelSpec, ParameterVector, TermSpec, bind_design, build_layout
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
    columns["period"] = np.full(n, -1, dtype=np.int64)  # an absent column: no period, weight 1
    if "period" in cells:
        periods.extend(sorted(set(cells["period"]) - set(periods) - {""}))
        columns["period"] = _codes(cells["period"], periods)
    columns["w"], weight = np.ones(n), cells.get("weight", ())
    if weight:
        given = np.fromiter(map(bool, weight), dtype=bool, count=n)
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

    # blocks are written as they are formatted; csv.writer would leave a bare CR unquoted
    labels = [(np.asarray(list(map(_quoted, table)), dtype=object), codes) for table, codes in labels]
    with _atomic(path) as handle:
        handle.write((f"# {note}\n" if note else "") + ",".join(map(_quoted, header)) + "\n")
        for start in range(0, dataset.n_obs, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            cells = [table[codes[rows]] for table, codes in labels]
            cells.extend(_format_column(values[rows]) for values in numeric)
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the target directory plus rename; OSError becomes ConfigError."""
    with _atomic(path) as handle:
        handle.write(text)


@contextmanager
def _atomic(path, mode: str = "w", private: bool = False):
    """A handle on a temp file in the target's directory, renamed onto the target when the
    block ends; an OSError becomes ConfigError, and the temp file never outlives the block.
    The file gets the mode open(path, "w") gives a new file (0o666 less the umask), or 0o600
    if `private`."""
    path, tmp = Path(path), None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if private:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        else:  # O_EXCL: a name that is taken fails, so tmp is never another's file
            name = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            fd, tmp = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({exc})") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


@contextmanager
def _trusted(path, owner: int):
    """A binary handle on `path`, or None unless it is a regular file of `owner` that group
    and others cannot write. A symlink is not followed; a file that cannot be opened raises
    OSError."""
    nofollow = lambda name, flags: os.open(name, flags | os.O_NOFOLLOW | os.O_NONBLOCK)
    with open(path, "rb", opener=nofollow) as handle:  # the handle owns the fd from the start
        status = os.fstat(handle.fileno())
        mode_ok = stat.S_ISREG(status.st_mode) and not status.st_mode & 0o022
        yield handle if mode_ok and status.st_uid == owner else None


# A column sidecar, `.<name>.sevlogit.npz` beside a CSV, holds the columns of a clean ingest
# of it, so the CLI parses a file once across commands. Anything wrong with one is a miss
# (TypeError: a plain .npy file, or metadata that is not an object, in its place).
_SIDECAR_ERRORS = (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile)


def _beside(path, suffix: str) -> Path:
    """The hidden file `.<name><suffix>` beside the CSV at `path`."""
    return Path(path).with_name(f".{Path(path).name}{suffix}")


@lru_cache(maxsize=None)
def _code_digest(*names: str) -> bytes:
    """Digest of the sources of this package's modules `names`, read once per process."""
    return blake2b(b"".join(Path(__file__).with_name(name).read_bytes() for name in names)).digest()


def _ingest_code_digest() -> bytes:
    """The ingest rules' sources: changing a rule invalidates old sidecars."""
    return _code_digest("io.py", "data.py")


def sidecar_key(path, outcome_set: OutcomeSet) -> Optional[tuple]:
    """(digest of the CSV's bytes, outcome labels and ingest code; the CSV's owner; its size
    and mtime), read in one pass. None if the CSV cannot be read or the system is not POSIX
    (a sidecar is trusted by its owner and mode)."""
    if os.name != "posix":
        return None
    try:
        digest = blake2b(_ingest_code_digest() + json.dumps(outcome_set.labels).encode())
        with open(path, "rb") as raw:
            status = os.fstat(raw.fileno())
            for chunk in iter(partial(raw.read, 1 << 20), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest(), status.st_uid, (status.st_size, status.st_mtime_ns)


def read_sidecar(path, key: Optional[tuple], outcome_set: OutcomeSet) -> Optional[Dataset]:
    """The dataset in a CSV's sidecar if it matches `key`, else None. A sidecar that is not a
    regular file owned by the CSV's owner, or that group or others may write, is ignored."""
    if key is None:
        return None
    digest, owner, _ = key
    try:
        with _trusted(_beside(path, ".sevlogit.npz"), owner) as handle:
            if handle is None:
                return None
            with np.load(handle, allow_pickle=False) as archive:
                meta = json.loads(archive["meta"].tobytes())
                if meta["key"] != digest:
                    return None
                columns = {name: archive[name] for name in COLUMNS}
        return Dataset.from_columns(outcome_set, meta["names"], columns, meta["periods"])
    except _SIDECAR_ERRORS:
        return None


def write_sidecar(path, key: Optional[tuple], dataset: Dataset) -> None:
    """Store an ingested dataset in its CSV's sidecar, atomically and without copying an
    array, if the CSV is this user's and its size and mtime are those in `key`."""
    if key is None:
        return
    digest, owner, stamp = key
    meta = {"key": digest, "names": dataset.variable_names, "periods": dataset.period_labels}
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), np.uint8), **dataset.columns}
    try:
        status = os.stat(path)
        if (status.st_size, status.st_mtime_ns) != stamp or owner != os.geteuid():
            return
        sidecar = _atomic(_beside(path, ".sevlogit.npz"), "wb", private=True)
        with sidecar as handle, zipfile.ZipFile(handle, "w") as archive:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    header = np.lib.format.header_data_from_array_1_0(array)
                    np.lib.format.write_array_header_1_0(member, header)
                    member.write(array)  # through the buffer protocol, not a bytes copy
    except (ConfigError, *_SIDECAR_ERRORS):
        pass


# A fit store, `.<name>.sevlogit-fits.json` beside a CSV, holds the newest FIT_STORE_ENTRIES
# converged fits the CLI made on the CSV's data, each under its fit_key, oldest first. It is
# trusted as a sidecar is; anything wrong with it or with an entry is a miss.
FIT_STORE_ENTRIES = 32
_FIT_SCALARS = {"ll_converged": float, "ll_null": float, "ll_zero": float,
                "iterations": int, "gradient_max": float, "n_obs": int}


def _fit_code_digest() -> bytes:
    """The fit's sources: changing the fit invalidates stored fits."""
    return _code_digest("estimate.py", "_kernels.py", "likelihood.py", "modelspec.py", "data.py")


def fit_key(model: ModelSpec, dataset: Dataset, options: EstimateOptions) -> Optional[str]:
    """Digest of all that `estimate` reads: the fit code, numpy's version and the machine
    (kernel bits repeat per machine only), the model, variable names and options, and the
    shape, dtype and bytes of X, y and w. None if the system is not POSIX."""
    if os.name != "posix":
        return None
    head = [_fit_code_digest().hex(), np.__version__, os.uname().machine,
            model_spec_to_dict(model), dataset.variable_names, asdict(options)]
    digest = blake2b(json.dumps(head).encode())
    for array in (dataset.columns[name] for name in ("X", "y", "w")):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        for start in range(0, len(array), BLOCK_ROWS):  # row blocks: no copy of a C-order array
            digest.update(np.ascontiguousarray(array[start : start + BLOCK_ROWS]))
    return digest.hexdigest()


def _fit_entries(path) -> list:
    """The keyed entries of the fit store beside a CSV; none if it is absent or untrusted."""
    try:
        with _trusted(_beside(path, ".sevlogit-fits.json"), os.stat(path).st_uid) as handle:
            doc = json.load(handle) if handle else []
    except (OSError, ValueError, RecursionError):
        return []
    if not isinstance(doc, list):
        return []
    return [e for e in doc if isinstance(e, dict) and isinstance(e.get("key"), str)]


def _float_list(value, n: int) -> bool:
    return isinstance(value, list) and len(value) == n and all(type(v) is float for v in value)


def read_fit(
    path, key: Optional[str], model: ModelSpec, variable_names, options: EstimateOptions
) -> Optional[EstimationResult]:
    """The converged fit stored under `key` beside a CSV, with the caller's `options`, or
    None. An entry whose arrays do not fit the model's layout, a value of the wrong type, or
    a stored NaN or Infinity in theta, covariance or t_ratios, is a miss."""
    entry = next((e for e in _fit_entries(path) if e["key"] == key), None) if key else None
    if entry is None:
        return None
    layout = bind_design(model, variable_names).layout
    n, covariance, notes = layout.n_params, entry.get("covariance"), entry.get("diagnostics")
    if not (
        isinstance(covariance, list) and len(covariance) == n
        and all(_float_list(v, n) for v in (entry.get("theta"), entry.get("t_ratios"), *covariance))
        and all(type(entry.get(k)) is kind for k, kind in _FIT_SCALARS.items())
        and isinstance(notes, list) and all(type(note) is str for note in notes)
    ):
        return None
    arrays = {k: np.array(entry[k]) for k in ("theta", "covariance", "t_ratios")}
    if not all(np.isfinite(a).all() for a in arrays.values()):
        return None
    return EstimationResult(
        ParameterVector(arrays.pop("theta"), layout),
        **arrays,
        **{k: entry[k] for k in _FIT_SCALARS},
        converged=True, diagnostics=tuple(notes), options=options,
    )


def write_fit(path, key: Optional[str], result: EstimationResult) -> None:
    """Add a converged fit under `key` to the store beside a CSV this user owns, atomically
    and readable by this user only; a store that cannot be written is left as it is."""
    if key is None or not result.converged:
        return
    entry = {
        "key": key,
        "theta": result.theta_hat.values.tolist(),
        "covariance": result.covariance.tolist(),
        "t_ratios": result.t_ratios.tolist(),
        **{k: getattr(result, k) for k in _FIT_SCALARS},
        "diagnostics": list(result.diagnostics),
    }
    try:
        if os.stat(path).st_uid != os.geteuid():
            return
        entries = [e for e in _fit_entries(path) if e["key"] != key] + [entry]
        with _atomic(_beside(path, ".sevlogit-fits.json"), private=True) as handle:
            json.dump(entries[-FIT_STORE_ENTRIES:], handle)
    except (ConfigError, OSError):
        pass


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
        outcome_set = OutcomeSet(doc["outcomes"])
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
        try:
            terms.append(TermSpec(raw["variable"], tuple(outs), raw.get("shared", False)))
        except ModelSpecError as exc:
            raise ModelSpecError(f"{source}: term {i}: {exc}") from None
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


_DISTRIBUTIONS = {  # each takes its fields' values as the JSON object's keys of those names
    "constant": ConstantDist,
    "uniform": UniformDist,
    "categorical": CategoricalDist,
    "indicator": IndicatorDist,
}


def _parse_distribution(name: str, raw: dict):
    if not isinstance(raw, dict) or "dist" not in raw:
        raise ConfigError(f"covariate {name!r}: expected an object with a 'dist' key")
    kind = raw["dist"]
    dist = _DISTRIBUTIONS.get(kind)
    if dist is None:
        raise ConfigError(
            f"covariate {name!r}: unknown distribution {kind!r} "
            f"(expected one of {sorted(_DISTRIBUTIONS)})"
        )
    try:
        return dist(*(raw[f.name] for f in fields(dist)))
    except KeyError as exc:
        raise ConfigError(f"covariate {name!r}: missing distribution parameter {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"covariate {name!r}: {exc}") from None


def _parse_theta(raw, model: ModelSpec) -> ParameterVector:
    """A {slot name: value} mapping or a list of values in slot order."""
    layout = build_layout(model)
    try:
        if isinstance(raw, dict):
            return ParameterVector.from_dict(layout, raw)
        return ParameterVector(raw, layout)
    except (TypeError, ValueError, NumericError) as exc:
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
            key = SegmentKey(**{dim: raw.get(dim, "other") for dim in SEGMENT_LEVELS})
            theta = _parse_theta(raw["theta"], model) if "theta" in raw else None
            segments.append(SegmentComponent(key, raw.get("weight", 1.0), theta))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: segment {i}: {exc}") from None

    config = GeneratorConfig(
        model=model,
        true_theta=_parse_theta(doc["theta"], model),
        n_obs=doc["n"],
        covariates=covariates,
        segments=tuple(segments),
        seed=doc.get("seed", 0),
    )
    try:
        return config, period_label(doc.get("period"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
