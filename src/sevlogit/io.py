"""File formats: accident CSV, model-spec JSON, generator-config JSON, atomic report writes.

CSV schema: UTF-8 (a leading byte-order mark is skipped), comma-separated, one
header row. Required columns are outcome, road_class, location, accident_type;
period and weight are optional; constant (the intercept's name) is refused; every
remaining column is a numeric covariate.
Outcome cells hold the outcome label, case-sensitively. Lines starting with '#' before the header are
metadata comments (emitted datasets record their RNG there) and are skipped.
The CLI keeps the columns of a clean ingest (store_key) and the converged fits it makes
on the CSV's data (fit_key) in one store beside the CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
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

from .data import (COLUMNS, RESERVED_NAMES, SEGMENT_LEVELS, Dataset, OutcomeSet, SegmentKey,
                   period_label, unknown_level)
from .errors import (ConfigError, IngestionError, ModelSpecError, NumericError, SchemaError,
                     SevlogitError)
from .estimate import EstimateOptions, EstimationResult
from .modelspec import CONSTANT, ModelSpec, ParameterVector, TermSpec, build_layout
from .simulate import (
    CategoricalDist,
    ConstantDist,
    GeneratorConfig,
    IndicatorDist,
    SegmentComponent,
    UniformDist,
)

REQUIRED_COLUMNS = RESERVED_NAMES[:4]  # outcome and the segment columns; period, weight optional
BLOCK_ROWS = 8192  # rows converted or formatted at once; bounds memory to one block of cells
LISTED_PROBLEMS = 100  # problems an ingest error spells out; the rest are counted


def ingest_csv(path, outcome_set: Optional[OutcomeSet] = None) -> Dataset:
    """Read an accident CSV into a Dataset, reporting every malformed line at once.

    Rows are tokenised (by str methods, by csv.reader from the first block that holds a '"'),
    converted and checked in one pass, BLOCK_ROWS at a time and a whole column at once: an
    unknown label codes -1 and a number that does not parse reads nan, so every bad cell is
    named from those masks, with the physical line its row starts on. The error's message
    spells out the first LISTED_PROBLEMS problems in line order and counts the rest; its
    `lines` holds the line of every problem. A file that is not UTF-8 is an IngestionError
    at the line of its first undecodable byte; one that cannot be read is a ConfigError.
    Every error names the file.
    """
    path = Path(path)
    with _reading(path):
        try:
            return _ingest(path, outcome_set or OutcomeSet())
        except UnicodeDecodeError:  # before _reading makes it a ConfigError
            raise _decode_error(path) from None


@contextmanager
def _reading(source, error: type = ConfigError):
    """The one rule that names an input's errors by `source`, for the block it wraps: an OSError
    becomes `error("cannot read SOURCE (…)")`, a SevlogitError keeps its type and fields (an
    IngestionError its lines) behind the prefix 'SOURCE: ', and a ValueError becomes
    `error("SOURCE: …")`. Nested blocks prefix from the outside in: 'gen.json: segment 0: …'."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot read {source} ({exc.strerror or exc})") from None
    except SevlogitError as exc:
        exc.args = (f"{source}: {exc}", *exc.args[1:])
        raise
    except ValueError as exc:
        raise error(f"{source}: {exc}") from None


def _ingest(path: Path, outcome_set: OutcomeSet) -> Dataset:
    # universal newlines: CRLF and a lone CR each end one line, as csv.reader counts them
    with path.open(encoding="utf-8-sig") as handle:
        head = [handle.readline()]  # comment lines, then the header
        while head[-1].startswith("#"):
            head.append(handle.readline())
        line, first = head[-1], len(head) + 1  # first: the physical line of the first row
        if not line:
            raise SchemaError("no header row found")
        try:  # strict: a quoted name that runs past the header's line is an error
            header = next(csv.reader([line], strict=True))
        except csv.Error as exc:
            raise SchemaError(f"line {len(head)}: {exc}", lines=[len(head)]) from None
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required column(s) {missing}")
        if len(set(header)) != len(header):
            raise SchemaError("duplicate column names in header")
        if CONSTANT in header:
            raise SchemaError(f"column {CONSTANT!r} is reserved for the model's intercept")
        covariate_names = tuple(name for name in header if name not in RESERVED_NAMES)

        blocks, periods, listed, bad_lines = [], [], [], []
        for block in _split_blocks(handle, path, first, len(header)):
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
            f"{len(bad_lines)} problem(s) while ingesting:\n" + "\n".join(listing),
            lines=bad_lines,
        )
    columns = {key: np.concatenate([block[key] for block in blocks]) for key in COLUMNS}
    return Dataset.from_columns(outcome_set, covariate_names, columns, periods)


def _decode_error(path) -> IngestionError:
    """The error of a CSV that is not UTF-8, at the physical line of its first undecodable byte.
    The file is read in universal newlines, as the tokenisers read it, with each such byte
    escaped; the first line holding one is decoded again for the byte and the reason."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line, text in enumerate(handle, 1):
            data = text.encode("utf-8", "surrogateescape")
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestionError(f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                                      f"({exc.reason})", lines=[line])
    return IngestionError("not UTF-8 text")  # it changed since it was read


def _split_blocks(handle, path: Path, first: int, width: int):
    """Blocks of the rows left in `handle`, split with str methods (no Python object per row)
    up to the first block that holds a '"'; csv.reader tokenises that block and the rest."""
    while True:
        block = list(islice(handle, BLOCK_ROWS))
        if '"' in "".join(block):  # the rows before it were one line each: a row starts here
            del block
            yield from _csv_blocks(path, first, width)
            return
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


def _csv_blocks(path: Path, first: int, width: int):
    """Blocks of csv.reader rows from physical line `first` on; a row the reader refuses is an
    error at the line it starts on."""
    # newline="": a line end inside a quoted field reaches csv.reader as the file holds it
    with path.open(newline="", encoding="utf-8-sig") as handle:
        # strict: a quote left open at the end of the file, or text after a closing quote, is an
        # error, not a field cut short or run on
        reader, line = csv.reader(islice(handle, first - 1, None), strict=True), first
        while True:
            rows, starts = [], []
            try:
                for row in islice(reader, BLOCK_ROWS):
                    rows.append(row)
                    starts.append(line)
                    line = first + reader.line_num  # a quoted field may span lines
            except csv.Error as exc:  # such as a field over csv.field_size_limit()
                raise IngestionError(f"line {line}: {exc}", lines=[line]) from None
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
    distinct, inverse = np.unique(values[integral].astype(np.int64), return_inverse=True)
    cells[integral] = np.array(list(map(str, distinct.tolist())), dtype=object)[inverse]
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
        labels.append((("",) + dataset.period_labels, c["period"] + 1))
    numeric = [c["X"][:, j] for j in range(len(dataset.variable_names))]
    if (c["w"] != 1.0).any():
        header.append("weight")
        numeric.insert(0, c["w"])
    header.extend(dataset.variable_names)

    # a row's label cells are one cell, joined once per label combination in a block and
    # found by the row's label codes; csv.writer would leave a bare CR unquoted
    sizes = [len(table) for table, _ in labels]
    labels = [(list(map(_quoted, table)), codes) for table, codes in labels]
    with _atomic(path) as handle:
        handle.write((f"# {note}\n" if note else "") + ",".join(map(_quoted, header)) + "\n")
        for start in range(0, dataset.n_obs, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            code = np.ravel_multi_index([codes[rows] for _, codes in labels], sizes)
            _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
            joined = [",".join(table[codes[start + i]] for table, codes in labels)
                      for i in first.tolist()]
            cells = [np.array(joined, dtype=object)[inverse]]
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
        # O_EXCL: a name that is taken fails, so tmp is never another's file
        name = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600 if private else 0o666)
        tmp = name
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


# A store, `.<name>.sevlogit.npz` beside a CSV, holds the columns of a clean ingest of it
# under store_key, so the CLI parses a file once across commands, and in its metadata the
# converged fits the CLI made on the CSV's data, each under its fit_key, oldest first. Anything
# wrong with one is a miss (TypeError: a plain .npy file, or metadata that is not an object, in
# its place; RecursionError: metadata nested too deeply to parse).
_STORE_ERRORS = (OSError, ValueError, KeyError, TypeError, RecursionError, zipfile.BadZipFile)
FIT_STORE_ENTRIES = 32  # fits a write keeps, or as many as the writing command used if more
READ_BYTES = 1 << 18  # the CSV bytes store_key reads and hashes at a time: 256 KiB


@lru_cache(maxsize=None)
def _code_digest() -> bytes:
    """Digest of the package's module sources, by name, once per process; OSError if none."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    if not sources:
        raise FileNotFoundError(f"no module sources beside {__file__}")
    return blake2b(b"".join(blake2b(p.read_bytes()).digest() for p in sources)).digest()


def _hash_array(root, array: np.ndarray) -> None:
    """Update `root` with an array's dtype, shape and bytes in C order."""
    root.update(f"{array.dtype.str}{array.shape}".encode())
    root.update(np.ascontiguousarray(array))


def store_path(path) -> Path:
    return Path(path).with_name(f".{Path(path).name}.sevlogit.npz")


def store_key(path, outcome_set: OutcomeSet) -> Optional[tuple]:
    """(digest of the outcome labels, the package's code and the CSV's bytes; the CSV's owner;
    its size and mtime when it was opened). None off POSIX (a store is trusted by owner and
    mode), if the CSV or the package's sources (a zip install has none) cannot be read, or if
    the CSV's length changes while it is hashed."""
    if os.name != "posix":
        return None
    try:
        digest = blake2b(_code_digest() + json.dumps(outcome_set.labels).encode())
        with open(path, "rb", buffering=0) as raw:
            status, buffer, read = os.fstat(raw.fileno()), memoryview(bytearray(READ_BYTES)), 0
            while n := raw.readinto(buffer):  # one buffer: RSS does not grow with the file
                digest.update(buffer[:n])
                read += n
    except OSError:
        return None
    if read != status.st_size:  # it was rewritten while it was hashed
        return None
    return digest.hexdigest(), status.st_uid, (status.st_size, status.st_mtime_ns)


def read_store(path, key: Optional[tuple], outcome_set: OutcomeSet) -> tuple:
    """(the dataset in a CSV's store if its columns match `key`, else None; the fit entries it
    holds by fit key, oldest first, whatever the columns' key). A store that is not a regular
    file owned by the CSV's owner, or that group or others may write, holds nothing."""
    if key is None:
        return None, {}
    digest, owner, _ = key
    try:
        with _trusted(store_path(path), owner) as handle:
            if handle is None:
                return None, {}
            with np.load(handle, allow_pickle=False) as archive:
                meta = json.loads(archive["meta"].tobytes())
                hit = meta["key"] == digest
                columns = {name: archive[name] for name in COLUMNS} if hit else None
        entries = meta.get("fits", ())  # a store of an older version holds none
        fits = {e["key"]: e for e in entries if isinstance(e, dict) and type(e.get("key")) is str}
        if not hit:
            return None, fits
        return Dataset.from_columns(outcome_set, meta["names"], columns, meta["periods"]), fits
    except _STORE_ERRORS:
        return None, {}


def write_store(path, key: Optional[tuple], dataset: Dataset, fits: list) -> None:
    """Store an ingested dataset and fit entries (oldest first) in its CSV's store by np.savez
    (every array is numeric: nothing is pickled), atomically and readable by this user only,
    if the CSV is this user's and its size and mtime are those in `key`."""
    if key is None:
        return
    digest, owner, stamp = key
    meta = json.dumps({"key": digest, "names": dataset.variable_names,
                       "periods": dataset.period_labels, "fits": fits}).encode()
    try:
        status = os.stat(path)
        if (status.st_size, status.st_mtime_ns) != stamp or owner != os.geteuid():
            return
        with _atomic(store_path(path), "wb", private=True) as handle:
            np.savez(handle, meta=np.frombuffer(meta, np.uint8), **dataset.columns)
    except (ConfigError, *_STORE_ERRORS):
        pass


_FIT_SCALARS = {"ll_converged": float, "ll_null": float, "ll_zero": float,
                "iterations": int, "gradient_max": float, "n_obs": int}


def fit_key(model: ModelSpec, dataset: Dataset, options: EstimateOptions,
            columns: Optional[str] = None) -> str:
    """Digest of all that `estimate` reads: the package's code, numpy's version and the
    machine (kernel bits repeat per machine only), the model, variable names and options, and
    X, y and w: their shape, dtype and bytes, or else `columns`, a digest that certifies them
    (the CLI passes its store key's for the dataset it loaded). Taken only for a CSV with a
    store_key."""
    head = [_code_digest().hex(), np.__version__, os.uname().machine,
            model_spec_to_dict(model), dataset.variable_names, asdict(options), columns]
    digest = blake2b(json.dumps(head).encode())
    if columns is None:
        for name in ("X", "y", "w"):
            _hash_array(digest, dataset.columns[name])
    return digest.hexdigest()


def _float_list(value, n: int) -> bool:
    return isinstance(value, list) and len(value) == n and all(type(v) is float for v in value)


def read_fit(entry: Optional[dict], model: ModelSpec,
             options: EstimateOptions) -> Optional[EstimationResult]:
    """The converged fit a stored entry holds, with the caller's `options`, or None. An entry
    whose arrays do not fit the model's layout, a value of the wrong type, or a stored NaN or
    Infinity in theta, covariance or t_ratios, is a miss (its key covers the variable names)."""
    if entry is None:
        return None
    layout = build_layout(model)
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


def fit_entry(key: str, result: EstimationResult) -> dict:
    """A converged fit as a store's entry under `key`."""
    return {
        "key": key,
        "theta": result.theta_hat.values.tolist(),
        "covariance": result.covariance.tolist(),
        "t_ratios": result.t_ratios.tolist(),
        **{k: getattr(result, k) for k in _FIT_SCALARS},
        "diagnostics": list(result.diagnostics),
    }


def _read_json(path: Path, error: type):
    """The JSON document in a file. One that cannot be read, is not UTF-8 or is not JSON (or is
    nested too deeply to parse) raises `error`, naming the file."""
    with _reading(path, error):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:  # before _reading takes it for a ValueError
            raise error(f"not UTF-8 text ({exc})") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise error(f"not valid JSON ({exc})") from None


def load_model_spec(path) -> ModelSpec:
    """Parse a model-spec JSON file: outcomes (base first) and terms. Every error names the file."""
    path = Path(path)
    doc = _read_json(path, ModelSpecError)
    with _reading(path, ModelSpecError):
        return model_spec_from_dict(doc)


def model_spec_from_dict(doc: dict) -> ModelSpec:
    """A model spec from its JSON document; an error names the term it is in, if any."""
    if not isinstance(doc, dict) or "outcomes" not in doc or "terms" not in doc:
        raise ModelSpecError("expected an object with 'outcomes' and 'terms'")
    if not isinstance(doc["outcomes"], list):
        raise ModelSpecError("'outcomes' must be a list of labels, base first")
    if not isinstance(doc["terms"], list):
        raise ModelSpecError("'terms' must be a list of term objects")
    try:
        outcome_set = OutcomeSet(doc["outcomes"])
    except ValueError as exc:
        raise ModelSpecError(str(exc)) from None

    terms = []
    for i, raw in enumerate(doc["terms"]):
        listed = isinstance(raw, dict) and isinstance(raw.get("outcomes"), list)
        if not listed or "variable" not in raw:
            raise ModelSpecError(f"term {i} needs 'variable' and a list of 'outcomes'")
        with _reading(f"term {i}", ModelSpecError):
            try:
                outs = [outcome_set.index_of(o) if isinstance(o, str) else o
                        for o in raw["outcomes"]]
            except KeyError as exc:
                raise ModelSpecError(str(exc)) from None
            terms.append(TermSpec(raw["variable"], tuple(outs), raw.get("shared", False)))
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


def _parse_distribution(raw: dict):
    if not isinstance(raw, dict) or "dist" not in raw:
        raise ConfigError("expected an object with a 'dist' key")
    kind = raw["dist"]
    dist = _DISTRIBUTIONS.get(kind) if isinstance(kind, str) else None
    if dist is None:
        raise ConfigError(
            f"unknown distribution {kind!r} (expected one of {sorted(_DISTRIBUTIONS)})"
        )
    try:
        return dist(*(raw[f.name] for f in fields(dist)))
    except KeyError as exc:
        raise ConfigError(f"missing distribution parameter {exc}") from None


def _parse_theta(raw, model: ModelSpec) -> ParameterVector:
    """A {slot name: value} mapping or a list of values in slot order."""
    layout = build_layout(model)
    try:
        if isinstance(raw, dict):
            return ParameterVector.from_dict(layout, raw)
        return ParameterVector(raw, layout)
    except (TypeError, ValueError, NumericError) as exc:
        raise ConfigError(f"theta: {exc} (slot order {list(layout.slot_names())})") from None


def generator_model_path(path) -> Optional[Path]:
    """The model spec a generator config names, against its directory; None if none or unread."""
    try:
        model = json.loads(Path(path).read_text(encoding="utf-8")).get("model")
    except (OSError, ValueError, AttributeError, RecursionError):  # AttributeError: not a dict
        return None
    return Path(path).parent / model if isinstance(model, str) else None


def load_generator_config(path) -> tuple[GeneratorConfig, Optional[str]]:
    """Parse a generator-config JSON file; returns the config and an optional period label.
    Every error names the file, and the field if it is in one. The model spec is an input of
    its own: one the config names by path is named by that path, an inline one 'PATH#model'."""
    path = Path(path)
    doc = _read_json(path, ConfigError)
    model_raw = doc.get("model") if isinstance(doc, dict) else None
    if isinstance(model_raw, str):
        model = load_model_spec(path.parent / model_raw)
    elif isinstance(model_raw, dict):
        with _reading(f"{path}#model", ModelSpecError):
            model = model_spec_from_dict(model_raw)

    with _reading(path):
        if not isinstance(doc, dict):
            raise ConfigError("expected a JSON object")
        if not isinstance(model_raw, (str, dict)):
            raise ConfigError("'model' must be a spec object or a path to one")
        for key in ("theta", "n", "covariates"):
            if key not in doc:
                raise ConfigError(f"missing required key {key!r}")

        if not isinstance(doc["covariates"], dict):
            raise ConfigError("'covariates' must be an object of name: distribution")
        covariates = {}
        for name, raw in doc["covariates"].items():
            with _reading(f"covariate {name!r}"):
                covariates[name] = _parse_distribution(raw)

        segments_raw = doc.get("segments", [])
        if not isinstance(segments_raw, list) or not all(isinstance(r, dict) for r in segments_raw):
            raise ConfigError("'segments' must be a list of objects")
        segments = []
        for i, raw in enumerate(segments_raw):
            with _reading(f"segment {i}"):
                key = SegmentKey(**{dim: raw.get(dim, "other") for dim in SEGMENT_LEVELS})
                theta = _parse_theta(raw["theta"], model) if "theta" in raw else None
                segments.append(SegmentComponent(key, raw.get("weight", 1.0), theta))

        config = GeneratorConfig(
            model=model,
            true_theta=_parse_theta(doc["theta"], model),
            n_obs=doc["n"],
            covariates=covariates,
            segments=tuple(segments),
            seed=doc.get("seed", 0),
        )
        return config, period_label(doc.get("period"))
