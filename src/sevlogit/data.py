"""Core record and dataset types: outcomes, observations, segments, partitioning, summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import SchemaError

ROAD_CLASSES = ("county-road", "city-street", "state-route", "us-route", "interstate", "other")
LOCATIONS = ("rural", "urban", "other")
ACCIDENT_TYPES = ("one-vehicle", "C+C", "C+LT", "LT+LT", "C/LT+C/LT", "C/LT+HT", "other")
SEGMENT_LEVELS = {"road_class": ROAD_CLASSES, "location": LOCATIONS, "accident_type": ACCIDENT_TYPES}
# the CSV's required and optional columns, then the model's intercept: never a covariate's name
RESERVED_NAMES = ("outcome", *SEGMENT_LEVELS, "period", "weight", "constant")
# dtypes of a Dataset's columns: X is (n, k), the others hold one entry per observation
COLUMNS = {
    "X": np.float64,
    "y": np.int64,
    "w": np.float64,
    **dict.fromkeys(SEGMENT_LEVELS, np.int8),
    "period": np.int32,
}

PARTITION_DIMS = ("road_class", "location", "accident_type", "period")

DEFAULT_OUTCOME_LABELS = ("property-damage-only", "injury", "fatality")


@dataclass(frozen=True)
class OutcomeSet:
    """Ordered severity outcomes. Index 0 is the base outcome (utility pinned to zero)."""

    labels: tuple[str, ...] = DEFAULT_OUTCOME_LABELS

    def __post_init__(self):
        if isinstance(self.labels, str):
            raise ValueError(f"outcome labels must be a sequence of strings, not {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not all(isinstance(lab, str) for lab in self.labels):
            raise ValueError(f"outcome labels must be strings, got {self.labels}")
        if len(self.labels) < 2:
            raise ValueError("an outcome set needs at least two outcomes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate outcome labels: {self.labels}")
        if any(not lab for lab in self.labels):
            raise ValueError("outcome labels must be non-empty")

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    @property
    def base_label(self) -> str:
        return self.labels[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None


@dataclass(frozen=True)
class SegmentKey:
    """Where and how the accident happened; all three fields are closed enumerations."""

    road_class: str = "other"
    location: str = "other"
    accident_type: str = "other"

    def __post_init__(self):
        for dim, levels in SEGMENT_LEVELS.items():
            if getattr(self, dim) not in levels:
                raise ValueError(unknown_level(dim, getattr(self, dim)))


def integral(value) -> Optional[int]:
    """value as an int if it is an integer or an integral float (2e5 is 200000), else None.

    bools, strings and fractional or non-finite numbers give None.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


def real(value) -> Optional[float]:
    """value as a float if it is a finite int, float or numpy real (not a bool), else None."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond float64
            return None
        return number if math.isfinite(number) else None
    return None


def checked_real(field: str, value, error=ValueError, non_finite=None) -> float:
    """``real(value)``, or `error` naming `field`; `non_finite`, if given, is raised instead
    for an inf or nan float. The number rule's one message."""
    number = real(value)
    if number is None:
        shown = value.item() if isinstance(value, np.generic) else value  # inf, not np.float64(inf)
        kind = non_finite if non_finite and isinstance(value, (float, np.floating)) else error
        raise kind(f"{field} must be a finite number, got {shown!r}")
    return number


def checked_count(field: str, value) -> int:
    """``integral(value)`` if it is at least 1, else ValueError naming `field`."""
    count = integral(value)
    if count is None or count < 1:
        kind = "" if count is not None else "an integer "
        raise ValueError(f"{field} must be {kind}>= 1, got {value!r}")
    return count


def checked_reals(field: str, values, error=ValueError) -> tuple[float, ...]:
    """Each entry of a list, tuple or array by ``checked_real``; anything else is refused."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise error(f"{field} must be a list of numbers, got {values!r}")
    return tuple(checked_real(f"{field} entry {i}", v, error) for i, v in enumerate(values))


def period_label(label) -> Optional[str]:
    """The period rule: a label is a non-empty string, or None for no period."""
    if isinstance(label, str) and not label:
        raise ValueError("period label must be non-empty (a CSV reads an empty cell as no period)")
    if label is None or isinstance(label, str):
        return label
    raise ValueError(f"period label must be a string or None, got {label!r}")


def unknown_level(dim: str, value: str) -> str:
    """Error text for a segment value outside its closed enumeration."""
    return f"unknown {dim} {value!r}; expected one of {SEGMENT_LEVELS[dim]}"


@dataclass(frozen=True)
class Observation:
    """One accident record: covariates, observed outcome index, segment, optional period."""

    covariates: Mapping[str, float]
    outcome: int
    segment: SegmentKey = SegmentKey()
    period: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self):
        outcome, weight = integral(self.outcome), real(self.weight)
        if outcome is None or outcome < 0:
            raise ValueError(f"outcome index must be a non-negative integer, got {self.outcome!r}")
        if weight is None or not weight > 0:
            raise ValueError(f"weight must be positive and finite, got {self.weight!r}")
        covariates = dict(self.covariates)
        for name, value in covariates.items():
            covariates[name] = checked_real(f"covariate {name!r}", value)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "period", period_label(self.period))


def _require(ok: np.ndarray, message) -> None:
    """Raise ValueError naming the first observation (row of `ok`) where `ok` is not all True."""
    if not ok.all():
        bad = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise ValueError(f"observation {bad}: {message(bad)}")


class Dataset:
    """Immutable accident table over a fixed outcome set and variable list, held as columns.

    ``columns`` maps each COLUMNS name to a read-only array with one entry per
    observation: ``X`` (n, k) covariates in ``variable_names`` order, ``y`` outcome
    indices, ``w`` weights, codes into ROAD_CLASSES, LOCATIONS and ACCIDENT_TYPES, and
    codes into ``period_labels`` (sorted, all in use) with -1 for no period. Producers
    call ``from_columns``; this constructor converts Observation rows. ``take`` and
    ``concatenate`` gather or join checked columns and do not check them again.
    """

    def __init__(self, outcome_set: OutcomeSet, observations, variable_names):
        rows, names = tuple(observations), tuple(variable_names)
        for idx, obs in enumerate(rows):
            if set(obs.covariates) != set(names):
                raise ValueError(
                    f"observation {idx}: covariates do not match declared variables "
                    f"(missing {sorted(set(names) - set(obs.covariates))}, "
                    f"unexpected {sorted(set(obs.covariates) - set(names))})"
                )
        x = np.array([[o.covariates[name] for name in names] for o in rows], dtype=np.float64)
        columns = {
            "X": x.reshape(len(rows), len(names)),
            "y": [o.outcome for o in rows],
            "w": [o.weight for o in rows],
            **{
                dim: [levels.index(getattr(o.segment, dim)) for o in rows]
                for dim, levels in SEGMENT_LEVELS.items()
            },
            "period": range(len(rows)),  # row i has label i of a table from_columns reduces
        }
        built = Dataset.from_columns(outcome_set, names, columns, [o.period for o in rows])
        self.__dict__.update(vars(built))

    @classmethod
    def from_columns(
        cls,
        outcome_set: OutcomeSet,
        variable_names: Sequence[str],
        columns: Mapping[str, np.ndarray],
        period_labels: Sequence[Optional[str]] = (),
    ) -> "Dataset":
        """The validating constructor: wraps the columns, uncopied and made read-only.

        ``columns`` maps every COLUMNS name to an array. Period labels may be unsorted,
        repeated, unused or None (no period); they are reduced to the sorted labels in
        use and the period codes remapped.
        """
        names, labels = tuple(variable_names), tuple(map(period_label, period_labels))
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if name in RESERVED_NAMES:
                raise ValueError(f"variable name {name!r} is reserved (reserved: {RESERVED_NAMES})")
        n = len(columns["y"])
        c = {
            key: np.asarray(columns[key], dtype=np.float64 if key in ("X", "w") else np.int64)
            for key in COLUMNS
        }
        if c["X"].shape != (n, len(names)) or {c[key].shape for key in c if key != "X"} != {(n,)}:
            raise ValueError(f"columns do not all hold {n} rows of {len(names)} covariates")
        for dim, levels in {**SEGMENT_LEVELS, "period": labels}.items():
            low = -1 if dim == "period" else 0
            _require(
                (c[dim] >= low) & (c[dim] < len(levels)),
                lambda i: f"{dim} code {c[dim][i]} out of range",
            )
        _require(
            np.isfinite(c["X"]),
            lambda i: f"covariates are not all finite: {dict(zip(names, c['X'][i].tolist()))}",
        )
        n_out = outcome_set.n_outcomes
        _require(
            (c["y"] >= 0) & (c["y"] < n_out),
            lambda i: f"outcome index {c['y'][i]} out of range for {n_out} outcomes",
        )
        _require(
            (c["w"] > 0) & np.isfinite(c["w"]),
            lambda i: f"weight must be positive and finite, got {c['w'][i]}",
        )

        return cls._wrap(outcome_set, names, c, labels)

    @classmethod
    def _wrap(cls, outcome_set, names, c, labels) -> "Dataset":
        """A dict of columns that passed ``from_columns``' checks, or were taken or joined from
        columns that did, as a Dataset: period labels reduced to those in use and their codes
        remapped, each column cast to its COLUMNS dtype (uncopied if it has it), read-only."""
        used = np.flatnonzero(np.bincount(c["period"] + 1, minlength=len(labels) + 1)[1:])
        kept = sorted({labels[i] for i in used} - {None})
        position = {label: j for j, label in enumerate(kept)}
        lookup = np.full(len(labels) + 1, -1)  # code -1 reads the last entry
        lookup[used] = [position.get(labels[i], -1) for i in used]
        c["period"] = lookup[c["period"]]
        for key, dtype in COLUMNS.items():
            c[key] = c[key].astype(dtype, copy=False)
            c[key].flags.writeable = False

        self = cls.__new__(cls)
        self.__dict__.update(
            outcome_set=outcome_set,
            variable_names=names,
            period_labels=tuple(kept),
            columns=c,
        )
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is read-only; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.outcome_set == other.outcome_set
            and self.variable_names == other.variable_names
            and self.period_labels == other.period_labels
            and all(np.array_equal(col, other.columns[key]) for key, col in self.columns.items())
        )

    @property
    def n_obs(self) -> int:
        return len(self.columns["y"])

    # A cached_property rather than a plain property: perfbench/tracing.py wraps it by that type.
    @cached_property
    def covariate_matrix(self) -> np.ndarray:
        """(n_obs, n_variables) float64 matrix in variable_names column order."""
        return self.columns["X"]

    @property
    def outcome_indices(self) -> np.ndarray:
        return self.columns["y"]

    @property
    def weights(self) -> np.ndarray:
        return self.columns["w"]

    def levels(self, dim: str) -> tuple:
        """Labels indexed by the codes of `dim`; a period code of -1 reads the trailing None."""
        return self.period_labels + (None,) if dim == "period" else SEGMENT_LEVELS[dim]

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """Per-row view of the columns, built on first use; kept for the public API and tests."""
        c = self.columns
        labels = [np.asarray(self.levels(d), dtype=object)[c[d]] for d in PARTITION_DIMS]
        return tuple(
            Observation(dict(zip(self.variable_names, x)), o, SegmentKey(rc, loc, at), period, w)
            for x, o, w, rc, loc, at, period in zip(
                c["X"].tolist(), c["y"].tolist(), c["w"].tolist(), *labels
            )
        )

    def outcome_counts(self) -> np.ndarray:
        return np.bincount(self.outcome_indices, minlength=self.outcome_set.n_outcomes)

    def take(self, rows) -> "Dataset":
        """Sub-dataset of the rows selected by an index array (in its order, repeats kept) or a
        boolean mask with one entry per row (in file order; another length is an IndexError)."""
        rows = np.asarray(rows)
        if rows.dtype == bool:  # one mask scan, then one gather per column
            if rows.shape != (self.n_obs,):
                raise IndexError(f"mask of shape {rows.shape} for {self.n_obs} observations")
            rows = np.flatnonzero(rows)
        columns = {key: col.take(rows, axis=0) for key, col in self.columns.items()}
        return Dataset._wrap(self.outcome_set, self.variable_names, columns, self.period_labels)

    def with_period(self, period: Optional[str]) -> "Dataset":
        """Copy of the dataset with every observation relabelled to the given period."""
        columns = dict(self.columns, period=np.zeros(self.n_obs, dtype=np.int64))
        return Dataset.from_columns(self.outcome_set, self.variable_names, columns, (period,))


def concatenate(datasets: Sequence[Dataset]) -> Dataset:
    """Pool datasets sharing an outcome set and variable list."""
    if not datasets:
        raise ValueError("nothing to concatenate")
    first = datasets[0]
    for ds in datasets[1:]:
        if ds.outcome_set != first.outcome_set:
            raise ValueError("outcome sets differ")
        if ds.variable_names != first.variable_names:
            raise ValueError("variable lists differ")
    columns = {key: np.concatenate([ds.columns[key] for ds in datasets]) for key in COLUMNS}
    # each dataset's period codes index its own slice of the joined label table
    offsets = np.cumsum([0, *(len(ds.period_labels) for ds in datasets)])
    columns["period"] = np.concatenate(
        [
            np.where(ds.columns["period"] < 0, -1, ds.columns["period"] + offset)
            for ds, offset in zip(datasets, offsets)
        ]
    )
    labels = [label for ds in datasets for label in ds.period_labels]
    return Dataset._wrap(first.outcome_set, first.variable_names, columns, labels)


def partition_dims(dims: Sequence[str]) -> tuple[str, ...]:
    """The dims rule: a non-empty subset of PARTITION_DIMS, returned in canonical order."""
    dims = tuple(dims)
    if not dims:
        raise ValueError("partition dims must be non-empty; name at least one dimension")
    bad = [d for d in dims if d not in PARTITION_DIMS]
    if bad:
        raise ValueError(f"unknown partition dims {bad}; expected subset of {PARTITION_DIMS}")
    return tuple(d for d in PARTITION_DIMS if d in dims)


def partition(dataset: Dataset, dims: Sequence[str]) -> dict[tuple, Dataset]:
    """Split a dataset by segment/period dimensions.

    Parameters
    ----------
    dataset : Dataset
    dims : subset of {"road_class", "location", "accident_type", "period"}

    Returns
    -------
    dict mapping a tuple of dimension values (in canonical PARTITION_DIMS order)
    to the sub-dataset of observations carrying those values, in file order.
    Sub-datasets are disjoint, cover the input, and preserve the outcome set and
    variable list. Keys are sorted by their label strings (a missing period, None,
    first) for deterministic iteration.
    """
    dims = partition_dims(dims)
    # each cell's rows, in file order: a stable sort by the mixed-radix key of the cell's codes
    # (a radix sort if the key fits in 16 bits), split where the key changes
    sizes = [len(dataset.levels(d)) for d in dims]
    codes = [dataset.columns[d] + (d == "period") for d in dims]  # period + 1 keeps -1 apart
    key = np.ravel_multi_index(codes, sizes).astype(np.min_scalar_type(math.prod(sizes) - 1))
    rows = np.argsort(key, kind="stable")
    cells = np.split(rows, np.flatnonzero(np.diff(key[rows])) + 1) if rows.size else []
    keys = [tuple(dataset.levels(d)[dataset.columns[d][cell[0]]] for d in dims) for cell in cells]
    order = sorted(
        range(len(keys)), key=lambda i: tuple("" if v is None else str(v) for v in keys[i])
    )
    return {keys[i]: dataset.take(cells[i]) for i in order}


@dataclass(frozen=True)
class SummaryBin:
    """One speed-limit band of a severity-distribution summary."""

    label: str
    lower: float  # -inf for the open bottom band
    upper: float  # +inf for the open top band
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def shares(self) -> Optional[tuple[float, ...]]:
        """Outcome shares within the band, or None for an empty band."""
        if self.total == 0:
            return None
        return tuple(c / self.total for c in self.counts)


@dataclass(frozen=True)
class SummaryTable:
    """Severity distribution by speed-limit band (rows: bands, columns: outcomes)."""

    outcome_labels: tuple[str, ...]
    variable: str
    bins: tuple[SummaryBin, ...]

    @property
    def total(self) -> int:
        return sum(b.total for b in self.bins)


def bin_edges(bins: Sequence[float]) -> list[float]:
    """The bins rule: non-empty, finite and strictly increasing interior edges."""
    edges = [float(b) for b in bins]
    if not edges:
        raise ValueError("bins must be non-empty")
    if not all(map(math.isfinite, edges)):
        raise ValueError(f"bin edges must be finite, got {edges}")
    if any(b >= c for b, c in zip(edges, edges[1:])):
        raise ValueError(f"bin edges must be strictly increasing, got {edges}")
    return edges


def _band_label(lower: float, upper: float) -> str:
    if lower == -math.inf:
        return f"<= {upper:g}"
    if upper == math.inf:
        return f"> {lower:g}"
    return f"({lower:g}, {upper:g}]"


def summarize(dataset: Dataset, bins: Sequence[float], variable: str = "speed_limit") -> SummaryTable:
    """Tabulate outcome shares by bands of a speed-limit-like variable.

    `bins` are strictly increasing interior edges; with m edges the table has
    m + 1 bands: (-inf, b0], (b0, b1], ..., (b_{m-1}, +inf), so every
    observation lands in exactly one band and band counts sum to the dataset size.
    """
    edges = bin_edges(bins)
    if variable not in dataset.variable_names:
        raise SchemaError(f"dataset has no {variable!r} variable")

    n_out = dataset.outcome_set.n_outcomes
    bounds = [-math.inf, *edges, math.inf]
    counts = np.zeros((len(bounds) - 1, n_out), dtype=np.int64)

    col = dataset.variable_names.index(variable)
    values = dataset.covariate_matrix[:, col]
    # side="left" against the interior edges yields the (a, b] band index
    band = np.searchsorted(np.asarray(edges), values, side="left")
    np.add.at(counts, (band, dataset.outcome_indices), 1)

    rows = tuple(
        SummaryBin(
            label=_band_label(bounds[i], bounds[i + 1]),
            lower=bounds[i],
            upper=bounds[i + 1],
            counts=tuple(int(c) for c in counts[i]),
        )
        for i in range(len(bounds) - 1)
    )
    return SummaryTable(dataset.outcome_set.labels, variable, rows)
