"""Declarative model specification: which variables enter which outcome utilities.

A term maps one variable (or the constant) onto a set of non-base outcomes,
either with one coefficient per outcome or a single shared coefficient. The
flat parameter vector is laid out content-addressed, so permuting terms never
changes slot assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, Union

import numpy as np

from .data import Observation, OutcomeSet, checked_real, integral
from .errors import ModelSpecError, NumericError, SchemaError

CONSTANT = "constant"

BASE_OUTCOME = 0  # utility of the base outcome is identically zero


@dataclass(frozen=True)
class TermSpec:
    """One variable entering the utility of one or more non-base outcomes."""

    variable: str
    outcomes: tuple[int, ...]
    shared: bool = False

    def __post_init__(self):
        if not (isinstance(self.variable, str) and self.variable):
            raise ModelSpecError(f"term variable must be a non-empty string, got {self.variable!r}")
        outcomes = [integral(out) for out in self.outcomes]
        if None in outcomes:
            raise ModelSpecError(
                f"term {self.variable!r}: outcomes must be integer indices, got {tuple(self.outcomes)}"
            )
        object.__setattr__(self, "outcomes", tuple(sorted(set(outcomes))))
        if not isinstance(self.shared, bool):
            raise ModelSpecError(
                f"term {self.variable!r}: shared must be true or false, got {self.shared!r}"
            )
        if not self.outcomes:
            raise ModelSpecError(f"term {self.variable!r} lists no outcomes")
        if BASE_OUTCOME in self.outcomes:
            raise ModelSpecError(
                f"term {self.variable!r} references the base outcome, whose utility is fixed at zero"
            )
        if self.shared and len(self.outcomes) < 2:
            raise ModelSpecError(
                f"shared term {self.variable!r} needs at least two outcomes, got {self.outcomes}"
            )


@dataclass(frozen=True)
class ModelSpec:
    """An outcome set plus the ordered list of utility terms."""

    outcome_set: OutcomeSet
    terms: tuple[TermSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        n_out = self.outcome_set.n_outcomes
        seen: set[tuple[str, int]] = set()
        for term in self.terms:
            if max(term.outcomes) >= n_out:
                raise ModelSpecError(
                    f"term {term.variable!r} references outcome {max(term.outcomes)}, "
                    f"but the outcome set has only {n_out} outcomes"
                )
            for out in term.outcomes:
                pair = (term.variable, out)
                if pair in seen:
                    raise ModelSpecError(
                        f"duplicate (variable, outcome) pair: {term.variable!r} on outcome {out}"
                    )
                seen.add(pair)
        if not self.terms:
            raise ModelSpecError("model spec needs at least one term")

    @property
    def n_params(self) -> int:
        return sum(1 if t.shared else len(t.outcomes) for t in self.terms)

    def variables(self) -> tuple[str, ...]:
        """Distinct non-constant variables, in first-appearance order."""
        seen = []
        for t in self.terms:
            if t.variable != CONSTANT and t.variable not in seen:
                seen.append(t.variable)
        return tuple(seen)


@dataclass(frozen=True)
class Slot:
    """One estimable coefficient: a variable bound to one or more outcomes."""

    variable: str
    outcomes: tuple[int, ...]
    shared: bool

    def name(self, outcome_set: OutcomeSet) -> str:
        labels = "+".join(outcome_set.labels[i] for i in self.outcomes)
        return f"{self.variable}:{labels}"


@dataclass(frozen=True)
class ParameterLayout:
    """Flat slot indices 0..n_params-1, with the slot of every (variable, outcome) pair."""

    outcome_set: OutcomeSet
    slots: tuple[Slot, ...]
    slot_of: Mapping[tuple[str, int], int] = field(repr=False)  # (variable, outcome) -> slot

    @property
    def n_params(self) -> int:
        return len(self.slots)

    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name(self.outcome_set) for s in self.slots)

    def slot_index(self, variable: str, outcome: int) -> int:
        try:
            return self.slot_of[(variable, outcome)]
        except KeyError:
            raise KeyError(f"no slot for variable {variable!r} on outcome {outcome}") from None


def build_layout(model: ModelSpec) -> ParameterLayout:
    """Derive the flat parameter layout for a model spec.

    Slot order is content-addressed: slots are sorted by (variable, outcome tuple),
    so two specs with the same terms in any order get identical layouts.
    """
    slots = sorted(
        (
            Slot(term.variable, outcomes, term.shared)
            for term in model.terms
            for outcomes in ((term.outcomes,) if term.shared else ((o,) for o in term.outcomes))
        ),
        key=lambda s: (s.variable, s.outcomes),
    )
    slot_of = {(s.variable, out): idx for idx, s in enumerate(slots) for out in s.outcomes}
    return ParameterLayout(model.outcome_set, tuple(slots), slot_of)


# a parameter value by data.real: ValueError if it is not a number, NumericError if not finite
_value = partial(checked_real, error=ValueError, non_finite=NumericError)


@dataclass(frozen=True)
class ParameterVector:
    """Flat coefficient values, each a finite real number, plus the layout mapping them to slots."""

    values: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        # entry by entry: np.asarray([True, "0.5"], dtype=float) gives floats
        values = np.array([_value(f"value {i}", v) for i, v in enumerate(self.values)])
        if values.shape != (self.layout.n_params,):
            raise ValueError(
                f"expected {self.layout.n_params} parameter values, got shape {values.shape}"
            )
        values.flags.writeable = False  # a read-only copy: the checks hold for good
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, layout: ParameterLayout) -> "ParameterVector":
        return cls(np.zeros(layout.n_params), layout)

    @classmethod
    def from_dict(cls, layout: ParameterLayout, values: Mapping[str, float]) -> "ParameterVector":
        """Build from a {slot name: value} mapping; every slot must be present."""
        names = layout.slot_names()
        missing = [n for n in names if n not in values]
        unknown = [n for n in values if n not in names]
        if missing or unknown:
            raise ValueError(f"parameter dict mismatch (missing {missing}, unknown {unknown})")
        return cls(np.array([_value(f"value of {n!r}", values[n]) for n in names]), layout)


ThetaLike = Union[ParameterVector, np.ndarray, Iterable[float]]


def _theta_values(theta: ThetaLike, layout: ParameterLayout) -> np.ndarray:
    if isinstance(theta, ParameterVector):
        if theta.layout.slots != layout.slots:
            raise ValueError("parameter vector layout does not match this model")
        return theta.values
    return ParameterVector(theta, layout).values


def utility(model: ModelSpec, theta: ThetaLike, obs: Observation, outcome: int) -> float:
    """Deterministic utility of one outcome for one observation.

    Sums coefficient x value over the bound design's entries on that outcome, the
    constant's value being 1; the base outcome has no entries and returns exactly 0.
    """
    if outcome >= model.outcome_set.n_outcomes:
        raise ValueError(f"outcome index {outcome} out of range")
    design = bind_design(model, tuple(obs.covariates))
    values = _theta_values(theta, design.layout)
    x = np.array([*obs.covariates.values(), 1.0])
    on = design.entry_outcome == outcome
    return float(values[design.entry_slot[on]] @ x[design.entry_col[on]])


@dataclass(frozen=True)
class Design:
    """Model spec bound to a dataset's variable order, flattened for the kernels.

    Each entry is one (slot, outcome, column) triple; shared coefficients
    produce several entries pointing at the same slot. Column ``n_variables``
    of the kernel covariate matrix is the implicit constant-1 column.
    """

    layout: ParameterLayout
    entry_slot: np.ndarray  # int64 (n_entries,)
    entry_outcome: np.ndarray  # int64 (n_entries,)
    entry_col: np.ndarray  # int64 (n_entries,) column in the augmented matrix

    @property
    def n_params(self) -> int:
        return self.layout.n_params

    @property
    def n_outcomes(self) -> int:
        return self.layout.outcome_set.n_outcomes


def bind_design(model: ModelSpec, variable_names: tuple[str, ...]) -> Design:
    """Resolve a model's terms against a dataset's variable columns, in term order."""
    layout = build_layout(model)
    col_of = {name: i for i, name in enumerate(variable_names)}
    col_of[CONSTANT] = len(variable_names)
    slots, outs, cols = [], [], []
    for term in model.terms:
        if term.variable not in col_of:
            raise SchemaError(
                f"model variable {term.variable!r} is not in the dataset "
                f"(available: {sorted(variable_names)})"
            )
        for out in term.outcomes:
            slots.append(layout.slot_of[(term.variable, out)])
            outs.append(out)
            cols.append(col_of[term.variable])
    return Design(
        layout,
        np.asarray(slots, dtype=np.int64),
        np.asarray(outs, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
    )


def augmented_matrix(x: np.ndarray) -> np.ndarray:
    """Column-major covariate matrix with a trailing constant-1 column, as the kernels expect."""
    out = np.empty((x.shape[0], x.shape[1] + 1), order="F")
    out[:, :-1] = x
    out[:, -1] = 1.0
    return out
