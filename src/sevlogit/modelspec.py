"""Declarative model specification: which variables enter which outcome utilities.

A term maps one variable (or the constant) onto a set of non-base outcomes,
either with one coefficient per outcome or a single shared coefficient. The
flat parameter vector is laid out content-addressed, so permuting terms never
changes slot assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

from .data import Observation, OutcomeSet
from .errors import ModelSpecError, SchemaError

CONSTANT = "constant"

BASE_OUTCOME = 0  # utility of the base outcome is identically zero


@dataclass(frozen=True)
class TermSpec:
    """One variable entering the utility of one or more non-base outcomes."""

    variable: str
    outcomes: tuple[int, ...]
    shared: bool = False

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(sorted(set(self.outcomes))))
        if not self.variable:
            raise ModelSpecError("term variable name must be non-empty")
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
    """Bijection between (term, outcome) pairs and flat slot indices 0..n_params-1."""

    outcome_set: OutcomeSet
    slots: tuple[Slot, ...]
    slot_of: Mapping[tuple[int, int], int] = field(repr=False)  # (term index, outcome) -> slot

    @property
    def n_params(self) -> int:
        return len(self.slots)

    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name(self.outcome_set) for s in self.slots)

    def slot_index(self, variable: str, outcome: int) -> int:
        for i, slot in enumerate(self.slots):
            if slot.variable == variable and outcome in slot.outcomes:
                return i
        raise KeyError(f"no slot for variable {variable!r} on outcome {outcome}")


def build_layout(model: ModelSpec) -> ParameterLayout:
    """Derive the flat parameter layout for a model spec.

    Slot order is content-addressed: keys (variable, outcome tuple) are sorted,
    so two specs with the same terms in any order get identical layouts.
    """
    keyed: dict[tuple[str, tuple[int, ...]], Slot] = {}
    owners: dict[tuple[str, tuple[int, ...]], list[tuple[int, int]]] = {}
    for t_idx, term in enumerate(model.terms):
        if term.shared:
            key = (term.variable, term.outcomes)
            keyed[key] = Slot(term.variable, term.outcomes, True)
            owners.setdefault(key, []).extend((t_idx, out) for out in term.outcomes)
        else:
            for out in term.outcomes:
                key = (term.variable, (out,))
                keyed[key] = Slot(term.variable, (out,), False)
                owners.setdefault(key, []).append((t_idx, out))

    ordered_keys = sorted(keyed)
    slots = tuple(keyed[k] for k in ordered_keys)
    slot_of = {
        pair: idx for idx, key in enumerate(ordered_keys) for pair in owners[key]
    }
    return ParameterLayout(model.outcome_set, slots, slot_of)


@dataclass(frozen=True)
class ParameterVector:
    """Flat coefficient values plus the layout mapping terms to slots."""

    values: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.layout.n_params,):
            raise ValueError(
                f"expected {self.layout.n_params} parameter values, got shape {values.shape}"
            )
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
        return cls(np.array([values[n] for n in names], dtype=np.float64), layout)


ThetaLike = Union[ParameterVector, np.ndarray, Iterable[float]]


def _theta_values(theta: ThetaLike, layout: ParameterLayout) -> np.ndarray:
    if isinstance(theta, ParameterVector):
        if theta.layout.slots != layout.slots:
            raise ValueError("parameter vector layout does not match this model")
        return theta.values
    values = np.asarray(theta, dtype=np.float64)
    if values.shape != (layout.n_params,):
        raise ValueError(f"expected {layout.n_params} parameter values, got shape {values.shape}")
    return values


def utility(
    model: ModelSpec,
    theta: ThetaLike,
    obs: Observation,
    outcome: int,
    layout: ParameterLayout | None = None,
) -> float:
    """Deterministic utility of one outcome for one observation.

    The base outcome returns exactly 0. Other outcomes sum coefficient x value
    over the terms touching them; the constant contributes its coefficient.
    """
    if outcome >= model.outcome_set.n_outcomes:
        raise ValueError(f"outcome index {outcome} out of range")
    if outcome == BASE_OUTCOME:
        return 0.0
    layout = layout or build_layout(model)
    values = _theta_values(theta, layout)
    total = 0.0
    for t_idx, term in enumerate(model.terms):
        if outcome not in term.outcomes:
            continue
        if term.variable == CONSTANT:
            x = 1.0
        else:
            try:
                x = obs.covariates[term.variable]
            except KeyError:
                raise SchemaError(
                    f"observation is missing covariate {term.variable!r}"
                ) from None
        total += values[layout.slot_of[(t_idx, outcome)]] * x
    return total


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
    """Resolve a model's terms against a dataset's variable columns."""
    layout = build_layout(model)
    col_of = {name: i for i, name in enumerate(variable_names)}
    const_col = len(variable_names)
    slots, outs, cols = [], [], []
    for t_idx, term in enumerate(model.terms):
        if term.variable == CONSTANT:
            col = const_col
        else:
            try:
                col = col_of[term.variable]
            except KeyError:
                raise SchemaError(
                    f"model variable {term.variable!r} is not in the dataset "
                    f"(available: {sorted(variable_names)})"
                ) from None
        for out in term.outcomes:
            slots.append(layout.slot_of[(t_idx, out)])
            outs.append(out)
            cols.append(col)
    return Design(
        layout,
        np.asarray(slots, dtype=np.int64),
        np.asarray(outs, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
    )


def augmented_matrix(x: np.ndarray) -> np.ndarray:
    """Covariate matrix with a trailing constant-1 column, as the kernels expect."""
    out = np.empty((x.shape[0], x.shape[1] + 1))
    out[:, :-1] = x
    out[:, -1] = 1.0
    return out
