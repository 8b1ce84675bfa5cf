"""Synthetic datasets from a known MNL data-generating process.

Ground-truth oracle for parameter recovery and test calibration. Generation
is driven by numpy's PCG64 generator, seeded explicitly; identical configs
and seeds give bit-identical datasets. Outcomes are drawn by inverse CDF
over the probability vector in outcome-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .data import SEGMENT_LEVELS, Dataset, SegmentKey, checked_real, checked_reals, integral
from .errors import ConfigError, NumericError
from .modelspec import (ModelSpec, ParameterVector, ThetaLike, _theta_values, augmented_matrix,
                        bind_design, build_layout)
from .likelihood import _probabilities

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class ConstantDist:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", checked_real("'value'", self.value, ConfigError))


@dataclass(frozen=True)
class UniformDist:
    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", checked_real("'low'", self.low, ConfigError))
        object.__setattr__(self, "high", checked_real("'high'", self.high, ConfigError))
        if not self.low < self.high:
            raise ConfigError(f"uniform bounds must satisfy low < high, got ({self.low}, {self.high})")
        if not math.isfinite(self.high - self.low):  # numpy's draw needs a finite range
            raise ConfigError(f"uniform range high - low must be finite, got ({self.low}, {self.high})")


@dataclass(frozen=True)
class CategoricalDist:
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", checked_reals("'values'", self.values, ConfigError))
        object.__setattr__(self, "probs", checked_reals("'probs'", self.probs, ConfigError))
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigError("categorical needs matching, non-empty values and probs")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigError(f"categorical probs must be non-negative and sum to 1, got {self.probs}")


@dataclass(frozen=True)
class IndicatorDist:
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", checked_real("'p'", self.p, ConfigError))
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"indicator probability must be in [0, 1], got {self.p}")


_DISTRIBUTION_TYPES = (ConstantDist, UniformDist, CategoricalDist, IndicatorDist)
Distribution = Union[_DISTRIBUTION_TYPES]


def generator_seed(seed: int) -> int:
    """The seed rule: a non-negative integer, as PCG64 seeding needs; see ``integral``."""
    value = integral(seed)
    if value is None or value < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return value


@dataclass(frozen=True)
class SegmentComponent:
    """One mixture component: a segment key, its weight, optionally its own theta (a
    ParameterVector is kept as it is: its own type has checked it)."""

    segment: SegmentKey
    weight: float
    theta: Optional[ThetaLike] = None

    def __post_init__(self):
        if self.theta is not None and not isinstance(self.theta, ParameterVector):
            theta = checked_reals("'theta'", self.theta, ConfigError)
            object.__setattr__(self, "theta", np.array(theta))
        object.__setattr__(self, "weight", checked_real("'weight'", self.weight, ConfigError))
        if not self.weight > 0:
            raise ConfigError(f"segment weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class GeneratorConfig:
    model: ModelSpec
    true_theta: ThetaLike
    n_obs: int
    covariates: Mapping[str, Distribution]
    segments: tuple[SegmentComponent, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.covariates, Mapping):
            raise ConfigError(f"covariates must map names to distributions, got {self.covariates!r}")
        object.__setattr__(self, "covariates", dict(self.covariates))
        object.__setattr__(self, "segments", tuple(self.segments))
        if not all(isinstance(c, SegmentComponent) for c in self.segments):
            raise ConfigError(f"segments must be SegmentComponent objects, got {self.segments!r}")
        n_obs = integral(self.n_obs)
        if n_obs is None or n_obs < 1:
            raise ConfigError(f"n_obs (config key 'n') must be an integer >= 1, got {self.n_obs!r}")
        object.__setattr__(self, "n_obs", n_obs)
        object.__setattr__(self, "seed", generator_seed(self.seed))
        missing = [v for v in self.model.variables() if v not in self.covariates]
        if missing:
            raise ConfigError(f"no covariate distribution for model variables {missing}")
        if self.segments:
            total = sum(c.weight for c in self.segments)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"segment weights must sum to 1, got {total}")
        for name, dist in self.covariates.items():
            if not isinstance(dist, _DISTRIBUTION_TYPES):
                raise ConfigError(f"covariate {name!r}: expected a distribution, got {dist!r}")
        layout = build_layout(self.model)
        thetas = {"true_theta (config key 'theta')": self.true_theta}
        thetas.update((f"segment {i}: theta", c.theta)
                      for i, c in enumerate(self.segments) if c.theta is not None)
        for field, theta in thetas.items():
            try:
                _theta_values(theta, layout)
            except (TypeError, ValueError, NumericError) as exc:
                raise ConfigError(f"{field}: {exc}") from None


def _draw_column(dist: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, ConstantDist):
        return np.full(n, dist.value)
    if isinstance(dist, UniformDist):
        return rng.uniform(dist.low, dist.high, size=n)
    if isinstance(dist, CategoricalDist):
        idx = rng.choice(len(dist.values), size=n, p=np.asarray(dist.probs))
        return np.asarray(dist.values)[idx]
    return (rng.random(n) < dist.p).astype(np.float64)  # the last type GeneratorConfig admits


def simulate(config: GeneratorConfig) -> Dataset:
    """Draw a dataset: covariates per their distributions, outcomes from the model."""
    rng = np.random.default_rng(config.seed)
    n = config.n_obs
    names = tuple(config.covariates)
    design = bind_design(config.model, names)
    theta = _theta_values(config.true_theta, design.layout)

    columns = {name: _draw_column(config.covariates[name], n, rng) for name in names}
    matrix = np.column_stack([columns[name] for name in names]) if names else np.empty((n, 0))

    # no segments means one default component, which takes every row without a draw
    components = config.segments or (SegmentComponent(SegmentKey(), 1.0),)
    weights = np.array([c.weight for c in components])
    component = (
        rng.choice(len(components), size=n, p=weights / weights.sum())
        if config.segments
        else np.zeros(n, dtype=np.int64)
    )
    segment_codes = {
        dim: np.array([levels.index(getattr(c.segment, dim)) for c in components])[component]
        for dim, levels in SEGMENT_LEVELS.items()
    }

    uniforms = rng.random(n)

    # (J, n) probabilities: every row at the config's theta in one pass, then the rows of
    # each component with its own theta again at that theta
    prob = _probabilities(augmented_matrix(matrix), design, theta).T
    for idx, comp in enumerate(components):
        if comp.theta is not None:
            rows = np.flatnonzero(component == idx)
            prob[:, rows] = _probabilities(augmented_matrix(matrix[rows]), design, comp.theta).T

    # inverse CDF: a running sum adds the contiguous length-n rows in outcome order, as a
    # cumsum would; an observation's outcome counts the partial sums at or below its uniform,
    # all but the total, which may round below 1 and would count one outcome too many
    running = prob[0].copy()
    outcome = (uniforms >= running).astype(np.int64)
    for row in prob[1:-1]:
        running += row
        outcome += uniforms >= running

    return Dataset.from_columns(
        config.model.outcome_set,
        names,
        {"X": matrix, "y": outcome, "w": np.ones(n), "period": np.full(n, -1), **segment_codes},
    )


def theta_for_target_shares(shares: Sequence[float]) -> np.ndarray:
    """Constants (one per non-base outcome) whose MNL probabilities hit the given shares."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 1 or shares.shape[0] < 2:
        raise ValueError("need one share per outcome")
    if abs(shares.sum() - 1.0) > 1e-9 or (shares <= 0).any():
        raise ValueError(f"shares must be positive and sum to 1, got {shares}")
    return np.log(shares[1:] / shares[0])
