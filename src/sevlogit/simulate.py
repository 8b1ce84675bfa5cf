"""Synthetic datasets from a known MNL data-generating process.

Ground-truth oracle for parameter recovery and test calibration. Generation
is driven by numpy's PCG64 generator, seeded explicitly; identical configs
and seeds give bit-identical datasets. Outcomes are drawn by inverse CDF
over the probability vector in outcome-index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .data import Dataset, Observation, SegmentKey
from .errors import ConfigError
from .modelspec import ModelSpec, ThetaLike, _theta_values, build_layout
from .likelihood import probabilities_for_matrix

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class ConstantDist:
    value: float


@dataclass(frozen=True)
class UniformDist:
    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ConfigError(f"uniform bounds must satisfy low < high, got ({self.low}, {self.high})")


@dataclass(frozen=True)
class CategoricalDist:
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigError("categorical needs matching, non-empty values and probs")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigError(f"categorical probs must be non-negative and sum to 1, got {self.probs}")


@dataclass(frozen=True)
class IndicatorDist:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"indicator probability must be in [0, 1], got {self.p}")


Distribution = Union[ConstantDist, UniformDist, CategoricalDist, IndicatorDist]


@dataclass(frozen=True)
class SegmentComponent:
    """One mixture component: a segment key, its weight, optionally its own theta."""

    segment: SegmentKey
    weight: float
    theta: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.theta is not None:
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
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
        object.__setattr__(self, "covariates", dict(self.covariates))
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.n_obs < 1:
            raise ConfigError(f"n_obs must be at least 1, got {self.n_obs}")
        missing = [v for v in self.model.variables() if v not in self.covariates]
        if missing:
            raise ConfigError(f"no covariate distribution for model variables {missing}")
        if self.segments:
            total = sum(c.weight for c in self.segments)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"segment weights must sum to 1, got {total}")


def _draw_column(dist: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, ConstantDist):
        return np.full(n, float(dist.value))
    if isinstance(dist, UniformDist):
        return rng.uniform(dist.low, dist.high, size=n)
    if isinstance(dist, CategoricalDist):
        idx = rng.choice(len(dist.values), size=n, p=np.asarray(dist.probs))
        return np.asarray(dist.values)[idx]
    if isinstance(dist, IndicatorDist):
        return (rng.random(n) < dist.p).astype(np.float64)
    raise ConfigError(f"unknown distribution {dist!r}")


def simulate(config: GeneratorConfig) -> Dataset:
    """Draw a dataset: covariates per their distributions, outcomes from the model."""
    rng = np.random.default_rng(config.seed)
    n = config.n_obs
    layout = build_layout(config.model)
    theta = _theta_values(config.true_theta, layout)

    names = tuple(config.covariates)
    columns = {name: _draw_column(config.covariates[name], n, rng) for name in names}
    matrix = np.column_stack([columns[name] for name in names]) if names else np.empty((n, 0))

    if config.segments:
        weights = np.array([c.weight for c in config.segments])
        component = rng.choice(len(config.segments), size=n, p=weights / weights.sum())
        segments = [config.segments[i].segment for i in component]
    else:
        component = np.zeros(n, dtype=np.int64)
        segments = [SegmentKey()] * n

    uniforms = rng.random(n)

    prob = np.empty((n, config.model.outcome_set.n_outcomes))
    if config.segments:
        for idx, comp in enumerate(config.segments):
            rows = np.flatnonzero(component == idx)
            if rows.size == 0:
                continue
            comp_theta = theta if comp.theta is None else _theta_values(comp.theta, layout)
            prob[rows] = probabilities_for_matrix(config.model, comp_theta, names, matrix[rows])
    else:
        prob[:] = probabilities_for_matrix(config.model, theta, names, matrix)

    cumulative = np.cumsum(prob, axis=1)
    outcome = np.minimum(
        (uniforms[:, None] >= cumulative).sum(axis=1),
        config.model.outcome_set.n_outcomes - 1,
    ).astype(np.int64)

    observations = tuple(
        Observation(
            covariates={name: float(columns[name][i]) for name in names},
            outcome=int(outcome[i]),
            segment=segments[i],
        )
        for i in range(n)
    )
    return Dataset(config.model.outcome_set, observations, names)


def theta_for_target_shares(shares: Sequence[float]) -> np.ndarray:
    """Constants (one per non-base outcome) whose MNL probabilities hit the given shares."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 1 or shares.shape[0] < 2:
        raise ValueError("need one share per outcome")
    if abs(shares.sum() - 1.0) > 1e-9 or (shares <= 0).any():
        raise ValueError(f"shares must be positive and sum to 1, got {shares}")
    return np.log(shares[1:] / shares[0])
