"""Shared utilities: seeded RNG, hashing, samplers, statistics."""

from repro.util.hashing import MixHash64
from repro.util.rng import derive_seed, resolve_rng, spawn_rng
from repro.util.sampling import BottomKSampler, ReservoirSampler, ThresholdSampler
from repro.util.stats import (
    ErrorSummary,
    fit_power_law,
    geometric_range,
    mean,
    median,
    median_of_runs,
    quantile,
    relative_error,
    stddev,
    success_rate,
    summarize_errors,
    variance,
)

__all__ = [
    "MixHash64",
    "derive_seed",
    "resolve_rng",
    "spawn_rng",
    "BottomKSampler",
    "ReservoirSampler",
    "ThresholdSampler",
    "ErrorSummary",
    "fit_power_law",
    "geometric_range",
    "mean",
    "median",
    "median_of_runs",
    "quantile",
    "relative_error",
    "stddev",
    "success_rate",
    "summarize_errors",
    "variance",
]
