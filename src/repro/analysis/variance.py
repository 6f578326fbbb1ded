"""Estimator variance profiling — the Section 2.1 ablation.

The paper motivates the lightest-edge rule by the variance blow-up of
naive edge sampling on heavy edges.  This module runs any streaming
estimator many times over a graph (fresh sampler randomness, optionally
fresh stream orders) and summarises the error distribution, enabling the
head-to-head comparison of the ``ablation/lightest_edge`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.graph.graph import Graph
from repro.streaming.algorithm import StreamingAlgorithm
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.rng import SeedLike, resolve_rng, spawn_rng
from repro.util.stats import ErrorSummary, summarize_errors

AlgorithmFactory = Callable[[SeedLike], StreamingAlgorithm]


@dataclass(frozen=True)
class TrialProfile:
    """Repeated-run accuracy and space profile of one estimator."""

    errors: ErrorSummary
    estimates: List[float]
    mean_peak_space_words: float

    @property
    def relative_stddev(self) -> float:
        """Standard deviation of estimates relative to the truth."""
        if self.errors.truth == 0:
            return float("inf") if self.errors.stddev_estimate else 0.0
        return self.errors.stddev_estimate / abs(self.errors.truth)


def profile_estimator(
    factory: AlgorithmFactory,
    graph: Graph,
    truth: float,
    runs: int = 30,
    seed: SeedLike = None,
    fixed_stream: Optional[AdjacencyListStream] = None,
) -> TrialProfile:
    """Run ``factory``-built estimators ``runs`` times and summarise.

    Each run uses a fresh algorithm seed; the stream order is fresh per
    run unless ``fixed_stream`` pins it (isolating sampler randomness).
    """
    if runs < 1:
        raise ValueError("need at least one run")
    rng = resolve_rng(seed)
    estimates: List[float] = []
    peaks: List[int] = []
    for i in range(runs):
        algorithm = factory(spawn_rng(rng, stream=2 * i))
        stream = fixed_stream or AdjacencyListStream(graph, seed=spawn_rng(rng, stream=2 * i + 1))
        result = run_algorithm(algorithm, stream)
        estimates.append(result.estimate)
        peaks.append(result.peak_space_words)
    return TrialProfile(
        errors=summarize_errors(estimates, truth),
        estimates=estimates,
        mean_peak_space_words=sum(peaks) / len(peaks),
    )


def compare_estimators(
    factories: dict,
    graph: Graph,
    truth: float,
    runs: int = 30,
    seed: SeedLike = None,
) -> dict:
    """Profile several estimators (name → factory) on the same workload."""
    rng = resolve_rng(seed)
    return {
        name: profile_estimator(factory, graph, truth, runs=runs, seed=spawn_rng(rng))
        for name, factory in factories.items()
    }


def predicted_naive_relative_sd(graph: Graph, sample_size: int) -> float:
    """First-order predicted relative spread of the naive estimator (§2.1).

    The naive estimator scales ``X = Σ_{e∈S} T(e)`` by ``m/(3·m')``; with
    inclusion probability ``p = m'/m`` and covariances neglected,

        ``Var(T̂) ≈ (1-p)/(9p) · Σ_e T(e)²``

    so the relative spread is ``√Var / T``.  The formula makes §2.1's
    point quantitative: the spread is driven by ``Σ T(e)²``, which heavy
    edges inflate to ``Θ(T²)``.  Returns ∞ for triangle-free inputs with
    a zero count (no meaningful relative error).
    """
    from repro.graph.counting import count_triangles, triangles_per_edge

    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    t = count_triangles(graph)
    if t == 0:
        return 0.0
    p = min(1.0, sample_size / graph.m)
    if p >= 1.0:
        return 0.0
    load_square_sum = sum(load * load for load in triangles_per_edge(graph).values())
    variance_estimate = (1.0 - p) / (9.0 * p) * load_square_sum
    return variance_estimate**0.5 / t
