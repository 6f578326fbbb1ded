"""Estimating without knowing T: geometric level selection.

Theorem 3.7 (like all of Table 1) parameterises its space by the unknown
triangle count ``T``.  The standard practical remedy — used here as an
extension, it is not part of the paper — is to run ``O(log m)`` copies at
geometrically decreasing sample sizes in the *same* two passes, then
report the estimate of the smallest (cheapest) level whose sample
contains enough evidence to be trusted.

Support rule: a level is trusted when it counted at least
``min_support`` ρ-winning pairs — the estimator's relative spread decays
like ``1/√(counted pairs)``, so a constant support caps the relative
error at a constant, and each level's expected support grows
geometrically with its budget.  The total space is at most twice the
largest level's, and the largest level (``max_sample_size``) acts as the
fallback when every level is thin (tiny T).
"""

from __future__ import annotations

from typing import List

from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.streaming.algorithm import FanOut
from repro.util.rng import SeedLike, resolve_rng, spawn_rng


class AdaptiveTriangleCounter(FanOut):
    """Two-pass triangle estimation with no prior knowledge of T.

    Parameters
    ----------
    max_sample_size:
        Budget of the largest level; levels run at
        ``max_sample_size / 2^i`` for ``i = 0 .. levels-1``.
    levels:
        Number of geometric levels (default: down to a budget of ~8).
    min_support:
        Counted-pair threshold below which a level is considered thin.
    seed:
        Master randomness (levels receive derived seeds).
    """

    n_passes = 2
    requires_same_order = True

    def __init__(
        self,
        max_sample_size: int,
        levels: int = None,
        min_support: int = 32,
        seed: SeedLike = None,
    ):
        if max_sample_size < 1:
            raise ValueError("max_sample_size must be positive")
        if levels is None:
            levels = 1
            while max_sample_size >> levels >= 8:
                levels += 1
        if levels < 1:
            raise ValueError("levels must be positive")
        self.min_support = min_support
        rng = resolve_rng(seed)
        self.levels: List[TwoPassTriangleCounter] = []
        for i in range(levels):
            budget = max(1, max_sample_size >> i)
            self.levels.append(
                TwoPassTriangleCounter(sample_size=budget, seed=spawn_rng(rng, stream=i))
            )
        self.parts = self.levels

    # -- selection ------------------------------------------------------------

    def chosen_level(self) -> TwoPassTriangleCounter:
        """The cheapest level with adequate support (fallback: largest)."""
        for level in reversed(self.levels):  # smallest budget first
            if level.counted_pairs() >= self.min_support:
                return level
        return self.levels[0]

    def result(self) -> float:
        return self.chosen_level().result()

    def level_report(self) -> List[dict]:
        """Budget, support and estimate per level (diagnostics)."""
        return [
            {
                "sample_size": level.sample_size,
                "counted_pairs": level.counted_pairs(),
                "estimate": level.result(),
            }
            for level in self.levels
        ]
