"""Estimator convergence diagnostics against the paper's error budgets.

Two layers:

* **Per-run traces** — :func:`estimate_trace` turns the
  :class:`~repro.obs.events.EstimateSample` events an instrumented run
  emits (see ``current_estimate()`` on the algorithms) into a convergence
  trajectory, optionally annotated with relative error against a known
  ground truth.  ``obs-report`` renders these as convergence curves.
* **Across-trial verdicts** — :func:`diagnose` checks a batch of final
  estimates against the ``(1 ± ε)`` guarantees of Theorem 3.7 (two-pass
  triangle counting, success probability 2/3 at space
  ``m' = c·m/(ε²T^{2/3})``) or Theorem 4.6 (two-pass 4-cycle counting,
  success probability 4/5 at ``m' = c·m/T^{3/8}``), producing a
  structured :class:`ConvergenceVerdict`.

The verdict checks four budgets:

1. **space** — the configured sample size covers the theorem's
   requirement for the claimed ``ε`` (an under-budgeted run cannot claim
   the guarantee, whatever its luck on one seed);
2. **relative error** — the median relative error across trials is
   within ``ε``;
3. **success rate** — the fraction of trials within ``(1 ± ε)`` meets the
   theorem's probability;
4. **variance** — the across-trial variance stays within the ``ε²T²``
   budget the second-moment analysis bounds.

``ConvergenceVerdict.to_flat_dict()`` emits the verdict as flat
JSON-safe metrics whose booleans the ``bench-report`` classifier treats
as gated invariants, so a benchmark artifact embedding a verdict turns
any budget violation into a CI regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EstimateSample, TelemetryEvent
from repro.util.stats import median

__all__ = [
    "THEOREM_TRIANGLE",
    "THEOREM_FOURCYCLE",
    "required_sample_size",
    "EstimatePoint",
    "estimate_trace",
    "ConvergenceVerdict",
    "diagnose",
]

#: Theorem 3.7 — two-pass (1±ε) triangle counting, success probability 2/3.
THEOREM_TRIANGLE = "3.7"
#: Theorem 4.6 — two-pass O(1)-approximate 4-cycle counting, probability 4/5.
THEOREM_FOURCYCLE = "4.6"

_SUCCESS_TARGETS = {THEOREM_TRIANGLE: 2.0 / 3.0, THEOREM_FOURCYCLE: 4.0 / 5.0}


def required_sample_size(
    theorem: str, m: int, true_count: int, epsilon: float = 0.5, constant: float = 4.0
) -> int:
    """The theorem's space requirement for claiming ``(1 ± ε)`` at ``ε``.

    Delegates to the algorithms' own ``recommended_sample_size`` so the
    diagnostics and the estimators can never disagree on the formula.
    """
    # Imported here: repro.obs is a lower layer than repro.core.
    if theorem == THEOREM_TRIANGLE:
        from repro.core.triangle_two_pass import recommended_sample_size

        return recommended_sample_size(m, true_count, epsilon=epsilon, constant=constant)
    if theorem == THEOREM_FOURCYCLE:
        from repro.core.fourcycle_two_pass import recommended_sample_size

        return recommended_sample_size(m, true_count, constant=constant)
    raise ValueError(f"unknown theorem {theorem!r} (expected '3.7' or '4.6')")


@dataclass(frozen=True)
class EstimatePoint:
    """One point of a convergence trajectory."""

    pass_index: int
    lists_done: int
    estimate: float
    relative_error: Optional[float] = None


def estimate_trace(
    events: Sequence[TelemetryEvent], truth: Optional[float] = None
) -> List[EstimatePoint]:
    """The run's anytime-estimate trajectory, in emission order.

    With ``truth`` given, each point carries its relative error
    ``|estimate - truth| / truth`` (``None`` when truth is zero).
    """
    points: List[EstimatePoint] = []
    for event in events:
        if not isinstance(event, EstimateSample):
            continue
        error: Optional[float] = None
        if truth is not None and truth != 0:
            error = abs(event.estimate - truth) / abs(truth)
        points.append(
            EstimatePoint(
                pass_index=event.pass_index,
                lists_done=event.lists_done,
                estimate=event.estimate,
                relative_error=error,
            )
        )
    return points


def _variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Structured outcome of checking trials against a theorem's budgets."""

    theorem: str
    epsilon: float
    truth: float
    m: int
    sample_size: int
    required_size: int
    runs: int
    median_relative_error: float
    success_rate: float
    success_target: float
    variance: float
    variance_budget: float
    space_budget_ok: bool
    relative_error_ok: bool
    success_rate_ok: bool
    variance_ok: bool
    ok: bool
    violations: Tuple[str, ...]

    def to_flat_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe form for benchmark artifacts.

        Booleans classify as gated invariants under ``bench-report``, so
        embedding this dict in a ``BENCH_*.json`` makes every budget
        violation a CI regression.
        """
        return {
            "theorem": self.theorem,
            "epsilon": self.epsilon,
            "truth": self.truth,
            "m": self.m,
            "sample_size": self.sample_size,
            "required_size": self.required_size,
            "runs": self.runs,
            "median_relative_error": self.median_relative_error,
            "success_rate": self.success_rate,
            "success_target": self.success_target,
            "variance": self.variance,
            "variance_budget": self.variance_budget,
            "space_budget_ok": self.space_budget_ok,
            "relative_error_ok": self.relative_error_ok,
            "success_rate_ok": self.success_rate_ok,
            "variance_ok": self.variance_ok,
            "ok": self.ok,
        }


def diagnose(
    estimates: Sequence[float],
    truth: float,
    m: int,
    sample_size: int,
    *,
    theorem: str = THEOREM_TRIANGLE,
    epsilon: float = 0.5,
    constant: float = 4.0,
    success_target: Optional[float] = None,
) -> ConvergenceVerdict:
    """Check across-trial estimates against a theorem's budgets.

    ``estimates`` are the final estimates of independent trials at space
    ``sample_size`` on a stream of ``m`` edges whose true count is
    ``truth``; ``epsilon`` is the *claimed* accuracy.  The space check
    compares ``sample_size`` against what the theorem requires for that
    claim — a deliberately under-budgeted run is flagged even before its
    empirical error is (Theorem 4.6 promises a constant-factor
    approximation, so ``epsilon`` defaults to the same knob but reads as
    the claimed constant there).
    """
    if not estimates:
        raise ValueError("diagnose needs at least one trial estimate")
    if truth <= 0:
        raise ValueError("truth must be positive (plant a known count)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    required = required_sample_size(theorem, m, int(truth), epsilon, constant)
    target = success_target if success_target is not None else _SUCCESS_TARGETS[theorem]

    errors = [abs(e - truth) / truth for e in estimates]
    median_error = median(errors)
    success_rate = sum(1 for err in errors if err <= epsilon) / len(errors)
    variance = _variance(list(estimates))
    variance_budget = epsilon**2 * truth**2

    space_ok = sample_size >= required
    error_ok = median_error <= epsilon
    success_ok = success_rate >= target
    variance_ok = variance <= variance_budget

    violations: List[str] = []
    if not space_ok:
        violations.append(
            f"space budget: sample_size {sample_size} < required "
            f"{required} for eps={epsilon:g} (Theorem {theorem})"
        )
    if not error_ok:
        violations.append(
            f"relative error: median {median_error:.3g} > eps {epsilon:g}"
        )
    if not success_ok:
        violations.append(
            f"success rate: {success_rate:.3g} < target {target:.3g}"
        )
    if not variance_ok:
        violations.append(
            f"variance: {variance:.3g} > eps^2*T^2 budget {variance_budget:.3g}"
        )

    return ConvergenceVerdict(
        theorem=theorem,
        epsilon=epsilon,
        truth=float(truth),
        m=m,
        sample_size=sample_size,
        required_size=required,
        runs=len(estimates),
        median_relative_error=median_error,
        success_rate=success_rate,
        success_target=target,
        variance=variance,
        variance_budget=variance_budget,
        space_budget_ok=space_ok,
        relative_error_ok=error_ok,
        success_rate_ok=success_ok,
        variance_ok=variance_ok,
        ok=space_ok and error_ok and success_ok and variance_ok,
        violations=tuple(violations),
    )
