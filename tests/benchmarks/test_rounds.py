"""The paired-rounds timer behind every ratio gate (``benchmarks/rounds.py``).

A fake clock stands in for ``perf_counter`` and ``process_time``: each
call of an arm advances it by the cost the test gives that call, so the
recorded times, the schedule and the ratios are exact.
"""

import asyncio
import gc
import random

import pytest

import rounds as rounds_module
from rounds import Rounds


class FakeClock:
    """Wall and CPU clocks that move only when a call spends time."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def spend(self, wall, cpu=None):
        self.wall += wall
        self.cpu += wall if cpu is None else cpu


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(rounds_module, "perf_counter", lambda: fake.wall)
    monkeypatch.setattr(rounds_module, "process_time", lambda: fake.cpu)
    return fake


def run(rounds, clock, costs):
    """Drive ``rounds``; call i of an arm spends ``costs[arm][i]``."""
    calls = {arm: iter(arm_costs) for arm, arm_costs in costs.items()}
    schedule = []
    for arm in rounds:
        schedule.append(arm)
        with rounds.timed(arm):
            clock.spend(*next(calls[arm]))
    return schedule


def test_warm_up_call_is_not_recorded(clock):
    rounds = Rounds(("a", "b"), 3)
    run(rounds, clock, {
        "a": [(100.0,), (1.0,), (2.0,), (3.0,)],
        "b": [(200.0,), (4.0,), (5.0,), (6.0,)],
    })
    assert rounds.wall == {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}
    assert rounds.median("a") == 2.0


def test_order_goes_forward_then_reverse(clock):
    rounds = Rounds(("x", "y", "z"), 3)
    schedule = run(rounds, clock, {arm: [(1.0,)] * 4 for arm in "xyz"})
    assert schedule == [
        "x", "y", "z",  # warm-up
        "x", "y", "z",
        "z", "y", "x",
        "x", "y", "z",
    ]


def test_ratio_is_the_median_of_per_round_ratios(clock):
    rounds = Rounds(("a", "b"), 5)
    # Per-round a/b: 0.5, 0.5, 3.0, 1.0, 5.0.  The median of the ratios
    # is 1.0; the ratio of the medians would read 4 / 2 = 2.0.
    run(rounds, clock, {
        "a": [(9.0,)] + [(w, 10 * w) for w in (1.0, 2.0, 6.0, 4.0, 5.0)],
        "b": [(9.0,)] + [(w, 10 * w) for w in (2.0, 4.0, 2.0, 4.0, 1.0)],
    })
    assert rounds.ratio("a_over_b", "a", "b") == {
        "a_over_b": 1.0,
        "a_over_b_spread": [0.5, 5.0],
        "a_over_b_rounds": 5,
    }
    # The CPU clock keeps its own times: ten times the wall time here.
    assert rounds.median("a", cpu=True) == 40.0
    assert rounds.ratio("r", "a", "b", cpu=True)["r"] == pytest.approx(1.0)


def test_async_arm_times_the_awaited_block(clock):
    rounds = Rounds(("sync", "async"), 2)

    async def work(cost):
        await asyncio.sleep(0)
        clock.spend(cost)

    async def drive():
        for arm in rounds:
            with rounds.timed(arm):
                if arm == "async":
                    await work(3.0)
                else:
                    clock.spend(1.0)

    asyncio.run(drive())
    assert rounds.wall == {"sync": [1.0, 1.0], "async": [3.0, 3.0]}
    assert rounds.ratio("r", "async", "sync")["r"] == 3.0


def test_objects_alive_before_the_rounds_are_frozen(clock):
    before = gc.get_freeze_count()
    rounds = Rounds(("a", "b"), 2)
    frozen = []
    for arm in rounds:
        frozen.append(gc.get_freeze_count() > before)
    assert frozen == [False, False, True, True, True, True]
    assert gc.get_freeze_count() == before


def test_each_call_starts_with_empty_young_generations(clock):
    rounds = Rounds(("a", "b"), 2)
    counts = []
    for arm in rounds:
        garbage = [[] for _ in range(300)]  # tracked, survives into the call
        with rounds.timed(arm):
            counts.append(gc.get_count()[0])
        del garbage
    assert len(counts) == 6
    assert max(counts) < 50


def noisy_costs(slowdown, seed):
    """Seven rounds of two arms under host drift (shared by both arms of
    a round, up to 2x) plus 2% jitter per call; arm b costs
    ``slowdown`` times arm a."""
    rng = random.Random(seed)
    costs = {"a": [(1.0,)], "b": [(1.0,)]}
    for _ in range(7):
        drift = rng.uniform(1.0, 2.0)
        for arm, factor in (("a", 1.0), ("b", slowdown)):
            costs[arm].append((drift * factor * rng.uniform(0.98, 1.02),))
    return costs


@pytest.mark.parametrize("seed", range(5))
def test_planted_ten_percent_slowdown_fails_a_five_percent_bound(clock, seed):
    planted = Rounds(("a", "b"), 7)
    run(planted, clock, noisy_costs(1.10, seed))
    assert planted.ratio("r", "b", "a")["r"] > 1.05

    unplanted = Rounds(("a", "b"), 7)
    run(unplanted, clock, noisy_costs(1.00, seed))
    assert unplanted.ratio("r", "b", "a")["r"] <= 1.05
