"""A repeated ``begin_pass(1)`` leaves the two-pass counters unchanged.

Pass-2 set-up — the triangle counter's watcher registration and the
4-cycle counter's wedge set Q — happens once.  A second call must not
register the watchers again or grow Q, either of which would inflate the
estimate and ``space_words()``.
"""

import pytest

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.streaming.runner import run_single_pass
from repro.streaming.stream import AdjacencyListStream

CASES = {
    "triangle": (
        lambda: TwoPassTriangleCounter(sample_size=64, seed=3),
        planted_triangles(200, 30, seed=1),
        "watchers_live",
    ),
    "fourcycle": (
        lambda: TwoPassFourCycleCounter(sample_size=64, seed=3),
        planted_four_cycles(200, 30, seed=1),
        "wedge_set_occupancy",
    ),
    "fourcycle-capped": (
        lambda: TwoPassFourCycleCounter(sample_size=64, wedge_cap=8, seed=3),
        planted_four_cycles(200, 30, seed=1),
        "wedge_set_occupancy",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_second_begin_pass_is_a_no_op(case):
    make, planted, setup_gauge = CASES[case]
    lists = list(AdjacencyListStream(planted.graph, seed=2).iter_lists())
    once, twice = make(), make()
    for algo in (once, twice):
        run_single_pass(algo, lists, 0)
        algo.begin_pass(1)
    twice.begin_pass(1)
    assert twice.snapshot().payload == once.snapshot().payload
    assert twice.space_words() == once.space_words()
    # The fixture must give pass 2 something to set up.
    assert once.observables()[setup_gauge] > 0
