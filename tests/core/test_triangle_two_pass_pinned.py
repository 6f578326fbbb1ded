"""The two-pass triangle counter's trajectory, pinned to recorded digests.

The conformance matrix compares execution paths against each other, so a
change to the per-list hooks themselves — the scalar oracle every path
is checked against — would move all of them together and pass.  This
test pins the oracle's observable trajectory to values recorded at git
commit 5617310 instead: for each graph it pushes ``triangle-two-pass``
one list per :meth:`PassCursor.push_lists` call, under the scalar oracle
and with the kernels on, at three budgets and three stream orders, and
folds into one SHA-256

* after every list: ``space_words()``, ``observables()`` and, in pass 2,
  ``current_estimate()``;
* at each pass end: ``snapshot().payload``;
* at the end: the estimate and the space peak and mean.

Kernels and oracle must both hit the recorded digest.  A change that
moves any of these values on purpose re-records the digests and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.graph.generators import gnm_random_graph
from repro.graph.planted import planted_triangles
from repro.streaming.registry import get as get_spec
from repro.streaming.runner import PassCursor
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util.vectorized import scalar_oracle

BUDGETS = (16, 64, 256)
STREAM_SEEDS = (1, 2, 3)
GRAPHS = {
    "gnm-300-6000-s1": lambda: gnm_random_graph(300, 6000, seed=1),
    "gnm-300-6000-s2": lambda: gnm_random_graph(300, 6000, seed=2),
    "planted-400-60": lambda: planted_triangles(400, 60, seed=1).graph,
}
#: SHA-256 of :func:`_trajectory` over every budget and stream seed.
DIGESTS = {
    "gnm-300-6000-s1": "ef0fca4d7e049dd4f5e19e048f8a84982ef7a25521e79299b22a4ff9909471d6",
    "gnm-300-6000-s2": "5534266e0294837d7c9084eb9cac27091b64a45b78da59f7fd8b5dec607a231a",
    "planted-400-60": "b22bc146a86366b7045bc665bca0b8aa83b9b3c89763eac263993350b81ab798",
}


def _trajectory(stream: AdjacencyListStream, budget: int, seed: int, out) -> None:
    """Feed ``out`` one line per observation of a two-pass run."""
    algorithm = get_spec("triangle-two-pass").make(budget, seed=seed)
    cursor = PassCursor(algorithm)
    meter = SpaceMeter()
    for pass_index in range(algorithm.n_passes):
        algorithm.begin_pass(pass_index)
        for entry in stream.iter_lists():
            cursor.push_lists([entry], meter)
            row = [algorithm.space_words(), sorted(algorithm.observables().items())]
            if pass_index == 1:
                row.append(algorithm.current_estimate())
            out(repr(row))
        algorithm.end_pass(pass_index)
        meter.observe(algorithm.space_words())
        out(repr(algorithm.snapshot().payload))
    out(repr([algorithm.result(), meter.peak_words, meter.mean_words]))


def _digest(graph) -> str:
    sha = hashlib.sha256()

    def out(line: str) -> None:
        sha.update(line.encode())
        sha.update(b"\n")

    for stream_seed in STREAM_SEEDS:
        stream = AdjacencyListStream(graph, seed=stream_seed)
        for budget in BUDGETS:
            _trajectory(stream, budget, 100 + stream_seed, out)
    return sha.hexdigest()


@pytest.mark.parametrize("oracle", [False, True], ids=["kernels", "scalar-oracle"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_trajectory_matches_recorded_digest(name, oracle):
    graph = GRAPHS[name]()
    if oracle:
        with scalar_oracle():
            digest = _digest(graph)
    else:
        digest = _digest(graph)
    assert digest == DIGESTS[name]
