"""One conformance matrix: every execution path equals ``run_algorithm``.

The core invariant of the repo is that a counter gives bit-identical
results however its stream is executed.  This module pins it along five
axes:

* algorithms — every serve-compatible registry algorithm, and on the
  batch paths the fan-out wrappers: ``triangle-adaptive``,
  ``transitivity``, a median of three ``triangle-two-pass`` copies and
  a median of three ``triangle-naive`` copies (parts with no
  ``process_run`` hook, which take a run through their per-list hooks);
* orderings — every entry of ``ORDERING_FACTORIES``;
* graphs — a Figure-1b gadget (tuple labels), a seeded G(n, m), a
  G(n, m) with three float labels, and seeded planted-triangle and
  planted-4-cycle graphs;
* execution paths — the scalar oracle, the columnar kernels without the
  stream's column memo, one-list runs (a metrics-only telemetry polls
  after every list, so the runner cuts each run to one list, while the
  reference batches runs), ``run_single_pass`` chained per pass,
  ``run_sharded``, and serve sessions fed JSON, binary, or a seeded mix
  of both (binary only on int-labelled graphs; the wire refuses float
  labels, so the float-labelled graph skips the serve paths);
* chunkings — single pairs, one chunk per pass, and seeded random sizes
  (serve paths only; batch paths read whole lists).

Each case compares the estimate, and where the path exposes them the
space peak and mean and the algorithm's final sketch state, against one
cached ``run_algorithm`` reference.

A second, smaller matrix pins the run route over long lists: hubs of at
least ``3 * SHORT_LIST`` neighbours laid out in blocks among short-listed
leaves, once with small labels and once with labels past the cap of
``RunMask``'s direct table, for the counters with long-run branches, with a
checkpoint that cuts a long run, serial and pooled ``run_sharded``, and
serve sessions fed JSON or binary chunks that cut runs and lists.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib

import numpy as np
import pytest

from repro.core.boosting import MedianBoosted
from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.graph.planted import planted_four_cycles, planted_triangles
from repro.lowerbounds.problems import random_three_disj_instance
from repro.lowerbounds.reductions import triangle_multipass
from repro.obs.telemetry import Telemetry
from repro.serve.session import ServeSession
from repro.sketch.checkpoint import CheckpointConfig
from repro.sketch.driver import run_sharded
from repro.streaming.algorithm import supports_snapshot
from repro.streaming.orderings import ORDERING_FACTORIES
from repro.streaming.registry import get as get_spec
from repro.streaming.registry import iter_specs, serve_capabilities
from repro.streaming.runner import run_algorithm, run_single_pass
from repro.streaming.space import SpaceMeter
from repro.util import vectorized
from repro.util.vectorized import RUN_PAIRS, SHORT_LIST, ColumnMemo, scalar_oracle

ALGORITHMS = sorted(
    spec.name for spec in iter_specs() if serve_capabilities(spec).serve_compatible
)
#: The fan-out wrappers, on the batch paths only: no session serves them.
WRAPPERS = {
    "triangle-adaptive": lambda budget, seed: get_spec("triangle-adaptive").make(
        budget, seed=seed
    ),
    "transitivity": lambda budget, seed: get_spec("transitivity").make(budget, seed=seed),
    "triangle-boosted": lambda budget, seed: MedianBoosted(
        lambda copy_seed: get_spec("triangle-two-pass").make(budget, seed=copy_seed),
        3,
        seed=seed,
    ),
    "triangle-naive-boosted": lambda budget, seed: MedianBoosted(
        lambda copy_seed: get_spec("triangle-naive").make(budget, seed=copy_seed),
        3,
        seed=seed,
    ),
}
#: Sharded rows per shard-capable spec, at a budget where its merge is
#: exact: the 4-cycle merge always is; the triangle pair reservoir merges
#: by weighted resampling, which is exact only while no shard's
#: reservoir overflows.
SHARD_BUDGETS = {"fourcycle-two-pass": 24, "triangle-two-pass-sharded": 4096}
BUDGET = 24
SEED = 5


def _float_labelled() -> Graph:
    """A dense G(43, 400) whose last three vertices are labelled 2.5, 7.5
    and 11.5: each columnar route must refuse the list or the columns
    holding them, not truncate them to ints."""
    labels = {40: 2.5, 41: 7.5, 42: 11.5}
    graph = gnm_random_graph(43, 400, seed=6)
    return Graph.from_edges((labels.get(u, u), labels.get(v, v)) for u, v in graph.edges())


GRAPHS = {
    "gadget": lambda: triangle_multipass.build_gadget(
        random_three_disj_instance(5, True, seed=1), 4
    ).graph,
    "gnm": lambda: gnm_random_graph(60, 240, seed=2),
    "float": _float_labelled,
    "planted3": lambda: planted_triangles(noise_edges=150, triangles=20, seed=3).graph,
    "planted4": lambda: planted_four_cycles(noise_edges=120, cycles=12, seed=4).graph,
}
INT_GRAPHS = ("gnm", "planted3", "planted4")
#: Graphs no serve wire can carry.
BATCH_ONLY_GRAPHS = ("float",)
CHUNKINGS = ("pairs", "pass", "random")
BATCH_PATHS = ("scalar", "columnar", "per-list", "single-pass")
SESSION_PATHS = ("json", "binary", "mixed")


def _cases():
    for algorithm in sorted(WRAPPERS):
        for ordering in sorted(ORDERING_FACTORIES):
            for graph in GRAPHS:
                for path in BATCH_PATHS:
                    yield algorithm, ordering, graph, path, None
    for algorithm in ALGORITHMS:
        for ordering in sorted(ORDERING_FACTORIES):
            for graph in GRAPHS:
                for path in BATCH_PATHS:
                    yield algorithm, ordering, graph, path, None
                if algorithm in SHARD_BUDGETS:
                    yield algorithm, ordering, graph, "sharded", None
                if graph in BATCH_ONLY_GRAPHS:
                    continue
                for path in SESSION_PATHS:
                    if path != "json" and graph not in INT_GRAPHS:
                        continue
                    for chunking in CHUNKINGS:
                        yield algorithm, ordering, graph, path, chunking


CASES = list(_cases())


@functools.lru_cache(maxsize=None)
def _stream(ordering, graph):
    return ORDERING_FACTORIES[ordering](GRAPHS[graph](), seed=7)


def _make(algorithm, budget):
    if algorithm in WRAPPERS:
        return WRAPPERS[algorithm](budget, SEED)
    return get_spec(algorithm).make(budget, seed=SEED)


def _state(algo):
    """The sketch state of ``algo``, or of each of a wrapper's parts."""
    if supports_snapshot(algo):
        return algo.snapshot().payload
    parts = getattr(algo, "parts", None)
    return None if parts is None else [_state(part) for part in parts]


@functools.lru_cache(maxsize=None)
def _reference(algorithm, budget, ordering, graph):
    algo = _make(algorithm, budget)
    result = run_algorithm(algo, _stream(ordering, graph))
    return result, _state(algo)


class _ListsOnly:
    """A stream view without ``columns_for``: algorithms convert their
    own vertex-id columns instead of reading the stream's memo."""

    def __init__(self, stream):
        self._stream = stream

    def iter_lists(self):
        return self._stream.iter_lists()

    def __len__(self):
        return len(self._stream)


def _chunks(pairs, chunking, rng):
    if chunking == "pairs":
        sizes = [1] * len(pairs)
    elif chunking == "pass":
        sizes = [len(pairs)]
    else:
        sizes = []
        while sum(sizes) < len(pairs):
            sizes.append(rng.randint(1, 40))
    start = 0
    for size in sizes:
        yield pairs[start : start + size]
        start += size


def _feed(session, chunk, wire):
    if wire == "json":
        return session.feed(chunk)
    srcs, dsts = zip(*chunk) if chunk else ((), ())
    return session.feed_arrays(
        np.array(srcs, dtype=np.uint64), np.array(dsts, dtype=np.uint64)
    )


def _serve(algorithm, stream, path, chunking, rng):
    session = ServeSession.open("conformance", algorithm, BUDGET, seed=SEED)
    pairs = list(stream.iter_pairs())
    final = None
    for _ in range(session.algorithm.n_passes):
        for chunk in _chunks(pairs, chunking, rng):
            wire = rng.choice(("json", "binary")) if path == "mixed" else path
            assert _feed(session, chunk, wire)["pairs"] == len(chunk)
        final = session.finish_pass()
    assert final["done"]
    assert session.pairs_total == len(pairs) * session.algorithm.n_passes
    return final["estimate"], session.algorithm


@pytest.mark.parametrize(
    "algorithm, ordering, graph, path, chunking",
    CASES,
    ids=["-".join(filter(None, case)) for case in CASES],
)
def test_path_matches_run_algorithm(algorithm, ordering, graph, path, chunking):
    stream = _stream(ordering, graph)
    budget = SHARD_BUDGETS[algorithm] if path == "sharded" else BUDGET
    reference, reference_state = _reference(algorithm, budget, ordering, graph)
    algo = _make(algorithm, budget)
    peak = mean = None
    if path in ("scalar", "columnar", "per-list"):
        if path == "scalar":
            with scalar_oracle():
                result = run_algorithm(algo, stream)
        elif path == "columnar":
            result = run_algorithm(algo, _ListsOnly(stream))
        else:
            result = run_algorithm(algo, stream, telemetry=Telemetry(sink=None))
        estimate, peak = result.estimate, result.peak_space_words
        mean = result.mean_space_words
    elif path == "single-pass":
        meter, memo = SpaceMeter(), ColumnMemo()
        for pass_index in range(algo.n_passes):
            run_single_pass(
                algo, stream.iter_lists(), pass_index, meter, column_provider=memo
            )
        estimate, peak, mean = algo.result(), meter.peak_words, meter.mean_words
    elif path == "sharded":
        estimate = run_sharded(algo, stream, 3, merge_seed=1).estimate
        # The merged pair reservoir holds a serial run's pairs in merge
        # order, so its sketch state is not comparable; the estimate is.
        algo = None
    else:
        rng = random.Random(zlib.crc32(f"{algorithm}/{ordering}/{graph}".encode()))
        estimate, algo = _serve(algorithm, stream, path, chunking, rng)
    assert estimate == reference.estimate
    if peak is not None:
        assert peak == reference.peak_space_words
        assert mean == reference.mean_space_words
    if algo is not None and reference_state is not None:
        assert _state(algo) == reference_state


def test_matrix_covers_every_shard_capable_spec():
    """``SHARD_BUDGETS`` names exactly the serve-compatible specs that
    ``run_sharded`` accepts, so a new one cannot silently skip its row."""
    capable = [
        name
        for name in ALGORITHMS
        if getattr(get_spec(name).make(8, seed=0), "sharded", True) is not False
    ]
    assert sorted(SHARD_BUDGETS) == capable


# -- long runs -------------------------------------------------------------------

#: Sample size of the long-run rows: the edge sample fills and evicts on
#: these graphs (about 3000 edges), and the sharded triangle counter's
#: pair reservoir never overflows (under 512 candidate pairs), so its
#: merge is exact.
LONG_BUDGET = 512
#: Checkpoint cadence of the ``checkpoint`` rows: list 185 lies inside
#: the first hub block under ``sorted`` and list 37 inside the hubs under
#: ``degree_desc``, each after the block has passed ``RUN_PAIRS`` pairs,
#: so a boundary cuts a long run.
LONG_EVERY = 37


def _hubs_and_leaves(offset: int) -> Graph:
    """600 leaves and 40 hubs of 70 or more neighbours, labelled so that
    sorted order reads 150 leaves, a block of 36 hubs (more than
    ``RUN_PAIRS`` pairs), 250 leaves, 4 hubs, then the other leaves.

    Hub-hub and leaf-leaf edges close about a hundred triangles; pairs of
    hubs sharing leaves close thousands of 4-cycles.  Every label is
    shifted by ``offset``.
    """
    rng = random.Random(8)
    hubs = list(range(150, 186)) + list(range(436, 440))
    leaves = [v for v in range(640) if v not in set(hubs)]
    edges = set()
    for hub in hubs:
        edges.update((hub, leaf) for leaf in rng.sample(leaves, 70))
    for pool, count in ((hubs, 8), (leaves, 100)):
        while count:
            u, v = sorted(rng.sample(pool, 2))
            if (u, v) not in edges:
                edges.add((u, v))
                count -= 1
    graph = Graph.from_edges((u + offset, v + offset) for u, v in edges)
    for vertex in range(640):  # leaves no edge reached keep their place
        graph.add_vertex(vertex + offset)
    return graph


LONG_GRAPHS = {"hubs": 0, "hubs-wide": 1 << 22}
LONG_ORDERINGS = ("sorted", "degree_desc", "random")
LONG_FACTORIES = {
    "fourcycle": lambda: get_spec("fourcycle-two-pass").make(LONG_BUDGET, seed=SEED),
    "fourcycle-distinct": lambda: TwoPassFourCycleCounter(
        LONG_BUDGET, mode="distinct", seed=SEED
    ),
    "triangle-sharded": lambda: get_spec("triangle-two-pass-sharded").make(
        LONG_BUDGET, seed=SEED
    ),
    "triangle": lambda: get_spec("triangle-two-pass").make(LONG_BUDGET, seed=SEED),
}
#: The registry spec a session reports for each long-run counter.
LONG_SPECS = {
    "fourcycle": "fourcycle-two-pass",
    "fourcycle-distinct": "fourcycle-two-pass",
    "triangle-sharded": "triangle-two-pass-sharded",
    "triangle": "triangle-two-pass",
}
#: Chunk sizes of the long-run session rows, in turn: one chunk holds
#: more than ``RUN_PAIRS`` pairs, so the pair cap cuts a run inside it;
#: the next, shorter than any hub list, splits a list across chunks.
LONG_CHUNKS = (RUN_PAIRS + 501, 61)
LONG_PATHS = (
    "scalar", "columnar", "per-list", "single-pass", "checkpoint", "json", "binary"
)
SHARDED_PATHS = ("sharded-serial", "sharded-pooled")


def _long_cases():
    for name in LONG_FACTORIES:
        for ordering in LONG_ORDERINGS:
            for graph in LONG_GRAPHS:
                for path in LONG_PATHS:
                    yield name, ordering, graph, path
                if name != "triangle":  # the conventional counter cannot shard
                    for path in SHARDED_PATHS:
                        yield name, ordering, graph, path


LONG_CASES = list(_long_cases())


@functools.lru_cache(maxsize=None)
def _long_stream(ordering, graph):
    return ORDERING_FACTORIES[ordering](_hubs_and_leaves(LONG_GRAPHS[graph]), seed=7)


class _WireLists(_ListsOnly):
    """The lists a pair wire carries: a stream without its empty lists,
    which no pair announces (the hub graphs hold four isolated
    vertices, each one space reading of the batch runner)."""

    def iter_lists(self):
        return ((vertex, nbrs) for vertex, nbrs in self._stream.iter_lists() if nbrs)


@functools.lru_cache(maxsize=None)
def _long_reference(name, ordering, graph, wire=False):
    algo = LONG_FACTORIES[name]()
    stream = _long_stream(ordering, graph)
    result = run_algorithm(algo, _WireLists(stream) if wire else stream)
    return result, algo.snapshot().payload


@pytest.mark.parametrize(
    "name, ordering, graph, path",
    LONG_CASES,
    ids=["-".join(case) for case in LONG_CASES],
)
def test_long_runs_match_run_algorithm(
    name, ordering, graph, path, tmp_path, monkeypatch
):
    stream = _long_stream(ordering, graph)
    reference, reference_state = _long_reference(name, ordering, graph)
    algo = LONG_FACTORIES[name]()
    if path.startswith("sharded"):
        workers = 2 if path == "sharded-pooled" else None
        estimate = run_sharded(algo, stream, 3, workers=workers, merge_seed=1).estimate
        assert estimate == reference.estimate
        return
    if path == "scalar":
        with scalar_oracle():
            result = run_algorithm(algo, stream)
    elif path == "columnar":
        result = run_algorithm(algo, _ListsOnly(stream))
    elif path == "per-list":
        result = run_algorithm(algo, stream, telemetry=Telemetry(sink=None))
    elif path == "checkpoint":
        config = CheckpointConfig(tmp_path / "run.ckpt", every_lists=LONG_EVERY)
        result = run_algorithm(algo, stream, checkpoint=config)
        assert len(config.history) > 2 * algo.n_passes
    elif path in SESSION_PATHS:
        reference, reference_state = _long_reference(name, ordering, graph, wire=True)
        # A session exposes no space meter: record its meter's readings,
        # plus the reading the runner takes at each pass end.
        readings = []
        monkeypatch.setattr(SpaceMeter, "observe", lambda self, w: readings.append(w))
        monkeypatch.setattr(SpaceMeter, "observe_many", lambda self, ws: readings.extend(ws))
        session = _long_session(name, algo)
        pairs = list(stream.iter_pairs())
        for _ in range(algo.n_passes):
            for chunk in _long_chunks(pairs):
                assert _feed(session, chunk, path)["pairs"] == len(chunk)
            final = session.finish_pass()
            readings.append(algo.space_words())
        result = None
        estimate, peak = final["estimate"], max(readings)
        mean = sum(readings) / len(readings)
    else:
        meter, memo = SpaceMeter(), ColumnMemo()
        for pass_index in range(algo.n_passes):
            run_single_pass(
                algo, stream.iter_lists(), pass_index, meter, column_provider=memo
            )
        result = None
        estimate, peak, mean = algo.result(), meter.peak_words, meter.mean_words
    if result is not None:
        estimate, peak = result.estimate, result.peak_space_words
        mean = result.mean_space_words
    assert estimate == reference.estimate
    assert peak == reference.peak_space_words
    assert mean == reference.mean_space_words
    assert algo.snapshot().payload == reference_state


def _long_session(name, algo):
    return ServeSession("long", get_spec(LONG_SPECS[name]), algo, budget=LONG_BUDGET)


def _long_chunks(pairs):
    """``pairs`` cut into chunks of the ``LONG_CHUNKS`` sizes in turn."""
    start = 0
    for size in itertools.cycle(LONG_CHUNKS):
        if start >= len(pairs):
            return
        yield pairs[start : start + size]
        start += size


def _recorded_runs(monkeypatch, name, ordering, graph, **kwargs):
    """Run ``name`` with every ``process_run`` call recorded as
    ``(pass, long, lists, pairs)``; return the records."""
    algo = LONG_FACTORIES[name]()
    hook = type(algo).process_run
    records = []

    def recording(self, run, columns):
        pairs = sum(len(neighbors) for _, neighbors in run)
        records.append((self._pass, columns is not None, len(run), pairs))
        return hook(self, run, columns)

    monkeypatch.setattr(type(algo), "process_run", recording)
    run_algorithm(algo, _long_stream(ordering, graph), **kwargs)
    return records


@pytest.mark.parametrize("ordering", ["sorted", "degree_desc"])
def test_long_runs_cut_at_class_pair_cap_and_checkpoint(ordering, monkeypatch, tmp_path):
    """The rows above exercise what they claim: runs switch length class
    mid-pass, and a long run ends at ``RUN_PAIRS`` and at a checkpoint
    boundary with the next list still long."""
    config = CheckpointConfig(tmp_path / "run.ckpt", every_lists=LONG_EVERY)
    records = _recorded_runs(
        monkeypatch, "fourcycle", ordering, "hubs", checkpoint=config
    )
    first = [r for r in records if r[0] == 0]
    classes = [long for _, long, _, _ in first]
    assert any(a != b for a, b in zip(classes, classes[1:]))
    assert any(long and pairs >= RUN_PAIRS for _, long, _, pairs in first)
    done = 0
    cut = False
    for (_, long, lists, _), following in zip(first, first[1:]):
        done += lists
        cut = cut or (long and following[1] and done % LONG_EVERY == 0)
    assert cut


@pytest.mark.parametrize("name", sorted(LONG_FACTORIES))
def test_wide_labels_take_the_ranked_table(name, monkeypatch):
    """Past the direct table's cap every long run still builds one run
    table, indexed by rank; on small labels every table is direct.  No
    long run goes through the per-list hooks on either graph."""
    ranked = []
    init = vectorized.RunMask.__init__

    def recording(self, table, rows, ids=None):
        ranked.append(ids is not None)
        init(self, table, rows, ids)

    def per_list(*args):
        raise AssertionError("a long run took the per-list hooks")

    monkeypatch.setattr(vectorized.RunMask, "__init__", recording)
    for hook in ("process_list", "end_list"):
        monkeypatch.setattr(type(LONG_FACTORIES[name]()), hook, per_list)
    _recorded_runs(monkeypatch, name, "sorted", "hubs-wide")
    assert ranked and all(ranked)
    ranked.clear()
    _recorded_runs(monkeypatch, name, "sorted", "hubs")
    assert ranked and not any(ranked)


def test_session_runs_end_at_chunk_ends(monkeypatch):
    """A session's feeds reach ``process_run``: each feed hands over, in
    runs, exactly the lists its chunk closes, and ``finish_pass`` the
    list left open."""
    algo = LONG_FACTORIES["fourcycle"]()
    hook = type(algo).process_run
    runs = []

    def recording(self, run, columns):
        runs.append([vertex for vertex, _ in run])
        return hook(self, run, columns)

    monkeypatch.setattr(type(algo), "process_run", recording)
    session = _long_session("fourcycle", algo)
    pairs = list(_long_stream("sorted", "hubs").iter_pairs())
    sources = [src for src, _ in pairs]
    for _ in range(algo.n_passes):
        start = 0
        for chunk in _long_chunks(pairs):
            end = start + len(chunk)
            closed = [
                sources[i - 1]
                for i in range(max(start, 1), end)
                if sources[i] != sources[i - 1]
            ]
            runs.clear()
            session.feed(chunk)
            assert [vertex for run in runs for vertex in run] == closed
            start = end
        runs.clear()
        session.finish_pass()
        assert runs == [[sources[-1]]]
