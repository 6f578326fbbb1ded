"""End-to-end columnar-vs-scalar equivalence for the two-pass counters.

The scalar implementations are the correctness oracle for the whole
columnar fast path (vectorized hashing, batched sampler offers, columnar
watcher/detection scans, column providers, and the short-list route that
probes neighbour pairs for lists below ``SHORT_LIST``).  These tests run
the same seeded workload through both paths and require *bit-identical*
outcomes — estimates, space peaks and internal observables — under every
dispatch combination, including the sharded driver whose workers now
reuse per-shard column memos across passes.
"""

import random

import pytest

from repro.core.adaptive import AdaptiveTriangleCounter
from repro.core.boosting import MedianBoosted
from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.transitivity import TransitivityEstimator
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.generators import gnm_random_graph
from repro.graph.graph import Graph
from repro.graph.planted import planted_triangles
from repro.sketch.checkpoint import CheckpointConfig, load_checkpoint
from repro.sketch.driver import run_sharded
from repro.streaming.runner import run_algorithm, run_single_pass
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import AdjacencyListStream
from repro.util import vectorized
from repro.util.vectorized import SHORT_LIST, ColumnMemo, scalar_oracle

FACTORIES = {
    "triangle": lambda: TwoPassTriangleCounter(sample_size=48, seed=42),
    "fourcycle": lambda: TwoPassFourCycleCounter(sample_size=48, seed=42),
}

# The triangle counter's H-watcher ρ-rule needs whole-stream pass-2 state,
# so sharded runs require its explicit sharded mode (hash-designated ρ).
SHARDED_FACTORIES = {
    "triangle": lambda: TwoPassTriangleCounter(sample_size=48, seed=42, sharded=True),
    "fourcycle": lambda: TwoPassFourCycleCounter(sample_size=48, seed=42),
}


def _mixed_label_graph():
    """G(n, m) plus vertices -1, -7 and 2**64 + 3, each wired to 40 ints.

    Those three labels have no uint64 value.  Under the stream order used
    below, the triangle counter builds its member and watcher columns
    from int labels first, and each turns off when an edge on one of the
    three is appended, mid-run; the scalar path takes over from there.
    """
    graph = gnm_random_graph(240, 2400, seed=7)
    rng = random.Random(26)
    for special in (-1, -7, 2**64 + 3):
        for nbr in rng.sample(range(240), 40):
            graph.add_edge(special, nbr)
    return graph


@pytest.fixture(params=["gnm", "mixed-labels"])
def stream(request):
    if request.param == "gnm":
        return AdjacencyListStream(gnm_random_graph(120, 1500, seed=7), seed=5)
    return AdjacencyListStream(_mixed_label_graph(), seed=2)


@pytest.fixture(params=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


def _run(factory, stream, *, fast, columnar):
    algo = factory()
    if columnar:
        result = run_algorithm(algo, stream, use_fast_path=fast)
    else:
        with scalar_oracle():
            result = run_algorithm(algo, stream, use_fast_path=fast)
    return algo, result


class TestFullRunEquivalence:
    def test_all_dispatch_tiers_bit_identical(self, factory, stream):
        runs = {
            (fast, columnar): _run(factory, stream, fast=fast, columnar=columnar)
            for fast in (False, True)
            for columnar in (False, True)
        }
        base_algo, base_result = runs[(False, False)]
        for (fast, columnar), (algo, result) in runs.items():
            label = f"fast={fast}, columnar={columnar}"
            assert result.estimate == base_result.estimate, label
            assert result.peak_space_words == base_result.peak_space_words, label
            assert algo.observables() == base_algo.observables(), label

    def test_explicit_column_provider_is_transparent(self, factory, stream):
        """``run_single_pass`` per pass over an explicit provider reads
        every long list's column from it, and ends as ``run_algorithm``."""
        memo, calls = ColumnMemo(), []

        def provider(vertex, neighbors):
            calls.append(vertex)
            return memo(vertex, neighbors)

        algo_memo, meter = factory(), SpaceMeter()
        for pass_index in range(algo_memo.n_passes):
            run_single_pass(
                algo_memo, stream.iter_lists(), pass_index, meter, column_provider=provider
            )
        long = [v for v, nbrs in stream.iter_lists() if len(nbrs) >= SHORT_LIST]
        assert long and calls == long * algo_memo.n_passes
        algo_plain = factory()
        plain = run_algorithm(algo_plain, stream)
        assert algo_memo.result() == plain.estimate
        assert meter.peak_words == plain.peak_space_words
        assert meter.mean_words == plain.mean_space_words
        assert algo_memo.observables() == algo_plain.observables()


class TestShardedEquivalence:
    @pytest.fixture(params=sorted(SHARDED_FACTORIES))
    def sharded_factory(self, request):
        return SHARDED_FACTORIES[request.param]

    def test_sharded_columnar_matches_scalar(self, sharded_factory, stream):
        columnar = run_sharded(sharded_factory(), stream, n_shards=3)
        with scalar_oracle():
            scalar = run_sharded(sharded_factory(), stream, n_shards=3)
        assert columnar.estimate == scalar.estimate
        assert columnar.peak_space_words == scalar.peak_space_words

    def test_effective_parallelism_recorded(self, sharded_factory, stream):
        result = run_sharded(sharded_factory(), stream, n_shards=2, workers=None)
        assert result.effective_parallelism == 1
        import os

        pooled = run_sharded(sharded_factory(), stream, n_shards=2, workers=4)
        assert pooled.workers == 4
        assert pooled.effective_parallelism == min(4, 2, os.cpu_count() or 1)
        assert pooled.estimate == result.estimate


# -- lists on both sides of the short-list cutoff ------------------------------

MIXED_FACTORIES = {
    "triangle": lambda: TwoPassTriangleCounter(sample_size=96, seed=42),
    "fourcycle-multiplicity": lambda: TwoPassFourCycleCounter(
        sample_size=96, mode="multiplicity", seed=42
    ),
    "fourcycle-distinct": lambda: TwoPassFourCycleCounter(
        sample_size=96, mode="distinct", seed=42
    ),
}

MIXED_SHARDED_FACTORIES = {
    "triangle": lambda: TwoPassTriangleCounter(sample_size=96, seed=42, sharded=True),
    "fourcycle": lambda: TwoPassFourCycleCounter(sample_size=96, seed=42),
}


def _mixed_degree_graph():
    """Sparse planted triangles plus hubs whose degrees straddle SHORT_LIST.

    Most lists hold about 2 neighbours (probe route); the hubs and their
    cross links give lists at, just below and well above the cutoff
    (columnar route), interleaved in one pass, plus triangles and
    4-cycles through the hubs.
    """
    graph = planted_triangles(120, 20, seed=11).graph
    rng = random.Random(13)
    sparse = sorted(graph.vertices())
    hub = max(sparse) + 1
    degrees = (SHORT_LIST - 1, SHORT_LIST, SHORT_LIST + 1, 3 * SHORT_LIST)
    hubs = []
    for degree in degrees:
        # The cross links below add the other hubs to each hub's list.
        for nbr in rng.sample(sparse, degree - (len(degrees) - 1)):
            graph.add_edge(hub, nbr)
        hubs.append(hub)
        hub += 1
    for i, a in enumerate(hubs):
        for b in hubs[i + 1 :]:
            graph.add_edge(a, b)
    return graph


@pytest.fixture(scope="module")
def mixed_stream():
    stream = AdjacencyListStream(_mixed_degree_graph(), seed=5)
    lengths = [len(nbrs) for _, nbrs in stream.iter_lists()]
    assert min(lengths) < SHORT_LIST <= max(lengths)
    assert SHORT_LIST - 1 in lengths and SHORT_LIST in lengths
    return stream


class TestShortListCutoffEquivalence:
    @pytest.fixture(params=sorted(MIXED_FACTORIES))
    def mixed_factory(self, request):
        return MIXED_FACTORIES[request.param]

    def test_all_dispatch_tiers_bit_identical(self, mixed_factory, mixed_stream):
        runs = {
            (fast, columnar): _run(mixed_factory, mixed_stream, fast=fast, columnar=columnar)
            for fast in (False, True)
            for columnar in (False, True)
        }
        base_algo, base_result = runs[(False, False)]
        assert base_result.estimate > 0
        base_payload = base_algo.snapshot().payload
        for (fast, columnar), (algo, result) in runs.items():
            label = f"fast={fast}, columnar={columnar}"
            assert result.estimate == base_result.estimate, label
            assert result.peak_space_words == base_result.peak_space_words, label
            assert algo.snapshot().payload == base_payload, label
            assert algo.observables() == base_algo.observables(), label

    def test_resume_from_every_pass_two_checkpoint(
        self, mixed_factory, mixed_stream, tmp_path
    ):
        """Resuming mid-pass 2 rebuilds the derived indexes (the wedge
        index, the watcher and member columns) from the restored state,
        even in a counter whose indexes already hold another graph's."""
        config = _KeepEveryCheckpoint(tmp_path / "run.ckpt", every_lists=7)
        uninterrupted_algo = mixed_factory()
        uninterrupted = run_algorithm(uninterrupted_algo, mixed_stream, checkpoint=config)
        pass_two = [c for c in config.kept if c.pass_index == 1 and c.lists_done > 0]
        assert pass_two
        payload = uninterrupted_algo.snapshot().payload
        other = AdjacencyListStream(planted_triangles(60, 10, seed=99).graph, seed=1)
        for checkpoint in pass_two:
            algo = mixed_factory()
            run_algorithm(algo, other)
            resumed = run_algorithm(algo, mixed_stream, resume_from=checkpoint)
            label = checkpoint.lists_done
            assert resumed.estimate == uninterrupted.estimate, label
            assert resumed.peak_space_words == uninterrupted.peak_space_words, label
            assert algo.snapshot().payload == payload, label

    @pytest.mark.parametrize("name", sorted(MIXED_SHARDED_FACTORIES))
    def test_sharded_columnar_matches_scalar(self, name, mixed_stream):
        make = MIXED_SHARDED_FACTORIES[name]
        columnar_algo = make()
        columnar = run_sharded(columnar_algo, mixed_stream, n_shards=3)
        scalar_algo = make()
        with scalar_oracle():
            scalar = run_sharded(scalar_algo, mixed_stream, n_shards=3)
        assert scalar.estimate > 0
        assert columnar.estimate == scalar.estimate
        assert columnar.peak_space_words == scalar.peak_space_words
        assert columnar_algo.snapshot().payload == scalar_algo.snapshot().payload


class TestWatcherPendingBound:
    """Short lists never drain the watcher columns' pending tail, so the
    triangle counter caps it: past the cap the columns are dropped and the
    next long list rebuilds them from the watcher index."""

    def test_capped_tail_rebuilds_bit_identically(self, monkeypatch):
        # A book — spine (0, 1) plus 300 degree-2 pages — whose pages come
        # right after a star hub: the hub builds the watcher columns early
        # in pass 2, then every page offers a fresh pair on the spine.
        pages = range(2, 302)
        hub = 302
        graph = Graph(edges=[(0, 1)])
        for page in pages:
            graph.add_edge(0, page)
            graph.add_edge(1, page)
        leaves = range(hub + 1, hub + 1 + 2 * SHORT_LIST)
        for leaf in leaves:
            graph.add_edge(hub, leaf)
        stream = AdjacencyListStream(
            graph, list_order=[hub, *pages, 0, 1, *leaves], seed=1
        )
        make = lambda: TwoPassTriangleCounter(sample_size=100, seed=1)  # noqa: E731

        register = TwoPassTriangleCounter._register_watchers
        drops = []

        def tracking(self, pair, current_list):
            built = self._wcols.payloads
            register(self, pair, current_list)
            assert len(self._wcols.pending) <= len(built or ()) + 64
            if built is not None and self._wcols.payloads is None:
                drops.append(len(built))

        monkeypatch.setattr(TwoPassTriangleCounter, "_register_watchers", tracking)
        production_algo = make()
        production = run_algorithm(production_algo, stream)
        assert (0, 1) in production_algo._sampler  # the spine drives the churn
        assert drops
        oracle_algo = make()
        with scalar_oracle():
            oracle = run_algorithm(oracle_algo, stream)
        assert production.estimate == oracle.estimate
        assert production.peak_space_words == oracle.peak_space_words
        assert production_algo.snapshot().payload == oracle_algo.snapshot().payload


class _KeepEveryCheckpoint(CheckpointConfig):
    """Keeps every checkpoint it writes, not just the latest on disk."""

    def __post_init__(self):
        super().__post_init__()
        self.kept = []

    def write(self, *args, **kwargs):
        record = super().write(*args, **kwargs)
        self.kept.append(load_checkpoint(self.path))
        return record


#: The fan-out wrappers, each over two-pass triangle counters.
WRAPPER_FACTORIES = {
    "adaptive": lambda: AdaptiveTriangleCounter(96, seed=42),
    "boosted": lambda: MedianBoosted(
        lambda seed: TwoPassTriangleCounter(sample_size=96, seed=seed), 3, seed=42
    ),
    "transitivity": lambda: TransitivityEstimator(96, seed=42),
}


class _Forbidden:
    """Stands in for a columnar kernel: any call or attribute raises."""

    def __init__(self, name):
        self._name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self._name} entered")

    def __getattr__(self, attr):
        raise AssertionError(f"{self._name} entered")


class TestOraclePinned:
    """The scalar oracle never enters the short-list probe route, and the
    per-list hooks — per-pair dispatch runs nothing else — are scalar."""

    PROBES = (
        (TwoPassTriangleCounter, "_count_h_probe"),
        (TwoPassTriangleCounter, "_detect_probe"),
        (TwoPassFourCycleCounter, "_complete_probe"),
    )

    @pytest.fixture
    def probes_raise(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("probe route entered")

        for cls, name in self.PROBES:
            monkeypatch.setattr(cls, name, forbidden)

    @pytest.mark.parametrize("name", sorted(MIXED_FACTORIES))
    def test_oracle_runs_without_probes(self, name, mixed_stream, probes_raise):
        for fast in (False, True):
            with scalar_oracle():
                result = run_algorithm(
                    MIXED_FACTORIES[name](), mixed_stream, use_fast_path=fast
                )
            assert result.estimate > 0

    @pytest.mark.parametrize("name", sorted(MIXED_FACTORIES))
    def test_production_path_takes_probes(self, name, mixed_stream, probes_raise):
        with pytest.raises(AssertionError, match="probe route entered"):
            run_algorithm(MIXED_FACTORIES[name](), mixed_stream)

    KERNELS = ("RunOffers", "RunMask", "as_vertex_array")

    @pytest.fixture
    def kernels_raise(self, monkeypatch, probes_raise):
        for name in self.KERNELS:
            monkeypatch.setattr(vectorized, name, _Forbidden(name))

    @pytest.mark.parametrize("name", sorted(MIXED_FACTORIES) + sorted(WRAPPER_FACTORIES))
    def test_per_list_hooks_are_scalar(self, name, mixed_stream, kernels_raise):
        """Kernels on, per-pair dispatch: only ``process`` and the
        per-list hooks run, and they enter no columnar kernel."""
        make = MIXED_FACTORIES.get(name) or WRAPPER_FACTORIES[name]
        assert run_algorithm(make(), mixed_stream, use_fast_path=False).estimate > 0

    @pytest.mark.parametrize("name", sorted(WRAPPER_FACTORIES))
    def test_wrappers_take_the_kernels_on_the_fast_path(
        self, name, mixed_stream, kernels_raise
    ):
        with pytest.raises(AssertionError, match="entered"):
            run_algorithm(WRAPPER_FACTORIES[name](), mixed_stream)
