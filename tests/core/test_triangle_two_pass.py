"""Tests for the two-pass triangle counter (Theorem 3.7)."""

import statistics

import numpy as np
import pytest

from repro.analysis.lightest_edge import h_statistics, rho_assignment
from repro.core.triangle_two_pass import (
    TwoPassTriangleCounter,
    apex,
    recommended_sample_size,
    triangle_edges,
    triangle_key,
)
from repro.graph.counting import count_triangles
from repro.graph.generators import (
    book_graph,
    complete_graph,
    gnm_random_graph,
    random_bipartite_graph,
    windmill_graph,
)
from repro.graph.planted import planted_triangles, planted_triangles_book
from repro.streaming.orderings import ORDERING_FACTORIES
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util.hashing import _to_int_key
from repro.util.vectorized import scalar_oracle


class TestTriangleHelpers:
    def test_triangle_key_sorts(self):
        assert triangle_key(3, 1, 2) == (1, 2, 3)

    def test_triangle_edges(self):
        assert triangle_edges((1, 2, 3)) == ((1, 2), (1, 3), (2, 3))

    def test_apex(self):
        assert apex((1, 2, 3), (1, 2)) == 3
        assert apex((1, 2, 3), (1, 3)) == 2

    def test_apex_invalid(self):
        with pytest.raises(ValueError):
            apex((1, 2, 3), (1, 4))


class TestExactRegime:
    """With m' >= m every candidate is kept: the estimate must be exact."""

    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(7),
            book_graph(10),
            windmill_graph(6),
            gnm_random_graph(40, 150, seed=1),
        ],
    )
    def test_exact_on_families(self, graph):
        truth = count_triangles(graph)
        # Exactness needs both samples unsaturated: S needs m slots, Q needs
        # one slot per candidate pair (3 per triangle when S is everything).
        budget = 2 * graph.m + 3 * truth + 5
        for seed in range(3):
            algo = TwoPassTriangleCounter(sample_size=budget, seed=seed)
            stream = AdjacencyListStream(graph, seed=100 + seed)
            assert run_algorithm(algo, stream).estimate == pytest.approx(truth)

    def test_exact_under_every_ordering(self, small_random_graph):
        truth = count_triangles(small_random_graph)
        budget = 2 * small_random_graph.m + 3 * truth + 5
        for name, factory in ORDERING_FACTORIES.items():
            stream = factory(small_random_graph, seed=7)
            algo = TwoPassTriangleCounter(sample_size=budget, seed=3)
            estimate = run_algorithm(algo, stream).estimate
            assert estimate == pytest.approx(truth), f"ordering {name}"

    def test_triangle_free_graph_gives_zero(self):
        g = random_bipartite_graph(30, 30, 120, seed=2)
        algo = TwoPassTriangleCounter(sample_size=50, seed=3)
        assert run_algorithm(algo, AdjacencyListStream(g, seed=4)).estimate == 0.0

    def test_counted_pairs_equals_t_in_exact_regime(self):
        g = gnm_random_graph(30, 120, seed=5)
        algo = TwoPassTriangleCounter(
            sample_size=2 * g.m + 3 * count_triangles(g) + 5, seed=6
        )
        run_algorithm(algo, AdjacencyListStream(g, seed=7))
        assert algo.counted_pairs() == count_triangles(g)
        assert algo.candidate_total == 3 * count_triangles(g)

    def test_edge_count_measured(self, small_random_graph):
        algo = TwoPassTriangleCounter(sample_size=10, seed=8)
        run_algorithm(algo, AdjacencyListStream(small_random_graph, seed=9))
        assert algo.edge_count == small_random_graph.m


class TestHCountersMatchOracle:
    """The streaming H counters must equal the offline order statistics."""

    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    def test_h_values(self, graph_seed):
        g = gnm_random_graph(25, 90, seed=graph_seed)
        stream = AdjacencyListStream(g, seed=graph_seed + 50)
        algo = TwoPassTriangleCounter(
            sample_size=3 * g.m + 3 * count_triangles(g), seed=graph_seed + 99
        )
        run_algorithm(algo, stream)
        oracle = h_statistics(stream)
        pairs = algo._reservoir.items()
        assert pairs, "expected candidates on a dense random graph"
        checked = 0
        for pair in pairs:
            expected = oracle[pair.triangle]
            for watcher in pair.watchers:
                assert watcher.h == expected[watcher.edge], (
                    f"H mismatch for triangle {pair.triangle} edge {watcher.edge}"
                )
                checked += 1
        assert checked == 3 * len(pairs)

    def test_rho_matches_oracle(self):
        g = gnm_random_graph(25, 90, seed=4)
        stream = AdjacencyListStream(g, seed=44)
        algo = TwoPassTriangleCounter(
            sample_size=3 * g.m + 3 * count_triangles(g), seed=55
        )
        run_algorithm(algo, stream)
        oracle_rho = rho_assignment(stream)
        for pair in algo._reservoir.items():
            assert pair.rho_edge() == oracle_rho[pair.triangle]

    def test_h_values_with_subsampling(self):
        """Even at m' < m the retained pairs' H counters must be exact."""
        g = gnm_random_graph(30, 140, seed=6)
        stream = AdjacencyListStream(g, seed=66)
        algo = TwoPassTriangleCounter(sample_size=60, seed=77)
        run_algorithm(algo, stream)
        oracle = h_statistics(stream)
        for pair in algo._reservoir.items():
            expected = oracle[pair.triangle]
            for watcher in pair.watchers:
                assert watcher.h == expected[watcher.edge]


class TestShardedRho:
    """Sharded ``counted_pairs`` hashes every triangle edge in one kernel
    call; it must count exactly the pairs the scalar ``_rho_sharded`` does."""

    @staticmethod
    def _scalar_count(algo):
        return sum(
            1 for pair in algo._reservoir.items()
            if algo._rho_sharded(pair.triangle) == pair.edge
        )

    def _run(self, graph_seed):
        g = gnm_random_graph(40, 300, seed=graph_seed)
        algo = TwoPassTriangleCounter(sample_size=200, seed=graph_seed, sharded=True)
        run_algorithm(algo, AdjacencyListStream(g, seed=graph_seed + 10))
        assert len(algo._reservoir) > 50
        return algo

    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    def test_kernel_matches_scalar_rho(self, graph_seed):
        algo = self._run(graph_seed)
        assert algo.counted_pairs() == self._scalar_count(algo)

    def test_hash_ties_break_by_edge(self):
        """A two-valued hash ties most edges; the smaller edge must win."""

        class TwoValued:
            def hash_int(self, key):
                return _to_int_key(key) % 2

            def hash_int_array(self, keys):
                return keys % np.uint64(2)

        algo = self._run(4)
        algo._rho_hash = TwoValued()
        counted = algo.counted_pairs()
        assert counted == self._scalar_count(algo)
        assert 0 < counted < len(algo._reservoir)

    def test_scalar_oracle_keeps_scalar_rho(self):
        algo = self._run(5)
        expected = algo.counted_pairs()
        algo._counted_sharded = lambda pairs: pytest.fail("kernel under the oracle")
        with scalar_oracle():
            assert algo.counted_pairs() == expected


class TestStatisticalBehaviour:
    def test_mean_close_to_truth(self, triangle_workload):
        g = triangle_workload.graph
        truth = triangle_workload.true_count
        estimates = []
        for i in range(40):
            algo = TwoPassTriangleCounter(sample_size=g.m // 4, seed=1000 + i)
            stream = AdjacencyListStream(g, seed=2000 + i)
            estimates.append(run_algorithm(algo, stream).estimate)
        assert statistics.mean(estimates) == pytest.approx(truth, rel=0.12)

    def test_theorem_budget_achieves_epsilon(self, triangle_workload):
        g = triangle_workload.graph
        truth = triangle_workload.true_count
        budget = recommended_sample_size(g.m, truth, epsilon=0.5)
        within = 0
        runs = 20
        for i in range(runs):
            algo = TwoPassTriangleCounter(sample_size=budget, seed=3000 + i)
            stream = AdjacencyListStream(g, seed=4000 + i)
            est = run_algorithm(algo, stream).estimate
            if abs(est - truth) <= 0.5 * truth:
                within += 1
        assert within >= runs * 2 // 3

    def test_variance_shrinks_with_budget(self, triangle_workload):
        g = triangle_workload.graph
        spreads = []
        for budget in (g.m // 16, g.m // 2):
            estimates = []
            for i in range(25):
                algo = TwoPassTriangleCounter(sample_size=budget, seed=5000 + i)
                stream = AdjacencyListStream(g, seed=6000 + i)
                estimates.append(run_algorithm(algo, stream).estimate)
            spreads.append(statistics.pstdev(estimates))
        assert spreads[1] < spreads[0]

    def test_accurate_on_heavy_edge_workload(self):
        planted = planted_triangles_book(600, 200, seed=9)
        g = planted.graph
        estimates = []
        for i in range(30):
            algo = TwoPassTriangleCounter(sample_size=g.m // 3, seed=7000 + i)
            stream = AdjacencyListStream(g, seed=8000 + i)
            estimates.append(run_algorithm(algo, stream).estimate)
        assert statistics.median(estimates) == pytest.approx(200, rel=0.35)


class TestSpaceBehaviour:
    def test_space_tracks_budget_not_m(self, triangle_workload):
        g = triangle_workload.graph
        small = run_algorithm(
            TwoPassTriangleCounter(sample_size=50, seed=1),
            AdjacencyListStream(g, seed=2),
        )
        large = run_algorithm(
            TwoPassTriangleCounter(sample_size=800, seed=1),
            AdjacencyListStream(g, seed=2),
        )
        assert small.peak_space_words < large.peak_space_words
        assert small.peak_space_words < 50 * 25  # O(m') words, generous constant

    def test_metadata(self):
        algo = TwoPassTriangleCounter(sample_size=10)
        assert algo.n_passes == 2
        assert algo.requires_same_order

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            TwoPassTriangleCounter(sample_size=0)


class TestRecommendedSampleSize:
    def test_scaling(self):
        base = recommended_sample_size(10000, 1000, epsilon=0.5)
        assert recommended_sample_size(20000, 1000, epsilon=0.5) == pytest.approx(
            2 * base, rel=0.01
        )

    def test_t_exponent(self):
        small_t = recommended_sample_size(10**6, 10**3)
        big_t = recommended_sample_size(10**6, 10**6)
        assert small_t / big_t == pytest.approx(10 ** (3 * 2 / 3), rel=0.01)

    def test_zero_triangles_means_store_everything(self):
        assert recommended_sample_size(500, 0) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_sample_size(-1, 10)
        with pytest.raises(ValueError):
            recommended_sample_size(10, 10, epsilon=0)
