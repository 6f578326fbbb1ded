"""Bit-identity of the columnar kernels against their scalar oracles.

The vectorized layer (:mod:`repro.util.vectorized`) is pure acceleration:
every kernel must agree with the scalar implementation in
:mod:`repro.util.hashing` / :mod:`repro.util.sampling` on every input —
not approximately, bit for bit, because sampler admissions hang off exact
integer comparisons of the hash values.  These hypothesis properties pin
that contract over random ints, int-pair tuples and batch boundaries.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.graph.generators import complete_graph
from repro.graph.graph import canonical_edge
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream
from repro.util import vectorized
from repro.util.hashing import MixHash64, _splitmix64, _to_int_key
from repro.util.sampling import BottomKSampler
from repro.util.vectorized import (
    ColumnMemo,
    EndpointColumns,
    ListMask,
    RUN_PAIRS,
    RunMask,
    RunOffers,
    VertexTable,
    as_vertex_array,
    as_vertex_scalar,
    canonical_pair_columns,
    encode_pair_keys,
    in_sorted,
    mixhash_int_array,
    set_columnar_enabled,
    SHORT_LIST,
    splitmix64_array,
)

uint64s = st.integers(min_value=0, max_value=2**64 - 1)
#: Batch sizes straddle the interesting boundaries: empty, single, odd.
key_batches = st.lists(uint64s, min_size=0, max_size=65)
pair_batches = st.lists(st.tuples(uint64s, uint64s), min_size=0, max_size=65)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _as_u64(values):
    return np.array(values, dtype=np.uint64)


class TestHashKernelsBitIdentical:
    @given(keys=key_batches)
    def test_splitmix64(self, keys):
        out = splitmix64_array(_as_u64(keys))
        assert out.tolist() == [_splitmix64(k) for k in keys]

    @given(pairs=pair_batches)
    def test_encode_pair_keys(self, pairs):
        u = _as_u64([p[0] for p in pairs])
        v = _as_u64([p[1] for p in pairs])
        assert encode_pair_keys(u, v).tolist() == [_to_int_key(p) for p in pairs]

    @given(keys=key_batches, seed=seeds)
    def test_mixhash_int(self, keys, seed):
        h = MixHash64(seed=seed)
        # A plain int key encodes to itself (``_to_int_key`` is the identity).
        out = mixhash_int_array(_as_u64([_to_int_key(k) for k in keys]), h.key)
        assert out.tolist() == [h.hash_int(k) for k in keys]


class TestInputAdaptation:
    def test_rejects_non_int_labels(self):
        assert as_vertex_array(["a", "b"]) is None
        assert as_vertex_array([(1, 2), (3, 4)]) is None
        assert as_vertex_array([True, False]) is None  # bool is not a vertex id
        # Every label is checked, not just the first: 2.5 must not become 2.
        assert as_vertex_array([1, 2.5, 3]) is None
        assert as_vertex_array([1, True]) is None
        assert as_vertex_array([]) is None
        assert as_vertex_scalar("x") is None
        assert as_vertex_scalar(True) is None

    def test_rejects_out_of_range_ints(self):
        assert as_vertex_array([1, -2]) is None
        assert as_vertex_array([1, 2**64]) is None
        assert as_vertex_scalar(-1) is None
        assert as_vertex_scalar(2**64) is None

    @given(values=st.lists(uint64s, min_size=1, max_size=40))
    def test_accepts_plain_ints(self, values):
        out = as_vertex_array(values)
        assert out is not None and out.tolist() == values


class TestMembershipStructures:
    @given(
        members=st.lists(st.integers(0, 500), min_size=0, max_size=40),
        queries=st.lists(st.integers(0, 500), min_size=0, max_size=40),
    )
    def test_in_sorted_matches_python_membership(self, members, queries):
        sorted_members = _as_u64(sorted(set(members)))
        mask = in_sorted(sorted_members, _as_u64(queries))
        assert mask.tolist() == [q in set(members) for q in queries]

    @given(
        members=st.lists(st.integers(0, 500), min_size=1, max_size=40),
        queries=st.lists(st.integers(0, 600), min_size=0, max_size=40),
    )
    def test_vertex_table_matches_in_sorted(self, members, queries):
        table = VertexTable()
        values = _as_u64(sorted(set(members)))
        assert table.mark(values, query_max=600)
        mask = table.lookup(_as_u64(queries)) if queries else []
        assert list(mask) == [q in set(members) for q in queries]
        table.unmark(values)
        if queries:
            assert not table.lookup(_as_u64(queries)).any()

    def test_vertex_table_respects_universe_cap(self):
        table = VertexTable(universe_cap=1000)
        assert not table.mark(_as_u64([2000]), query_max=0)
        assert not table.mark(_as_u64([1]), query_max=5000)
        assert table.mark(_as_u64([1]), query_max=999)


def _logged_twins(capacity, seed):
    """Two equal samplers, each logging its evictions."""
    logs = ([], [])
    batch, scalar = (
        BottomKSampler(capacity, seed=seed, on_evict=log.append) for log in logs
    )
    return batch, scalar, logs


def _offer_per_key(sampler, keys):
    """The oracle: one ``offer`` call per key; the accepted count."""
    return sum(sampler.offer(key) for key in keys)


def _assert_twins_equal(batch, scalar, logs):
    """Same state, same eviction sequence, same offer tallies."""
    assert logs[0] == logs[1]
    assert batch.state_dict() == scalar.state_dict()
    assert batch.members() == scalar.members()
    assert batch.admission_log == scalar.admission_log
    assert (batch.offers, batch.accepted) == (scalar.offers, scalar.accepted)


class TestOfferArrayMatchesScalarSampler:
    """``offer_array`` must leave the sampler in the identical state that
    per-key ``offer``/``offer_many`` calls would, on every prefix."""

    def _samplers(self, capacity, seed):
        return BottomKSampler(capacity, seed=seed), BottomKSampler(capacity, seed=seed)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=0, max_size=80
        ),
        capacity=st.integers(1, 12),
        seed=seeds,
    )
    @settings(max_examples=60)
    def test_state_identical_after_batches(self, edges, capacity, seed):
        edges = [tuple(sorted(e)) for e in edges if e[0] != e[1]]
        vec, scalar = self._samplers(capacity, seed)
        accepted_vec = accepted_scalar = 0
        # Feed in uneven batches to cross batch boundaries mid-stream.
        for start in range(0, len(edges), 7):
            batch = edges[start:start + 7]
            u = _as_u64([e[0] for e in batch])
            v = _as_u64([e[1] for e in batch])
            priorities = vec.priority_array(encode_pair_keys(u, v))
            accepted_vec += vec.offer_array(priorities, batch)
            accepted_scalar += scalar.offer_many(batch)
        assert accepted_vec == accepted_scalar
        assert vec.state_dict() == scalar.state_dict()
        assert vec.members() == scalar.members()
        assert vec.threshold() == scalar.threshold()

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=0, max_size=80
        ),
        capacity=st.integers(0, 12),
        batch_size=st.integers(1, 40),
        seed=seeds,
    )
    @settings(max_examples=60)
    def test_evictions_and_tallies_match_per_key_offers(
        self, edges, capacity, batch_size, seed
    ):
        """Repeats included: the ``on_evict`` sequence and the
        ``offers`` / ``accepted`` tallies equal per-key ``offer`` calls'."""
        edges = [tuple(sorted(e)) for e in edges if e[0] != e[1]]
        vec, scalar, logs = _logged_twins(capacity, seed)
        for start in range(0, len(edges), batch_size):
            batch = edges[start:start + batch_size]
            u = _as_u64([e[0] for e in batch])
            v = _as_u64([e[1] for e in batch])
            accepted = vec.offer_array(vec.priority_array(encode_pair_keys(u, v)), batch)
            assert accepted == _offer_per_key(scalar, batch)
            _assert_twins_equal(vec, scalar, logs)
        assert vec.offers == len(edges)

    @given(seed=seeds)
    def test_empty_batch_is_a_no_op(self, seed):
        vec, scalar = self._samplers(4, seed)
        before = vec.state_dict()
        assert vec.offer_array(np.empty(0, dtype=np.uint64), []) == 0
        assert vec.state_dict() == before
        assert vec.state_dict() == scalar.state_dict()
        assert vec.offers == vec.accepted == 0


class TestRunOffers:
    """A run hashed once and offered list by list (or the rest in one
    batch) leaves the sampler, its evictions and its offer tallies
    exactly as per-key offers would."""

    @given(
        run=st.lists(
            st.tuples(
                st.integers(0, 40), st.lists(st.integers(0, 40), max_size=SHORT_LIST)
            ),
            max_size=30,
        ),
        capacity=st.integers(0, 10),
        split=st.integers(0, 30),
        seed=seeds,
    )
    @settings(max_examples=80)
    def test_matches_per_key_offers(self, run, capacity, split, seed):
        batch, scalar, logs = _logged_twins(capacity, seed)
        offers = RunOffers.of(batch, run)
        if sum(len(neighbors) for _, neighbors in run) < SHORT_LIST:
            assert offers is None
            return
        split = min(split, len(run))
        for index in range(split):
            offers.offer(index)
            vertex, neighbors = run[index]
            _offer_per_key(scalar, [canonical_edge(vertex, n) for n in neighbors])
            _assert_twins_equal(batch, scalar, logs)
        if split < len(run):
            offers.offer_rest(split)
        for vertex, neighbors in run[split:]:
            _offer_per_key(scalar, [canonical_edge(vertex, n) for n in neighbors])
        _assert_twins_equal(batch, scalar, logs)
        assert batch.offers == offers.pairs

    @given(
        run=st.lists(
            st.tuples(
                st.integers(0, 40), st.lists(st.integers(0, 40), max_size=SHORT_LIST)
            ),
            max_size=30,
        ),
        capacity=st.integers(0, 10),
        seed=seeds,
    )
    @settings(max_examples=60)
    def test_offer_all_matches_per_key_offers(self, run, capacity, seed):
        """``offer_all``'s readings, evictions and tallies, list by list."""
        batch, scalar, logs = _logged_twins(capacity, seed)
        offers = RunOffers.of(batch, run)
        if sum(len(neighbors) for _, neighbors in run) < SHORT_LIST:
            assert offers is None
            return
        expected = []
        for vertex, neighbors in run:
            _offer_per_key(scalar, [canonical_edge(vertex, n) for n in neighbors])
            expected.append(scalar.space_words() + 3)
        assert offers.offer_all(3) == expected
        _assert_twins_equal(batch, scalar, logs)

    def test_run_past_the_pair_cap(self):
        """Runs over ``RUN_PAIRS`` pairs (the runner cuts them there) and
        lists just under ``SHORT_LIST`` still match."""
        run = [(v, tuple(range(v + 1, v + SHORT_LIST))) for v in range(RUN_PAIRS // 4)]
        batch, scalar, logs = _logged_twins(64, 3)
        offers = RunOffers.of(batch, run)
        for index, (v, ns) in enumerate(run):
            offers.offer(index)
            _offer_per_key(scalar, [canonical_edge(v, n) for n in ns])
        _assert_twins_equal(batch, scalar, logs)

    @given(
        source=st.integers(0, 200),
        neighbors=st.lists(st.integers(0, 200), min_size=1, max_size=3 * SHORT_LIST),
    )
    def test_one_list_over_its_column_matches_offer_many(self, source, neighbors):
        """A one-list run hashed over the list's memoised column — the
        first-pass offer of a long list — matches scalar ``offer_many``."""
        batch, scalar, logs = _logged_twins(8, 5)
        column = ColumnMemo()(source, neighbors)
        assert column.tolist() == neighbors
        offers = RunOffers.of(batch, [(source, neighbors)], [column])
        offers.offer(0)
        scalar.offer_many([canonical_edge(source, n) for n in neighbors])
        _assert_twins_equal(batch, scalar, logs)

    @pytest.mark.parametrize(
        "run",
        [
            [(0, (1, 2)), ("a", ("b",))],
            [(0, (1, ("x", 2)))],
            [(0, (1, -2))],
            [(0, (1, 2**64))],
            [(0, (True, 2))],
            [(0, (1.0, 2))],
        ],
        ids=["str", "tuple", "negative", "huge", "bool", "float"],
    )
    def test_declines_without_mutating(self, run):
        """A label with no ``uint64`` value, in a run long enough to be
        hashed, sends the run to the scalar offers."""
        run = [(100, tuple(range(SHORT_LIST)))] + run
        sampler = BottomKSampler(4, seed=1)
        before = sampler.state_dict()
        assert RunOffers.of(sampler, run) is None
        assert sampler.state_dict() == before

    def test_short_run_without_columns_is_not_hashed(self):
        """Below ``SHORT_LIST`` pairs a run without columns is left to
        the scalar offers; given columns, even one short list is hashed."""
        run = [(0, tuple(range(1, SHORT_LIST // 2 + 1))), (1, (2, 3))]
        sampler = BottomKSampler(4, seed=1)
        assert RunOffers.of(sampler, run) is None
        assert RunOffers.of(sampler, run * 2) is not None
        column = ColumnMemo()(0, run[0][1])
        assert RunOffers.of(sampler, run[:1], [column]) is not None
        assert sampler.offers == 0


class TestEndpointColumns:
    """The growable columns hold exactly the pairs laid out, in order."""

    @given(
        edges=st.lists(st.tuples(uint64s, uint64s), max_size=90),
        built=st.integers(0, 90),
        extended=st.integers(0, 90),
    )
    def test_view_matches_edges_in_order(self, edges, built, extended):
        payloads = [repr(e) for e in edges]
        cols = EndpointColumns()
        cols.build(edges[:built], payloads[:built], version=1)
        middle = slice(built, built + extended)
        cols.extend(zip(edges[middle], payloads[middle]))
        for edge, payload in zip(edges[built + extended:], payloads[built + extended:]):
            cols.queue(edge, payload)
        a, b, seen, qmax = cols.view()
        assert list(zip(a.tolist(), b.tolist())) == edges
        assert seen == payloads
        assert qmax == max((max(e) for e in edges), default=-1)
        assert not cols.pending and not cols.stale(1)

    @pytest.mark.parametrize("bad", [-1, 2**64, "a", None, 2.5, True])
    def test_non_uint64_label_turns_columns_off(self, bad):
        built_bad = EndpointColumns()
        built_bad.build([(1, 2), (3, bad)], ["x", "y"])
        appended_bad = EndpointColumns()
        appended_bad.build([(1, 2)], ["x"])
        appended_bad.extend([((3, bad), "y")])
        for cols in (built_bad, appended_bad):
            assert cols.view() is None and not cols.stale()
            cols.build([(1, 2)], ["x"])  # stays off for good
            assert cols.view() is None

    def test_rebuild_rules(self):
        cols = EndpointColumns()
        assert cols.stale()
        cols.build([(1, 2), (3, 4)], ["p", "q"], version=7)
        assert not cols.stale(7) and cols.stale(8)
        cols.dead = 1
        assert not cols.stale(7)
        cols.dead = 2  # more than half the entries are dead
        assert cols.stale(7)

    def test_queue_cap_drops_the_columns(self):
        cols = EndpointColumns()
        cols.build([(1, 2)], ["p"])
        for i in range(1 + 64):
            cols.queue((i, i + 1), i)
        assert cols.payloads is not None and len(cols.pending) == 65
        cols.queue((0, 1), "over the cap")
        assert cols.payloads is None and not cols.pending and cols.stale()


class TestListMask:
    @given(
        members=st.lists(st.integers(0, 500), min_size=1, max_size=40),
        pairs=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=40),
        cap=st.sampled_from([1 << 22, 100]),
    )
    def test_both_matches_python_membership(self, members, pairs, cap):
        # cap=100 forces the sorted fallback for most inputs.
        table = VertexTable(universe_cap=cap)
        values = _as_u64(members)
        a = _as_u64([p[0] for p in pairs])
        b = _as_u64([p[1] for p in pairs])
        with ListMask(table, values, query_max=600) as mask:
            assert mask.member(a).tolist() == [x in members for x, _ in pairs]
            assert mask.both(a, b).tolist() == [
                x in members and y in members for x, y in pairs
            ]
        if cap > 600:  # the table path: leaving the mask cleared the marks
            assert not table.lookup(values).any()


class TestRunMask:
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 500), min_size=1, max_size=40), min_size=1, max_size=12
        ),
        pairs=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=40),
    )
    def test_both_matches_python_membership(self, lists, pairs):
        """Row ``r`` of the answer is list ``r``'s :class:`ListMask` answer."""
        mask = RunMask.of([_as_u64(members) for members in lists], query_max=600)
        a = _as_u64([p[0] for p in pairs])
        b = _as_u64([p[1] for p in pairs])
        hit = mask.both(a, b)
        assert hit.T.tolist() == [
            [x in members and y in members for x, y in pairs] for members in lists
        ]
        assert RunMask.by_row(hit) == [
            [i for i, (x, y) in enumerate(pairs) if x in members and y in members]
            for members in lists
        ]

    def test_declines_past_the_cap(self):
        columns = [_as_u64([1, 2]), _as_u64([3, 4])]
        assert RunMask.of(columns, query_max=99, cap=200) is not None
        assert RunMask.of(columns, query_max=100, cap=200) is None
        assert RunMask.of(columns, query_max=0) is not None
        assert RunMask.of([_as_u64([1 << 21])] * 2, query_max=0) is None


class TestAdmissionLog:
    def test_log_covers_membership(self):
        sampler = BottomKSampler(4, seed=3)
        sampler.offer_many([(i, i + 1) for i in range(50)])
        # Superset semantics: every member was admitted since the last
        # compaction (which reseeds the log from the members), so the log
        # always covers the membership; evicted entries may linger.
        assert set(sampler.members()) <= set(sampler.admission_log)

    def test_log_compaction_bumps_epoch(self):
        sampler = BottomKSampler(1, seed=1)
        epoch = sampler.admission_epoch
        # Feed keys in strictly decreasing priority order: every offer
        # displaces the single member, so admissions (and log growth) are
        # deterministic and compaction must trigger.
        keys = sorted(
            [(i, i + 1) for i in range(200)],
            key=sampler.priority,
            reverse=True,
        )
        for key in keys:
            assert sampler.offer(key)
        assert sampler.admission_epoch > epoch
        assert len(sampler.admission_log) <= 4 * 1 + 64
        assert set(sampler.members()) <= set(sampler.admission_log)

    def test_load_state_resets_log(self):
        sampler = BottomKSampler(3, seed=2)
        sampler.offer_many([(i, i + 1) for i in range(30)])
        clone = BottomKSampler(3, seed=99)
        epoch = clone.admission_epoch
        clone.load_state_dict(sampler.state_dict())
        assert clone.admission_epoch > epoch
        assert set(clone.admission_log) == set(clone.members())


class TestColumnMemo:
    def test_identity_hit_and_miss(self):
        memo = ColumnMemo()
        neighbors = [3, 1, 2]
        first = memo(7, neighbors)
        assert first is memo(7, neighbors)  # identity hit: same array back
        assert first.tolist() == neighbors
        reordered = [2, 1, 3]
        second = memo(7, reordered)
        assert second is not first and second.tolist() == reordered

    def test_non_int_labels_memoise_none(self):
        memo = ColumnMemo()
        neighbors = [("a", 1), ("b", 2)]
        assert memo(0, neighbors) is None
        assert memo(0, neighbors) is None


class TestEdgeColumnsMatchCanonicalEdge:
    @given(source=uint64s, neighbors=st.lists(uint64s, min_size=1, max_size=60))
    def test_canonical_pair_columns(self, source, neighbors):
        u, v = canonical_pair_columns(np.uint64(source), _as_u64(neighbors))
        expected = [canonical_edge(source, n) for n in neighbors]
        assert list(zip(u.tolist(), v.tolist())) == expected


class TestColumnarSwitch:
    def test_scalar_oracle_restores_flag(self):
        assert vectorized.columnar_enabled()
        with vectorized.scalar_oracle():
            assert not vectorized.columnar_enabled()
        assert vectorized.columnar_enabled()
        with pytest.raises(RuntimeError):
            with vectorized.scalar_oracle():
                assert not vectorized.columnar_enabled()
                raise RuntimeError("boom")
        assert vectorized.columnar_enabled()

    def test_set_returns_previous_value(self):
        assert set_columnar_enabled(False) is True
        try:
            assert not vectorized.columnar_enabled()
        finally:
            assert set_columnar_enabled(True) is False


class TestPublicApi:
    def test_every_kernel_is_exported_and_exercised_here(self):
        """``__all__`` is the kernel registry: it resolves, it covers every
        public function and class, it exports the scalar-oracle switch, and
        this file references each entry (no kernel ships without a test)."""
        exported = set(vectorized.__all__)
        assert exported <= set(vars(vectorized)), "stale __all__ entry"
        switch = {"scalar_oracle", "set_columnar_enabled", "columnar_enabled"}
        assert switch <= exported, "scalar-oracle switch not exported"
        public = {
            name for name, obj in vars(vectorized).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == vectorized.__name__
        }
        assert public <= exported, "public kernel missing from __all__"
        referenced = set()
        for node in ast.walk(ast.parse(Path(__file__).read_text())):
            referenced.add(getattr(node, "id", getattr(node, "attr", None)))
            if isinstance(node, ast.alias):
                referenced.add(node.name)
        assert exported <= referenced, "kernel never referenced by this file"


class TestShortListCutoff:
    """Lists just below and at ``SHORT_LIST`` match the scalar oracle.

    Every list of the complete graph ``K_n`` holds ``n - 1`` neighbours,
    so ``K_SHORT_LIST`` runs the counters wholly on the short-list route
    and ``K_(SHORT_LIST + 1)`` wholly on the columnar kernels.
    """

    @pytest.mark.parametrize("n", [SHORT_LIST, SHORT_LIST + 1])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: TwoPassTriangleCounter(sample_size=16, seed=3),
            lambda: TwoPassFourCycleCounter(sample_size=16, mode="distinct", seed=3),
        ],
        ids=["triangle", "fourcycle"],
    )
    def test_counters_match_oracle(self, n, make):
        stream = AdjacencyListStream(complete_graph(n), seed=1)
        production_algo = make()
        production = run_algorithm(production_algo, stream)
        oracle_algo = make()
        with vectorized.scalar_oracle():
            oracle = run_algorithm(oracle_algo, stream)
        assert production.estimate == oracle.estimate > 0
        assert production_algo.snapshot().payload == oracle_algo.snapshot().payload
