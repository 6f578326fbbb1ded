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
    RUN_PAIRS,
    RunMask,
    RunOffers,
    as_vertex_array,
    canonical_pair_columns,
    encode_pair_keys,
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

    def test_rejects_out_of_range_ints(self):
        assert as_vertex_array([1, -2]) is None
        assert as_vertex_array([1, 2**64]) is None

    @given(values=st.lists(uint64s, min_size=1, max_size=40))
    def test_accepts_plain_ints(self, values):
        out = as_vertex_array(values)
        assert out is not None and out.tolist() == values


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
    def test_admitted_lists_match_per_key_offers(self, run, capacity, seed):
        """Offered list by list while the sample fills and the rest in
        one batch, ``admitted`` names every admission's pair and key, in
        order, as per-key offers make them: ``lists_of`` dates each pair
        and ``ends`` holds its key's endpoints."""
        batch, scalar, logs = _logged_twins(capacity, seed)
        offers = RunOffers.of(batch, run)
        if offers is None:
            return
        admitted = []
        index = 0
        while index < len(run) and len(batch) < capacity:
            offers.offer(index, admitted)
            index += 1
        if index < len(run):
            offers.offer_rest(index, admitted)
        expected = []
        for row, (vertex, neighbors) in enumerate(run):
            for key in [canonical_edge(vertex, n) for n in neighbors]:
                fresh = key not in scalar
                if scalar.offer(key) and fresh:
                    expected.append((row, key))
        pairs = np.array([pair for pair, _ in admitted], dtype=np.intp)
        rows = offers.lists_of(pairs).tolist()
        assert list(zip(rows, [key for _, key in admitted])) == expected
        u, v = offers.ends
        assert list(zip(u[pairs].tolist(), v[pairs].tolist())) == [key for _, key in expected]
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
        columned=st.integers(0, 90),
    )
    def test_view_matches_edges_in_order(self, edges, built, extended, columned):
        payloads = [repr(e) for e in edges]
        cols = EndpointColumns()
        cols.build(edges[:built], payloads[:built], version=1)
        middle = slice(built, built + extended)
        cols.extend(zip(edges[middle], payloads[middle]))
        given = slice(built + extended, built + extended + columned)
        ends = np.array(edges[given], dtype=np.uint64).reshape(-1, 2)
        cols.extend_columns((ends[:, 0], ends[:, 1]), payloads[given])
        rest = built + extended + columned
        for edge, payload in zip(edges[rest:], payloads[rest:]):
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


class TestRunMask:
    @given(
        lists=st.lists(
            st.lists(st.integers(0, 500), min_size=1, max_size=40), min_size=1, max_size=12
        ),
        pairs=st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=40),
        cap=st.sampled_from([1 << 22, 100]),
        shift=st.sampled_from([0, 1 << 40, (1 << 64) - 601]),
    )
    def test_both_matches_python_membership(self, lists, pairs, cap, shift):
        """Row ``r`` of the answer is list ``r``'s membership, on a direct
        table and on a ranked one (``cap=100`` or ids past ``2^40``)."""
        lists = [[x + shift for x in members] for members in lists]
        pairs = [(x + shift, y + shift) for x, y in pairs]
        query_max = 600 + shift
        mask = RunMask.of([_as_u64(members) for members in lists], query_max, cap=cap)
        assert (mask._ids is None) == (shift == 0 and cap > 600 * 16)
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
        # hits: only the edges some list holds, with the same rows.
        entries, rows = mask.hits(a, b)
        assert entries.tolist() == [i for i, row in enumerate(hit.tolist()) if any(row)]
        assert rows.tolist() == hit[entries].tolist()
        assert RunMask.by_row(rows, entries) == RunMask.by_row(hit)
        ids = [x for x, _ in pairs]
        for row, members in enumerate(lists):
            for x in ids:
                assert bool(mask.holds(x, row)) == (x in members)
            if ids:
                assert mask.holds(_as_u64(ids), np.full(len(ids), row)).tolist() == [
                    x in members for x in ids
                ]
        assert (mask.index(a) < mask.size).all()

    def test_declines_past_the_cap(self):
        """Past the cap the direct table is declined for a ranked one, and
        ids asked for get rows of their own: a source that no list holds
        still has a row for the counter's source lookups."""
        # Two lists take 8 cells per id (padding included): 25 ids fill 200.
        columns = [_as_u64([1, 2]), _as_u64([3, 4])]
        assert RunMask.of(columns, query_max=24, cap=200)._ids is None
        ranked = RunMask.of(columns, query_max=25, cap=200)
        assert ranked._ids.tolist() == [1, 2, 3, 4] and ranked.size == 5
        assert RunMask.of(columns, query_max=0)._ids is None
        wide = RunMask.of([_as_u64([1 << 21])] * 2, query_max=0)
        assert wide._ids.tolist() == [1 << 21]
        sources = _as_u64([9, 1 << 60])
        ranked = RunMask.of(columns, query_max=25, cap=200, ids=sources)
        assert ranked.size == 7
        rows = ranked.index(_as_u64([9, 1 << 60, 5, 3]))
        assert rows.tolist()[2] == ranked.size - 1 and len(set(rows.tolist())) == 4
        hit = ranked.both(_as_u64([9, 1]), _as_u64([1 << 60, 2]))
        assert hit.tolist() == [[False, False], [True, False]]

    @pytest.mark.parametrize("lists", [1, 2, 3, 7, 8, 9])
    def test_cap_counts_the_padding(self, lists):
        """The cap bounds the cells allocated: a run of 1-8 lists takes 8
        per id, a run of 9-16 lists 16.  Within it the direct table has a
        row per id up to ``query_max``; past it the ranked table has one
        per distinct id of the run, plus the all-False row."""
        width = 8 if lists <= 8 else 16
        columns = [_as_u64([0])] + [_as_u64([5, 1023])] * (lists - 1)
        mask = RunMask.of(columns, query_max=1023, cap=1024 * width)
        assert mask._ids is None and mask._table.size == 1024 * width
        mask = RunMask.of(columns, query_max=1024, cap=1024 * width)
        distinct = 1 if lists == 1 else 3
        assert mask._ids is not None and mask._table.size == (distinct + 1) * width


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
