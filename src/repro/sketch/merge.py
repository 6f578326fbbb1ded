"""Merging sketch states across stream shards.

Bottom-k sketches are mergeable *by construction*: membership is a pure
function of the offered key set (the ``k`` smallest fixed priorities), so
the union of per-shard member sets re-truncated to ``k`` is exactly the
bottom-k sample of the concatenated stream — bit-identical, not just
equal in distribution.  Around that anchor this module composes the other
state components the two-pass counters carry:

* **additive counters** (pair counts, candidate totals) merge by summing
  per-shard deltas over the common base state — exact;
* **set-valued state** (``seen`` edge sets, distinct-cycle keys) merges by
  union — exact;
* **reservoir samples** over *disjoint* shard streams merge by weighted
  draw (multivariate hypergeometric allocation over the shards' offered
  counts, then uniform picks within each shard's sample), which preserves
  uniformity over the union.  Only that case merges: reservoirs that
  evolved from a base already holding items raise :class:`MergeError`.

``merge_states`` dispatches on ``SketchState.kind`` through a registry so
new algorithms can plug in their own mergers.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sketch.samplers import BOTTOM_K_KIND, RESERVOIR_KIND
from repro.sketch.state import SketchState, SketchStateError
from repro.util.rng import SeedLike, resolve_rng

TRIANGLE_KIND = "triangle-two-pass"
FOURCYCLE_KIND = "fourcycle-two-pass"

#: Merger signature: (shard payloads, base payload or None, rng) -> payload.
Merger = Callable[[Sequence[Dict], Optional[Dict], random.Random], Dict]

MERGERS: Dict[str, Merger] = {}


class MergeError(ValueError):
    """Raised when states cannot be merged soundly."""


def require_exact_merge(algorithm: Any) -> None:
    """The admission rule of every merge path: raise
    :class:`~repro.sketch.state.SketchStateError` for an algorithm whose
    states do not merge exactly.

    An algorithm with an explicit sharded mode (the triangle counter's
    hash-designated ρ) merges exactly only in that mode: its conventional
    mode picks ρ(τ) by H counters measured over a whole pass, which no
    shard's state holds.  ``run_sharded`` and the serve ``merge`` op both
    call this before they merge or close anything.
    """
    if getattr(algorithm, "sharded", True) is False:
        raise SketchStateError(
            f"{type(algorithm).__name__} was constructed in conventional "
            "mode, whose states do not merge exactly; pass sharded=True to "
            "its constructor to shard or merge it"
        )


def register_merger(kind: str) -> Callable[[Merger], Merger]:
    """Class of decorator registering a merger for a state ``kind``."""

    def decorate(fn: Merger) -> Merger:
        MERGERS[kind] = fn
        return fn

    return decorate


def merge_states(
    states: Sequence[SketchState],
    base: Optional[SketchState] = None,
    seed: SeedLike = 0,
) -> SketchState:
    """Merge per-shard states (all of one kind) into a single state.

    ``base`` is the common state every shard started from; mergers use it
    to turn per-shard counter values into deltas.  Passing the wrong base
    double-counts.  ``seed`` drives the randomised parts of the merge
    (reservoir slot allocation); the default is deterministic.
    """
    states = list(states)
    if not states:
        raise MergeError("nothing to merge")
    kind, version = states[0].kind, states[0].version
    for state in states[1:]:
        state.require(kind, version)
    if base is not None:
        base.require(kind, version)
    merger = MERGERS.get(kind)
    if merger is None:
        raise MergeError(f"no merger registered for state kind {kind!r}")
    rng = resolve_rng(seed)
    payload = merger(
        [state.payload for state in states],
        base.payload if base is not None else None,
        rng,
    )
    return SketchState(kind, version, payload)


# -- shared helpers ----------------------------------------------------------


def _as_key(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def _delta_sum(values: Sequence[int], base: int) -> int:
    """Base plus the per-shard increments over it (exact for counters)."""
    return base + sum(v - base for v in values)


def _require_equal(payloads: Sequence[Dict], field: str) -> Any:
    value = payloads[0][field]
    for p in payloads[1:]:
        if p[field] != value:
            raise MergeError(
                f"shard states disagree on {field!r}: {value!r} vs {p[field]!r}"
            )
    return value


def merge_bottom_k_payloads(payloads: Sequence[Dict]) -> Dict:
    """Union-and-truncate merge of ``BottomKSampler.state_dict`` payloads.

    Exact: the result equals the state of one sampler fed every shard's
    keys, because membership depends only on the key set and the shared
    hash function (same ``hash_key`` required).
    """
    capacity = _require_equal(payloads, "capacity")
    hash_key = _require_equal(payloads, "hash_key")
    union: Dict[Any, int] = {}
    for payload in payloads:
        for key, priority in payload["members"]:
            union[_as_key(key)] = int(priority)
    members = sorted(union.items(), key=lambda e: (e[1], repr(e[0])))[:capacity]
    return {"capacity": capacity, "hash_key": hash_key, "members": members}


def _weighted_fill(
    pools: Sequence[Tuple[List[Any], int]], k: int, rng: random.Random
) -> List[Any]:
    """Draw up to ``k`` items uniformly from the union behind the pools.

    Each pool is ``(sample_items, population_count)`` where the items are a
    uniform sample of a population of that size.  Slots are allocated to
    pools in proportion to their remaining population (multivariate
    hypergeometric), then filled with uniform picks from the pool's sample
    — the standard distributed-reservoir merge.  Exact whenever no pool's
    sample is exhausted before its allocation (always true for saturated
    equal-capacity reservoirs); exhausted pools simply drop out.
    """
    samples = [list(items) for items, _ in pools]
    if sum(len(s) for s in samples) <= k:
        return [item for s in samples for item in s]
    weights = [max(int(n), len(s)) for (_, n), s in zip(pools, samples)]
    picked: List[Any] = []
    while len(picked) < k:
        total = sum(w for w, s in zip(weights, samples) if s)
        if total <= 0:
            break
        r = rng.randrange(total)
        for i, sample in enumerate(samples):
            if not sample:
                continue
            if r < weights[i]:
                picked.append(sample.pop(rng.randrange(len(sample))))
                weights[i] -= 1
                break
            r -= weights[i]
    return picked


def merge_reservoir_payloads(
    payloads: Sequence[Dict], base: Optional[Dict], rng: random.Random
) -> Dict:
    """Merge ``ReservoirSampler.state_dict`` payloads.

    The shards' candidate streams past ``base`` are disjoint, so the
    weighted merge is uniform over their union.  A base whose reservoir
    holds items raises :class:`MergeError`: shards that share collected
    items have no merge that keeps the sample uniform.
    """
    capacity = _require_equal(payloads, "capacity")
    base_offered = 0
    if base is not None:
        if base["items"]:
            raise MergeError(
                "the base reservoir holds items: shards that share collected "
                "items do not merge exactly"
            )
        base_offered = int(base["offered"])
    pools = [(list(p["items"]), int(p["offered"]) - base_offered) for p in payloads]
    return {
        "capacity": capacity,
        "offered": _delta_sum([int(p["offered"]) for p in payloads], base_offered),
        "rng_state": payloads[0]["rng_state"],
        "items": _weighted_fill(pools, capacity, rng),
    }


# -- registered mergers ------------------------------------------------------


@register_merger(BOTTOM_K_KIND)
def _merge_bottom_k(payloads, base, rng):
    # Base is irrelevant: membership is a pure function of the key union.
    return merge_bottom_k_payloads(payloads)


@register_merger(RESERVOIR_KIND)
def _merge_reservoir(payloads, base, rng):
    return merge_reservoir_payloads(payloads, base, rng)


@register_merger(TRIANGLE_KIND)
def _merge_triangle(payloads, base, rng):
    """Merge two-pass triangle counter states.

    Exact components: the bottom-k edge sample, the pair/candidate
    counters, and the pass-2 ``seen`` set.  The candidate reservoir is the
    estimator-preserving weighted merge of the disjoint candidate slices
    shards collect in the sharded mode, whose base holds no pairs; a base
    holding pairs raises :class:`MergeError`.  Reservoir pairs whose edge
    fell out of the merged sample are dropped, mirroring the eviction
    callback of the single-stream algorithm.
    """
    for field in ("sample_size", "sharded", "rho_key", "pass"):
        _require_equal(payloads, field)
    first = payloads[0]
    sampler = merge_bottom_k_payloads([p["sampler"] for p in payloads])
    member_edges = {_as_key(k) for k, _ in sampler["members"]}

    def base_field(field: str) -> int:
        return int(base[field]) if base is not None else 0

    seen: set = set()
    for payload in payloads:
        seen.update(_as_key(e) for e in payload["seen_p2"])

    reservoir = merge_reservoir_payloads(
        [p["reservoir"] for p in payloads],
        base["reservoir"] if base is not None else None,
        rng,
    )
    reservoir["items"] = [
        item for item in reservoir["items"] if item["edge"] in member_edges
    ]

    return {
        "sample_size": first["sample_size"],
        "sharded": first["sharded"],
        "rho_key": first["rho_key"],
        "pass": first["pass"],
        "pair_count": _delta_sum(
            [int(p["pair_count"]) for p in payloads], base_field("pair_count")
        ),
        "candidate_total": _delta_sum(
            [int(p["candidate_total"]) for p in payloads],
            base_field("candidate_total"),
        ),
        "seen_p2": sorted(seen, key=repr),
        "sampler": sampler,
        "reservoir": reservoir,
    }


@register_merger(FOURCYCLE_KIND)
def _merge_fourcycle(payloads, base, rng):
    """Merge two-pass 4-cycle counter states — exact in every component.

    The edge sample merges by union-and-truncate; pair and multiplicity
    counters are delta-additive (each completion list lives in exactly one
    shard); distinct-cycle keys union.  The wedge set ``Q`` is rebuilt
    deterministically by every shard from the shared post-pass-1 state, so
    shards must agree on it exactly — disagreement means the states did
    not evolve from a common base and the merge refuses.
    """
    for field in ("sample_size", "mode", "wedge_cap", "pass"):
        _require_equal(payloads, field)
    first = payloads[0]
    sampler = merge_bottom_k_payloads([p["sampler"] for p in payloads])
    wedges = _require_equal(payloads, "wedges")
    wedge_population = _require_equal(payloads, "wedge_population")
    wedge_rng_state = _require_equal(payloads, "wedge_rng_state")

    def base_field(field: str) -> int:
        return int(base[field]) if base is not None else 0

    distinct: set = set()
    for payload in payloads:
        distinct.update(_as_key(c) for c in payload["distinct"])

    return {
        "sample_size": first["sample_size"],
        "mode": first["mode"],
        "wedge_cap": first["wedge_cap"],
        "pass": first["pass"],
        "pair_count": _delta_sum(
            [int(p["pair_count"]) for p in payloads], base_field("pair_count")
        ),
        "multiplicity_total": _delta_sum(
            [int(p["multiplicity_total"]) for p in payloads],
            base_field("multiplicity_total"),
        ),
        "wedge_population": wedge_population,
        "wedge_rng_state": wedge_rng_state,
        "sampler": sampler,
        "wedges": wedges,
        "distinct": sorted(distinct, key=repr),
    }
