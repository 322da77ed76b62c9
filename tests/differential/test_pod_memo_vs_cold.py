"""The pod subproblem memo vs a cold solve: exact agreement.

``pod_theta`` solves each distinct pod (or coarse) subproblem once and
serves equal subproblems from a process-wide solution memo keyed by
(subgraph fingerprint, commodity multiset, rate).  The memo is a pure
cache, so a value it returns must equal what a cold
``max_concurrent_flow`` of the same problem computes — on pristine,
dimmed and lane-failed fabrics, for repeated, reordered, rescaled and
evicted entries alike.  Families deliberately mix the memo's two reuse
cases: repeated collective steps on one fabric (hits) and degraded
variants of the same fabric (new fingerprints, which must never be
served a pristine value).  The flat ``method="lp"`` path and the result
cache in front of it are pinned against the same cold reference.
"""

from __future__ import annotations

import math

import pytest

from families import (
    RATE,
    agree,
    closed_form_families,
    lp_only_families,
)
from repro.fabric.degradation import hotspot, random_failures, uniform_degradation
from repro.flows import (
    Commodity,
    ThroughputCache,
    block_stats,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    pod_theta,
    reset_block_stats,
)
from repro.flows import block as block_module
from repro.flows.block import _clear_block_memos, _solve_subproblem
from repro.matching import Matching
from repro.topology import PodFabric, matched_topology, ring


def cold(topology, matching) -> float:
    return max_concurrent_flow(
        topology, commodities_from_matching(matching), RATE
    ).theta


def pod_fabric(sizes=(4, 4, 4), **kwargs) -> PodFabric:
    kwargs.setdefault("uplinks_per_pod", 2)
    return PodFabric(pod_sizes=tuple(sizes), bandwidth=RATE, **kwargs)


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts and ends with no memoized subproblem."""
    _clear_block_memos()
    reset_block_stats()
    yield
    _clear_block_memos()


class TestMemoAgreesWithCold:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "families", [closed_form_families, lp_only_families]
    )
    def test_every_family_row(self, families):
        # None of these fabrics has pod structure: the block method's
        # flat fallback and the "lp" method must both equal the cold LP.
        for topology, patterns in families(8):
            for matching in patterns:
                reference = cold(topology, matching)
                block = pod_theta(topology, matching, RATE)
                lp = compute_theta(
                    topology, matching, RATE, method="lp", cache=None
                )
                assert agree(reference, block), (topology.name, matching)
                assert agree(reference, lp), (topology.name, matching)

    def test_degraded_variants_never_share_a_pristine_value(self):
        fabric = pod_fabric()
        matching = Matching.shift(fabric.n, 3)
        variants = [
            fabric.flat_topology(),
            fabric.degraded(uniform_degradation(fabric.n, 0.8)),
            fabric.degraded(uniform_degradation(fabric.n, 0.55)),
            fabric.degraded(hotspot(fabric.n, center=1, radius=1, severity=0.5)),
            fabric.degraded(random_failures(fabric.n, seed=7, failures=2)),
        ]
        first = [pod_theta(t, matching, RATE) for t in variants]
        # A second pass in reverse order runs against a warm memo that
        # holds every variant's subproblems: values must not cross over.
        again = [pod_theta(t, matching, RATE) for t in reversed(variants)]
        assert first == list(reversed(again))
        for topology, value in zip(variants, first):
            assert agree(cold(topology, matching), value), topology.name
        # Degradation must actually change the answers we compared.
        assert len(set(first)) >= 3

    def test_workload_phases_reuse_the_memo(self):
        fabric = pod_fabric()
        topology = fabric.flat_topology()
        phases = [Matching.shift(fabric.n, k) for k in (1, 2, 3, 5, 7)]
        first = [pod_theta(topology, m, RATE) for m in phases]
        for matching, value in zip(phases, first):
            assert agree(cold(topology, matching), value), matching
        solves = block_stats().pod_solves
        assert [pod_theta(topology, m, RATE) for m in phases] == first
        # Replaying the phases is served entirely from the memo.
        assert block_stats().pod_solves == solves

    def test_repeat_solves_are_memo_hits_and_identical(self):
        topology = pod_fabric().flat_topology()
        matching = Matching.shift(12, 2)
        first = pod_theta(topology, matching, RATE)
        before = block_stats()
        again = pod_theta(topology, matching, RATE)
        after = block_stats()
        assert first == again
        assert before.pod_solves >= 1
        assert after.pod_solves == before.pod_solves
        assert after.memo_hits > before.memo_hits

    def test_clearing_the_memo_forces_a_cold_solve(self):
        topology = pod_fabric().flat_topology()
        matching = Matching.shift(12, 5)
        warm = pod_theta(topology, matching, RATE)
        solves = block_stats().pod_solves
        _clear_block_memos()
        assert pod_theta(topology, matching, RATE) == warm
        assert block_stats().pod_solves == 2 * solves

    def test_reordered_commodities_share_one_entry(self):
        topology = ring(6, RATE)
        commodities = commodities_from_matching(Matching.shift(6, 2))
        forward = _solve_subproblem(topology, commodities, RATE)
        backward = _solve_subproblem(
            topology, tuple(reversed(commodities)), RATE
        )
        stats = block_stats()
        assert forward == backward
        assert stats.pod_solves == 1
        assert stats.memo_hits == 1
        assert agree(
            forward, max_concurrent_flow(topology, commodities, RATE).theta
        )

    def test_memo_is_keyed_by_rate(self):
        topology = ring(6, RATE)
        commodities = commodities_from_matching(Matching.shift(6, 1))
        at_rate = _solve_subproblem(topology, commodities, RATE)
        at_double = _solve_subproblem(topology, commodities, 2 * RATE)
        assert block_stats().pod_solves == 2
        # theta is normalized by the reference rate.
        assert agree(at_double, at_rate / 2)

    def test_mixed_demands_match(self):
        topology = ring(6, RATE)
        commodities = (
            Commodity(0, 3, 1.0),
            Commodity(1, 4, 0.25),
            Commodity(5, 2, 2.5),
        )
        doubled = tuple(Commodity(c.src, c.dst, 2 * c.demand) for c in commodities)
        value = _solve_subproblem(topology, commodities, RATE)
        assert agree(value, max_concurrent_flow(topology, commodities, RATE).theta)
        # Demands are part of the key: doubling them is a new solve that
        # halves theta, never a hit on the unit-demand entry.
        assert agree(_solve_subproblem(topology, doubled, RATE), value / 2)
        assert block_stats().memo_hits == 0

    def test_return_flows_parity(self):
        topology = ring(6, RATE)
        commodities = commodities_from_matching(Matching.shift(6, 2))
        plain = max_concurrent_flow(topology, commodities, RATE)
        with_flows = max_concurrent_flow(
            topology, commodities, RATE, return_flows=True
        )
        assert plain.theta == with_flows.theta
        assert with_flows.edge_flows
        assert _solve_subproblem(topology, commodities, RATE) == plain.theta

    def test_screens_match_cold_path(self):
        n = 6
        topology = ring(n, RATE)
        empty = Matching(n, [])
        assert max_concurrent_flow(topology, (), RATE).theta == math.inf
        assert pod_theta(topology, empty, RATE) == math.inf
        assert pod_theta(pod_fabric().flat_topology(), Matching(12, []), RATE) == math.inf
        # Disconnected commodity: a sparse matched fabric has no route
        # between the pairs, so every path must screen to 0.0.
        sparse = matched_topology(Matching(4, [(0, 1), (2, 3)]), RATE)
        matching = Matching(4, [(0, 2)])
        assert cold(sparse, matching) == 0.0
        assert pod_theta(sparse, matching, RATE) == 0.0
        assert compute_theta(sparse, matching, RATE, method="lp", cache=None) == 0.0


class TestMethodAndCacheRouting:
    def test_lp_method_equals_cold_on_lp_only_families(self):
        cache = ThroughputCache()
        for topology, patterns in lp_only_families(8):
            for matching in patterns:
                assert agree(
                    cold(topology, matching),
                    compute_theta(
                        topology, matching, RATE, method="lp", cache=cache
                    ),
                ), (topology.name, matching)

    def test_cache_tags_keep_methods_apart(self):
        cache = ThroughputCache()
        topology = pod_fabric((4, 4)).flat_topology()
        matching = Matching.shift(8, 1)
        lp = compute_theta(topology, matching, RATE, method="lp", cache=cache)
        block = compute_theta(topology, matching, RATE, method="block", cache=cache)
        # Distinct estimator tags: the second method may not reuse the
        # first's entry even though the values agree.
        assert cache.stats().misses == 2
        assert agree(lp, block)
        assert compute_theta(topology, matching, RATE, method="lp", cache=cache) == lp
        assert cache.stats().hits == 1


class TestMemoEviction:
    def test_lru_bounds_hold_and_values_survive_eviction(self, monkeypatch):
        monkeypatch.setattr(block_module, "_solution_memo", block_module._LRU(2))
        topology = pod_fabric().flat_topology()
        matchings = [Matching.shift(12, k) for k in (1, 2, 3, 5, 7)]
        expected = {m: cold(topology, m) for m in matchings}
        for _ in range(2):
            for m in matchings:
                assert agree(pod_theta(topology, m, RATE), expected[m])
        assert len(block_module._solution_memo._memo) <= 2

    def test_lru_hit_refreshes_recency(self):
        memo = block_module._LRU(2)
        memo.put("a", 1.0)
        memo.put("b", 2.0)
        assert memo.get("a") == 1.0
        memo.put("c", 3.0)
        # "b" was least recently used once "a" was read back.
        assert memo.get("b") is None
        assert memo.get("a") == 1.0
        assert memo.get("c") == 3.0
