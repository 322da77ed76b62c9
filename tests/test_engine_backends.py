"""The engine's throughput-backend registry (satellite of the unified
evaluation engine PR).

Pins the backend-equivalence contract: ``closed-form`` and ``exact-lp``
agree to 1e-9 on the structured (topology, pattern) pairs that have
formulas — rings, hypercubes, matched fabrics at n in {8, 16} — and the
``bounds`` envelope brackets the exact value everywhere.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import (
    BoundsBackend,
    ThetaEnvelope,
    ThroughputBackend,
    available_throughput_backends,
    compute_theta_backend,
    get_throughput_backend,
    register_throughput_backend,
    scenario_theta_method,
    theta_envelope,
    unregister_throughput_backend,
)
from repro.exceptions import ConfigurationError
from repro.matching import Matching
from repro.topology import hypercube, ring
from repro.topology.matched import matched_topology
from repro.units import Gbps

B = Gbps(800)

#: closed-form vs exact-lp agreement tolerance (satellite requirement).
RTOL = 1e-9


def _ring_cases(n):
    topology = ring(n, B, bidirectional=True)
    uni = ring(n, B, bidirectional=False)
    for k in (1, 2, n // 2, n - 1):
        yield topology, Matching.shift(n, k)
        yield uni, Matching.shift(n, k)


def _hypercube_cases(n):
    topology = hypercube(n, B)
    distance = 1
    while distance < n:
        yield topology, Matching.from_permutation(
            [i ^ distance for i in range(n)]
        )
        distance *= 2


def _matched_cases(n):
    matching = Matching.shift(n, 3 % n or 1)
    yield matched_topology(matching, B), matching


def _all_cases():
    for n in (8, 16):
        yield from _ring_cases(n)
        yield from _hypercube_cases(n)
        yield from _matched_cases(n)


CASES = list(_all_cases())


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "topology, matching",
        CASES,
        ids=[f"{t.name}-case{i}" for i, (t, _) in enumerate(CASES)],
    )
    def test_closed_form_matches_exact_lp(self, topology, matching):
        exact = compute_theta_backend(
            topology, matching, backend="exact-lp", cache=None
        )
        closed = compute_theta_backend(
            topology, matching, backend="closed-form", cache=None
        )
        assert math.isclose(closed, exact, rel_tol=RTOL), (
            f"{topology.name}: closed-form {closed} vs exact LP {exact}"
        )

    @pytest.mark.parametrize(
        "topology, matching",
        CASES,
        ids=[f"{t.name}-case{i}" for i, (t, _) in enumerate(CASES)],
    )
    def test_bounds_bracket_exact_value(self, topology, matching):
        exact = compute_theta_backend(
            topology, matching, backend="exact-lp", cache=None
        )
        envelope = theta_envelope(topology, matching, cache=None)
        assert envelope.lower <= envelope.upper + RTOL
        assert envelope.brackets(exact), (
            f"{topology.name}: {envelope} does not bracket {exact}"
        )

    def test_reference_rate_is_part_of_the_cache_identity(self):
        """Theta scales with capacity/reference_rate; evaluating one
        pattern under two normalizations through a shared cache must
        not serve the first rate's value for the second."""
        from repro.flows import ThroughputCache

        topology = ring(8, B)
        matching = Matching.shift(8, 1)
        cache = ThroughputCache()
        full = compute_theta_backend(
            topology, matching, reference_rate=B, backend="exact-lp",
            cache=cache,
        )
        half = compute_theta_backend(
            topology, matching, reference_rate=B / 2, backend="exact-lp",
            cache=cache,
        )
        assert math.isclose(half, 2 * full, rel_tol=1e-9)
        assert cache.stats().misses == 2

    def test_bounds_theta_is_the_upper_edge(self):
        topology = ring(8, B)
        matching = Matching.shift(8, 3)
        envelope = theta_envelope(topology, matching, cache=None)
        screened = compute_theta_backend(
            topology, matching, backend="bounds", cache=None
        )
        assert screened == envelope.upper


class TestThetaEnvelope:
    def test_brackets_with_slack(self):
        envelope = ThetaEnvelope(lower=0.25, upper=0.5)
        assert envelope.brackets(0.25)
        assert envelope.brackets(0.5 + 1e-12)
        assert not envelope.brackets(0.6)
        assert envelope.width == 0.25

    def test_infinite_envelope(self):
        envelope = ThetaEnvelope(lower=math.inf, upper=math.inf)
        assert envelope.brackets(math.inf)
        assert envelope.width == 0.0


class TestRegistry:
    def test_builtins_registered(self):
        names = available_throughput_backends()
        assert {"exact-lp", "closed-form", "bounds"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown throughput"):
            get_throughput_backend("nope")

    def test_duplicate_registration_guard(self):
        class Custom(ThroughputBackend):
            name = "exact-lp"
            scenario_method = "lp"

            def theta(self, topology, matching, reference_rate=None, cache=None):
                return 1.0  # pragma: no cover

        with pytest.raises(ConfigurationError, match="already registered"):
            register_throughput_backend(Custom())

    def test_register_and_unregister_custom(self):
        class Constant(ThroughputBackend):
            name = "constant-one"
            scenario_method = "lp"

            def theta(self, topology, matching, reference_rate=None, cache=None):
                return 1.0

        register_throughput_backend(Constant())
        try:
            assert "constant-one" in available_throughput_backends()
            value = compute_theta_backend(
                ring(4, B), Matching.shift(4, 1), backend="constant-one"
            )
            assert value == 1.0
        finally:
            unregister_throughput_backend("constant-one")
        assert "constant-one" not in available_throughput_backends()

    def test_scenario_method_mapping(self):
        assert scenario_theta_method("exact-lp") == "lp"
        assert scenario_theta_method("closed-form") == "auto"
        with pytest.raises(ConfigurationError, match="envelopes"):
            scenario_theta_method("bounds")

    def test_bounds_backend_is_envelope_typed(self):
        assert isinstance(get_throughput_backend("bounds"), BoundsBackend)


class TestThetaBackendRouting:
    def test_plan_many_theta_backend_matches_theta_method(self):
        from repro.engine import plan_many
        from repro.flows import ThroughputCache
        from repro.planner import Scenario
        from repro.units import MiB, ns, us

        base = Scenario.create(
            "allreduce_recursive_doubling",
            n=8,
            message_size=MiB(1),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
        routed = plan_many(
            [base], theta_backend="exact-lp", cache=ThroughputCache()
        )
        explicit = plan_many(
            [base.replace(theta_method="lp")], cache=ThroughputCache()
        )
        assert routed[0].scenario.theta_method == "lp"
        assert routed[0].total_time == explicit[0].total_time

    def test_plan_many_rejects_envelope_backend(self):
        from repro.engine import plan_many
        from repro.planner import Scenario
        from repro.units import MiB, ns, us

        base = Scenario.create(
            "allreduce_recursive_doubling",
            n=8,
            message_size=MiB(1),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
        with pytest.raises(ConfigurationError, match="envelopes"):
            plan_many([base], theta_backend="bounds", cache=None)


EXACT_BACKENDS = ("closed-form", "exact-lp", "block-lp")


class TestBackendEdgeCases:
    """Equivalence at the corners every registered backend must share:
    empty matchings, single-node fabrics, fully-failed ports, and
    reference-rate extremes."""

    @pytest.mark.parametrize("backend", available_throughput_backends())
    def test_empty_matching_is_infinite_everywhere(self, backend):
        topology = ring(8, B)
        value = compute_theta_backend(
            topology, Matching(8, []), B, backend=backend, cache=None
        )
        assert math.isinf(value) and value > 0

    @pytest.mark.parametrize("backend", available_throughput_backends())
    def test_single_node_topology_has_nothing_to_route(self, backend):
        from repro.topology import Topology

        single = Topology(1, [], name="single")
        value = compute_theta_backend(
            single, Matching(1, []), B, backend=backend, cache=None
        )
        assert math.isinf(value)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_fully_failed_ports_zero_out_theta(self, backend):
        from repro.fabric import FabricHealth

        n = 4
        lanes = tuple((r, (r + 1) % n) for r in range(n))
        dead = FabricHealth(
            failed_transceivers=lanes + tuple((b, a) for a, b in lanes),
            name="dead-fabric",
        )
        topology = dead.apply(ring(n, B))
        assert topology.num_edges == 0
        value = compute_theta_backend(
            topology, Matching.shift(n, 1), B, backend=backend, cache=None
        )
        assert value == 0.0

    @pytest.mark.parametrize("rate", [1e-6, 1.0, 1e12])
    def test_reference_rate_corners_agree_across_exact_backends(self, rate):
        # Closed forms normalize by the rate the fabric was built with,
        # so the corner contract is stated at matched build/reference
        # rates — tiny, unit, and huge.
        topology = ring(8, rate)
        matching = Matching.shift(8, 1)
        values = [
            compute_theta_backend(
                topology, matching, rate, backend=backend, cache=None
            )
            for backend in EXACT_BACKENDS
        ]
        assert all(
            math.isclose(v, values[0], rel_tol=RTOL, abs_tol=0.0)
            for v in values
        ), values
        # The envelope still brackets the exact value at every corner.
        upper = compute_theta_backend(
            topology, matching, rate, backend="bounds", cache=None
        )
        assert upper >= values[0] - RTOL

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_theta_many_handles_empty_and_mixed_rows(self, backend):
        from repro.engine import compute_theta_backend_many

        topology = ring(8, B)
        rows = [Matching(8, []), Matching.shift(8, 1), Matching(8, [(0, 5)])]
        values = compute_theta_backend_many(
            topology, rows, B, backend=backend, cache=None
        )
        assert math.isinf(values[0])
        for matching, value in zip(rows[1:], values[1:]):
            reference = compute_theta_backend(
                topology, matching, B, backend="exact-lp", cache=None
            )
            assert math.isclose(value, reference, rel_tol=RTOL, abs_tol=RTOL)
