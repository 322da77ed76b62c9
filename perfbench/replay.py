"""In-process replay of daemon plan requests, one span per layer call.

The daemon workloads are timed end to end through a socket, where the
layers are out of reach.  Their traced runs instead replay the same
seeded request stream in this process, calling the public function of
each layer in the order ``PlannerDaemon._solve_plan_batch`` reaches
them, with a span around every call and counter snapshots at the
request boundary:

``service.validate`` (``try_validate`` on the wire dict) →
``service.fingerprint`` → ``fabric.health_apply``
(``Scenario.build_topology``) → ``collectives.build``
(``Scenario.build_collective``) → ``topology.supports`` (over the
steps) → ``engine.delta_prewarm`` (``prewarm_scenario_context``, block
scenarios only) → ``planner.step_costs`` → ``core.dp``
(``repro.planner.plan`` with the step costs memoized) →
``engine.plan_many`` → ``service.encode`` (``ServiceResponse.to_dict``
plus the JSON line).

Layers are called separately so each gets its own time; later calls
then find the memos the earlier ones filled, the way the daemon's own
later stages do.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict

from harness import median
from tracer import Tracer

#: Calls the replay makes only to time a layer on its own: the daemon
#: builds the collective inside the prewarm and the step costs, and
#: runs the DP inside ``plan_many``.  Everything else the replay runs
#: is work the daemon does per request.
REPLAY_ONLY = ("collectives.build", "core.dp")


def counters(cache) -> dict[str, int]:
    """One snapshot of the process-wide work counters and the cache's."""
    from repro.flows import block_stats, incremental_stats

    stats = cache.stats()
    return {
        **{f"block.{k}": v for k, v in asdict(block_stats()).items()},
        **{f"inc.{k}": v for k, v in asdict(incremental_stats()).items()},
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
    }


def flows_in(collective) -> int:
    """Per-pair transfer records a collective build made: its
    ``Transfer`` objects, or matching pairs for steps without block
    semantics."""
    return sum(
        len(step.transfers) if step.transfers is not None else len(step.matching)
        for step in collective.steps
    )


class PlanReplayer:
    """Replays plan requests against one resident cache and one set of
    lineage contexts, as a fresh daemon would hold them."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.flows import ThroughputCache

        self.tracer = tracer
        self.cache = ThroughputCache()
        self.contexts: dict = {}
        self.records: list[dict] = []

    def _context_for(self, scenario):
        if scenario.theta_method != "block":
            return None
        from repro.engine import PlanContext, scenario_lineage

        return self.contexts.setdefault(scenario_lineage(scenario), PlanContext())

    def run(self, request, rid: str, kind: str) -> tuple[dict, float]:
        """Replay one request; returns the plan result dict and the
        request's wall time in ms."""
        from repro.engine import plan_many, prewarm_scenario_context
        from repro.planner import PlanRequest, plan
        from repro.service import ServiceResponse, try_validate

        tracer = self.tracer
        wire = json.loads(json.dumps(request.to_dict(), sort_keys=True))
        before = counters(self.cache)
        start = time.perf_counter()
        with tracer.span("service.request", rid) as root:
            with tracer.span("service.validate"):
                validated, error = try_validate(wire)
            if error is not None:
                raise RuntimeError(f"replayed request failed validation: {error}")
            with tracer.span("service.fingerprint"):
                validated.fingerprint()
            body = validated.body
            scenario = body.scenario
            with tracer.span("fabric.health_apply"):
                topology = scenario.build_topology()
            with tracer.span("collectives.build"):
                collective = scenario.build_collective()
            flows_built = flows_in(collective)
            with tracer.span("topology.supports"):
                for step in collective.steps:
                    topology.supports(step.matching)
            context = self._context_for(scenario)
            if context is not None:
                with tracer.span("engine.delta_prewarm"):
                    prewarm_scenario_context(scenario, context, cache=self.cache)
            with tracer.span("planner.step_costs"):
                scenario.step_costs(self.cache)
            plan_request = PlanRequest(
                scenario=scenario, solver=body.solver, options=body.options
            )
            with tracer.span("core.dp"):
                plan(plan_request, cache=self.cache)
            with tracer.span("engine.plan_many"):
                (result,) = plan_many([plan_request], cache=self.cache)
            with tracer.span("service.encode"):
                payload = result.to_dict()
                json.dumps(
                    ServiceResponse(
                        id=validated.id, kind=validated.kind, ok=True, result=payload
                    ).to_dict(),
                    sort_keys=True,
                )
            after = counters(self.cache)
            delta = {key: after[key] - before[key] for key in after}
            root.annotate(kind=kind, flows_built=flows_built, counters=delta)
        wall_ms = (time.perf_counter() - start) * 1e3
        self.records.append(
            {"rid": rid, "kind": kind, "flows_built": flows_built, "counters": delta}
        )
        return payload, wall_ms


def layer_metrics(tracer: Tracer, records: list[dict], kind: str) -> dict[str, float]:
    """Per-layer metrics over the replayed requests of one ``kind``:
    medians of span times and of counter deltas per request, summed
    ratios for the cache and reuse ratios."""
    chosen = [record for record in records if record["kind"] == kind]
    if not chosen:
        return {}
    spans = tracer.by_request()
    selfs = tracer.layer_self_ms()

    def span_ms(name: str) -> float:
        return median(spans[record["rid"]].get(name, 0.0) for record in chosen)

    def count(name: str) -> float:
        return median(record["counters"][name] for record in chosen)

    def total(name: str) -> int:
        return sum(record["counters"][name] for record in chosen)

    hits, misses = total("cache.hits"), total("cache.misses")
    solved, reused = total("inc.dirty_pods_solved"), total("inc.clean_pods_reused")
    screened = total("inc.pods_screened")
    pods = solved + reused + screened
    plan_many_ms = span_ms("engine.plan_many")
    dp_ms = span_ms("core.dp")
    out = {
        "service.validate_us": span_ms("service.validate") * 1e3,
        "service.fingerprint_us": span_ms("service.fingerprint") * 1e3,
        "service.encode_us": span_ms("service.encode") * 1e3,
        "engine.plan_many_us": plan_many_ms * 1e3,
        "engine.self_us": max(plan_many_ms - dp_ms, 0.0) * 1e3,
        "engine.delta_prewarm_ms": span_ms("engine.delta_prewarm"),
        "planner.step_costs_ms": span_ms("planner.step_costs"),
        "collectives.build_ms": span_ms("collectives.build"),
        "collectives.flows_built": median(record["flows_built"] for record in chosen),
        "fabric.health_apply_ms": span_ms("fabric.health_apply"),
        "topology.supports_ms": span_ms("topology.supports"),
        "core.dp_ms": dp_ms,
        "flows.cache_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "flows.cache_misses": count("cache.misses"),
        "flows.pod_solves": count("block.pod_solves"),
        "flows.pods_screened": count("block.pods_screened"),
        "flows.memo_hits": count("block.memo_hits"),
        "flows.dirty_pods_solved": count("inc.dirty_pods_solved"),
        "flows.clean_pods_reused": count("inc.clean_pods_reused"),
        "flows.reuse_ratio": (reused + screened) / pods if pods else 0.0,
    }
    for layer in ("service", "engine", "planner", "collectives", "topology",
                  "fabric", "core"):
        out[f"self.{layer}_ms"] = median(
            selfs[record["rid"]].get(layer, 0.0) for record in chosen
        )
    return out


def daemon_work_ms(tracer: Tracer, records: list[dict], kind: str) -> list[float]:
    """Per replayed request of ``kind``: its wall minus the replay-only
    calls, i.e. the daemon's own per-request work, traced."""
    spans = tracer.by_request()
    return [
        spans[record["rid"]]["service.request"]
        - sum(spans[record["rid"]].get(name, 0.0) for name in REPLAY_ONLY)
        for record in records
        if record["kind"] == kind
    ]


def daemon_service_metrics(snapshot: dict) -> dict[str, float]:
    """The service-layer counters of a daemon ``metrics`` snapshot."""
    batches = snapshot["batches"]
    admitted = snapshot["admitted"]
    return {
        "service.batch_mean": (
            snapshot["batched_requests"] / batches if batches else 0.0
        ),
        "service.coalesced_ratio": (
            snapshot["coalesced"] / admitted if admitted else 0.0
        ),
        "service.cache_size": snapshot["cache"]["size"],
        "service.contexts": snapshot["incremental"]["contexts"],
    }
