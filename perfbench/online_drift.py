"""Workload ``online-drift``: the online controller loop, in process.

No daemon.  The inputs are seeded ``drifting_moe_trace`` workloads
(n=64, 24 layers, so 48 phases: a dense allreduce then a drifting
expert all-to-all per layer).  Set-up primes a fresh
:class:`~repro.flows.ThroughputCache` with one ``online-ewma`` pass
over a short trace of the same structure (2 layers: both phase
structures) but a fixed seed of its own.  Set-up time and the cold
first phase are medians over three such passes, each in a fresh
interpreter, so that every sample pays what a new process pays: the
imports and the process-wide memos (topology builds, hop distances,
the incidence cache).  The benchmark process then primes its own
cache the same way, untimed; the three fresh passes run between timed
traces, spread over ``--seconds``.  The timed loop drives the public
``OnlineController.decide`` →
``FlowLevelSimulator.run(observe_rates=True)`` →
``OnlineController.observe`` sequence per phase, exactly as
``run_controller_loop`` does for the ``online-ewma`` policy, over fresh
seeded traces (one controller per trace), whole traces only, until
``--seconds`` are up; its clock leaves out the fresh passes.

Checks: one schedule per phase, and the realized schedules of the
first two traces reach at least 80% of the clairvoyant
oracle's throughput-time (``plan_workload``, outside the timed loop).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from harness import (
    ROOT,
    TAIL_QUANTILES,
    HarnessError,
    Outcome,
    hd_quantile,
    log,
    median,
    self_peak_rss_mib,
    subprocess_env,
)
from replay import flows_in
from tracer import Tracer

FULL = {"n": 64, "layers": 24, "prime_layers": 2, "message_mib": 8, "setups": 3}
SMOKE = {"n": 16, "layers": 4, "prime_layers": 2, "message_mib": 8, "setups": 1}

#: The priming trace's seed: fixed, so set-up does the same work every run.
PRIME_SEED = 999_999
#: The acceptance bar of the online controller against the oracle,
#: checked on the first few traces of a run.
MIN_EFFICIENCY = 0.8
PRICED_TRACES = 2
REPLAY_POLICY = "perfbench-replay"


def make_trace(sizes: dict, seed: int, layers: int):
    from repro.planner import Scenario
    from repro.units import Gbps, MiB, ns, us
    from repro.workload import drifting_moe_trace

    base = Scenario.create(
        "allreduce_recursive_doubling",
        n=sizes["n"],
        message_size=MiB(sizes["message_mib"]),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )
    return drifting_moe_trace(base, layers=layers, seed=seed)


def control_loop(workload, cache, tracer: Tracer, tag: str, deadline=None):
    """One ``online-ewma`` pass: per-phase wall (ms), the committed
    schedules, and the controller.  Stops at the first phase boundary
    past ``deadline`` (a ``perf_counter`` time)."""
    from repro.control import OnlineController, ONLINE_POLICIES, mask_demand
    from repro.fabric import ConstantReconfigurationDelay
    from repro.sim import FlowLevelSimulator

    estimator, trigger = ONLINE_POLICIES["online-ewma"]
    model = ConstantReconfigurationDelay(workload.phases[0].cost.reconfiguration_delay)
    controller = OnlineController(
        estimator=estimator, trigger=trigger, reconfiguration_model=model, cache=cache
    )
    topology = workload.build_topology()
    base = workload.base_configuration()
    carried = base
    walls, schedules = [], []
    for index, scenario in enumerate(workload.phases):
        start = time.perf_counter()
        if deadline is not None and start > deadline:
            break
        with tracer.span("control.phase", f"{tag}:{index}") as phase:
            with tracer.span("control.decide"):
                decision = controller.decide(mask_demand(scenario))
            with tracer.span("collectives.build"):
                collective = scenario.build_collective()
            with tracer.span("sim.run"):
                result = FlowLevelSimulator(
                    topology,
                    scenario.cost,
                    rate_method="mcf",
                    accounting="physical",
                    reconfiguration_model=model,
                    cache=cache,
                    health=scenario.health,
                    live_topology=scenario.build_topology(),
                ).run(
                    collective,
                    decision.schedule,
                    initial_configuration=carried,
                    observe_rates=True,
                )
            with tracer.span("control.observe"):
                controller.observe(result.rate_observations, delta=scenario.cost.delta)
            phase.annotate(
                replanned=decision.replanned,
                observations=len(result.rate_observations),
                flows_built=flows_in(collective),
            )
        walls.append((time.perf_counter() - start) * 1e3)
        carried = (
            result.final_configuration
            if result.final_configuration is not None
            else base
        )
        schedules.append(decision.schedule)
    return walls, schedules, controller


def efficiency(workload, schedules, cache) -> float:
    """Oracle total over the realized total of ``schedules``."""
    from repro.workload import plan_workload, register_policy

    register_policy(REPLAY_POLICY, lambda context: schedules, overwrite=True)
    realized = plan_workload(workload, policy=REPLAY_POLICY, cache=cache)
    oracle = plan_workload(workload, policy="oracle", cache=cache)
    return oracle.total_time / realized.total_time


def prime(sizes: dict, cache) -> list[float]:
    """One ``online-ewma`` pass over the priming trace; its phase walls."""
    trace = make_trace(sizes, PRIME_SEED, sizes["prime_layers"])
    walls, _, _ = control_loop(trace, cache, Tracer(enabled=False), "prime")
    return walls


def fresh_setup(smoke: bool) -> tuple[float, float]:
    """Set-up in a fresh interpreter: seconds from spawning it until
    its cache is primed, and the priming pass's first phase (ms), which
    prices its thetas cold.  Both clocks are ``time.monotonic``, which
    every process on the host shares."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--prime", *(["--smoke"] if smoke else [])],
        cwd=ROOT,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise HarnessError(f"priming process failed: {proc.stderr[-500:]}")
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    return row["primed_at"] - start, row["cold_ms"]


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    from repro.flows import ThroughputCache

    sizes = SMOKE if smoke else FULL
    outcome = Outcome()
    off = Tracer(enabled=False)
    cache = ThroughputCache()
    prime(sizes, cache)

    setups, wanted = [], 0 if trace else sizes["setups"]
    traces, walls_by_trace, passes = [], [], []
    budget = seconds * (0.5 if trace else 1.0)
    before = cache.stats()
    loop_s = 0.0  # time spent in the timed traces only
    loop_start = time.perf_counter()
    # Whole traces only: a trace cut short would add only its early
    # phases, when the controller replans most, and shift the median.
    while not passes or time.perf_counter() - loop_start < budget:
        # The set-up samples are spread over the run, so that one slow
        # spell of the shared host does not hold all of them.
        start = time.perf_counter()
        if len(setups) < wanted and start - loop_start >= budget * len(setups) / wanted:
            setups.append(fresh_setup(smoke))
            start = time.perf_counter()
        workload = make_trace(sizes, seed * 1000 + len(passes), sizes["layers"])
        walls, schedules, controller = control_loop(workload, cache, off, "timed")
        loop_s += time.perf_counter() - start
        traces.append(workload)
        walls_by_trace.append(walls)
        passes.append((schedules, controller.stats))
        if len(passes) == 1:
            # After a fixed amount of work, so the reading does not
            # depend on how many traces fit.
            peak_rss_mib = self_peak_rss_mib()
    while len(setups) < wanted:
        setups.append(fresh_setup(smoke))
    if setups:
        log(f"online-drift: set-up {median(s for s, _ in setups):.2f}s, cold "
            f"phase {median(c for _, c in setups):.0f} ms")
    phase_ms = [wall for walls in walls_by_trace for wall in walls]
    # Phase walls are bimodal, half dense allreduce (~10-25 ms) and half
    # expert all-to-all (~100-300 ms), so their median falls in the gap
    # and a few outliers set it.  Each layer's two phases are averaged
    # first: that keeps per-phase units and one mode.
    layer_ms = [
        (walls[index] + walls[index + 1]) / 2
        for walls in walls_by_trace
        for index in range(0, len(walls) - 1, 2)
    ]
    after = cache.stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses

    tracer = Tracer(enabled=trace)
    ratios = []  # traced over untraced wall, phase by phase
    if trace:
        # The same traces again with spans on, warm like the timed loop.
        deadline = time.perf_counter() + budget
        for index, workload in enumerate(traces):
            walls, _, _ = control_loop(
                workload, cache, tracer, f"pass{index}", deadline if index else None
            )
            ratios.extend(t / u for t, u in zip(walls, walls_by_trace[index]))

    efficiencies = []
    for workload, (schedules, stats) in zip(traces, passes):
        outcome.attempted += len(schedules)
        if not len(schedules) == stats.phases == len(workload.phases):
            outcome.fail(
                f"{len(schedules)} schedules for {len(workload.phases)} phases"
            )
            continue
        if len(efficiencies) == PRICED_TRACES:
            continue
        efficiencies.append(efficiency(workload, schedules, cache))
        if efficiencies[-1] < MIN_EFFICIENCY:
            outcome.fail(
                f"online-ewma reached {efficiencies[-1]:.1%} of the oracle "
                f"(bar {MIN_EFFICIENCY:.0%})",
                len(workload.phases),
            )
    outcome.check(bool(efficiencies), "no trace priced against the oracle")
    log(f"online-drift: {len(passes)} traces, {len(phase_ms)} phases, p50 "
        f"{median(layer_ms):.1f} ms, efficiency min "
        f"{min(efficiencies, default=0):.3f}")

    if trace:
        outcome.metrics.update(_layer_metrics(tracer, ratios, passes, hits, misses))
        outcome.metrics["control.online_efficiency"] = median(efficiencies)
        outcome.metrics["bench.tail_ms"] = hd_quantile(
            phase_ms, TAIL_QUANTILES["online-drift"]
        )
        outcome.tracer = tracer
        return outcome
    outcome.metrics.update(
        setup_s=median(s for s, _ in setups),
        peak_rss_mib=peak_rss_mib,
        p50_ms=hd_quantile(layer_ms, 0.5),
        ops_per_s=len(phase_ms) / loop_s,
        cold_ms=median(c for _, c in setups),
    )
    return outcome


def _layer_metrics(tracer, ratios, passes, hits, misses) -> dict[str, float]:
    spans = tracer.by_request()
    selfs = tracer.layer_self_ms()
    roots = [span for span in tracer.spans if span["name"] == "control.phase"]

    def span_ms(name: str) -> float:
        return median(spans[root["request"]].get(name, 0.0) for root in roots)

    replans = sum(stats.replans for _, stats in passes)
    phases = sum(stats.phases for _, stats in passes)
    out = {
        "control.decide_ms": span_ms("control.decide"),
        "control.observe_ms": span_ms("control.observe"),
        "control.replan_ratio": replans / phases,
        "sim.run_ms": span_ms("sim.run"),
        "sim.observations": median(root["attrs"]["observations"] for root in roots),
        "collectives.build_ms": span_ms("collectives.build"),
        "collectives.flows_built": median(
            root["attrs"]["flows_built"] for root in roots
        ),
        "flows.cache_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "flows.cache_misses": misses,
        "trace.overhead_pct": (median(ratios) - 1) * 100,
    }
    for layer in ("control", "sim", "collectives"):
        out[f"self.{layer}_ms"] = median(
            selfs[root["request"]].get(layer, 0.0) for root in roots
        )
    return out


if __name__ == "__main__":
    # ``--prime [--smoke]``: one priming pass in this fresh process (see
    # fresh_setup); prints when it ended and its first phase's wall.
    import harness

    harness.import_repro()
    from repro.flows import ThroughputCache

    walls = prime(SMOKE if "--smoke" in sys.argv else FULL, ThroughputCache())
    print(json.dumps({"primed_at": time.monotonic(), "cold_ms": walls[0]}))
