"""Workload ``fault-replan``: single-pod faults on an n=1024 pod fabric.

Daemon processes reached over one
:class:`~repro.service.AsyncServiceClient` connection.  Three fresh
daemons are each set up (started, then one n=8 plan, so imports are
paid there); set-up time is the median of the three.  The first and
the last are asked to plan the pristine fabric, which they price cold;
the cold request is the median of the two.  The first daemon then
takes one stratified block of eight cumulative single-pod faults.
Each is a separate ``plan`` request that dims one seeded rank of one
seeded pod to a seeded multiplier; the daemon delta-prices it against
the lineage's resident ``PlanContext``.  The first fault is checked,
after the timed part, against cold block pricing of the same faulted
fabric in a fresh process.

The amount of work is fixed, so ``--seconds`` does not apply: every
run on every version of the program prices the same eight faults, on
a fabric with the same number of degraded pods, whatever their speed.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time

from harness import (
    TAIL_QUANTILES,
    ROOT,
    DaemonProcess,
    Outcome,
    client_gc_paused,
    hd_quantile,
    log,
    median,
    socket_path,
    subprocess_env,
)
from replay import PlanReplayer, daemon_service_metrics, daemon_work_ms, layer_metrics
from tracer import Tracer

FULL = {
    "pods": 16,
    "pod_size": 64,
    "uplinks": 4,
    "message_mib": 64,
    "daemons": 3,  # fresh daemons, each set up
}
SMOKE = {
    "pods": 4,
    "pod_size": 32,
    "uplinks": 2,
    "message_mib": 1,
    "daemons": 2,
}

#: Multipliers a faulty rank dims to, drawn from this range.
MULTIPLIER_RANGE = (0.25, 0.9)
#: A run prices this many faults, stratified: they dim one rank at each
#: of eight evenly spaced positions in its pod and draw one multiplier
#: from each eighth of the range, in seeded order.  A fault's cost
#: depends mostly on the rank's position (one to ten pods re-solved),
#: so unstratified seeds changed the run's median by a third;
#: stratified, every run prices the same mix of faults.
STRATA = 8


def scenario(sizes: dict, ports: dict | None = None):
    from repro.fabric import FabricHealth
    from repro.planner import Scenario
    from repro.units import Gbps, MiB, ns, us

    return Scenario.create(
        "allreduce_recursive_doubling",
        n=sizes["pods"] * sizes["pod_size"],
        message_size=MiB(sizes["message_mib"]),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
        topology="podfabric",
        topology_options={
            "pod_sizes": [sizes["pod_size"]] * sizes["pods"],
            "uplinks_per_pod": sizes["uplinks"],
        },
        theta_method="block",
        health=FabricHealth(port_multipliers=tuple(ports.items())) if ports else None,
    )


def fault_sequence(sizes: dict, rng: random.Random):
    """Cumulative fault scenarios on seeded distinct pods, stratified
    by rank position and multiplier (see STRATA)."""
    pods = rng.sample(range(sizes["pods"]), min(STRATA, sizes["pods"]))
    size = sizes["pod_size"]
    low, high = MULTIPLIER_RANGE
    positions = [1 + k * size // STRATA for k in range(STRATA)]
    rng.shuffle(positions)
    multipliers = [
        low + (k + rng.random()) * (high - low) / STRATA for k in range(STRATA)
    ]
    rng.shuffle(multipliers)
    ports: dict[int, float] = {}
    out = []
    for pod, position, multiplier in zip(pods, positions, multipliers):
        ports[pod * size + position] = round(multiplier, 3)
        out.append(scenario(sizes, dict(ports)))
    return out


def _warmup_scenario():
    from repro.planner import Scenario
    from repro.units import Gbps, KiB, ns, us

    return Scenario.create(
        "allreduce_ring", n=8, message_size=KiB(64), bandwidth=Gbps(800),
        alpha=ns(100), delta=ns(100), reconfiguration_delay=us(10),
    )


async def _timed_plan(client, scen) -> tuple[float, object]:
    start = time.perf_counter()
    response = await client.plan(scen)
    return (time.perf_counter() - start) * 1e3, response


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    """``seconds`` is unused: the run's work is fixed (see above)."""
    sizes = SMOKE if smoke else FULL
    return asyncio.run(_run(random.Random(seed), trace, sizes))


async def _daemon(stream, outcome, tag) -> dict:
    """One fresh daemon: set-up, then the scenarios of ``stream`` in
    order, each timed."""
    from repro.service import AsyncServiceClient

    out = {"ms": [], "answered": []}
    start = time.perf_counter()
    daemon = DaemonProcess(socket_path(tag))
    daemon.start()
    client = None
    try:
        client = await AsyncServiceClient.connect_unix(daemon.socket_path)
        warm = await client.plan(_warmup_scenario())
        out["setup_s"] = time.perf_counter() - start
        outcome.attempted += 1
        if not warm.ok:
            outcome.fail(f"set-up plan failed: {warm.error}")
        with client_gc_paused():
            for planned in stream:
                elapsed, response = await _timed_plan(client, planned)
                out["ms"].append(elapsed)
                out["answered"].append((planned, response))
        out["peak_rss_mib"] = daemon.peak_rss_mib()
        out["snapshot"] = (await client.metrics()).result
    finally:
        if client is not None:
            await client.close()
        daemon.stop()
    log(f"fault-replan: {tag}: set-up {out['setup_s']:.2f}s, plans (ms) "
        + " ".join(f"{ms:.0f}" for ms in out["ms"]))
    return out


async def _run(rng, trace, sizes):
    outcome = Outcome()
    pristine, faults = scenario(sizes), fault_sequence(sizes, rng)
    # Every daemon is set up.  The first plans the pristine fabric cold
    # and then takes the faults; the last plans it cold at the end of the
    # run, so one slow spell of the shared host does not hold both cold
    # samples.  A cold plan takes 6-9 s, so the daemons in between only
    # set up.  The traced run drives one daemon and then replays its
    # stream in process.
    daemons = 1 if trace else sizes["daemons"]
    streams = [[pristine, *faults]]
    if daemons > 1:
        streams += [[] for _ in range(daemons - 2)] + [[pristine]]
    runs = [
        await _daemon(stream, outcome, f"daemon{index}")
        for index, stream in enumerate(streams)
    ]
    fault_ms = runs[0]["ms"][1:]
    answered = [pair for run in runs for pair in run["answered"]]
    outcome.attempted += len(answered)
    for _, response in answered:
        if not response.ok:
            outcome.fail(f"plan failed: {response.error}")

    if trace:
        tracer = Tracer(enabled=True)
        outcome.metrics.update(
            _traced_replay(
                tracer, pristine, faults, fault_ms, runs[0]["snapshot"]
            )
        )
        outcome.tracer = tracer

    # Correctness: the first fault against cold block pricing of the
    # same faulted fabric in a fresh process.
    first_fault, response = runs[0]["answered"][1]
    if response.ok:
        _check_against_cold(first_fault, response.result, outcome)

    if not trace:
        outcome.metrics.update(
            setup_s=median(run["setup_s"] for run in runs),
            peak_rss_mib=runs[0]["peak_rss_mib"],
            p50_ms=hd_quantile(fault_ms, 0.5),
            ops_per_s=len(fault_ms) / (sum(fault_ms) / 1e3),
            cold_ms=median(run["ms"][0] for run in runs if run["ms"]),
        )
    return outcome


#: Plans one scenario (JSON on stdin) with a fresh cache in a fresh
#: process, so nothing the benchmark or the daemon priced is reused.
_COLD_PLAN = (
    "import json, sys\n"
    "from repro.flows import ThroughputCache\n"
    "from repro.planner import PlanRequest, Scenario, plan\n"
    "scenario = Scenario.from_dict(json.load(sys.stdin))\n"
    "result = plan(PlanRequest(scenario=scenario), cache=ThroughputCache())\n"
    "print(json.dumps(result.to_dict()))\n"
)


def _check_against_cold(faulted, result: dict, outcome: Outcome) -> None:
    """Total, decisions and per-step costs (which carry the step
    thetas) of a daemon answer against cold block pricing at 1e-9."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PLAN],
        input=json.dumps(faulted.to_dict()),
        cwd=ROOT,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        outcome.fail(f"cold reference plan failed: {proc.stderr[-500:]}")
        return
    want = json.loads(proc.stdout)
    got_steps = result["cost"]["per_step"]
    want_steps = want["cost"]["per_step"]
    close = lambda a, b: abs(a - b) <= 1e-9 * abs(b)  # noqa: E731
    same = (
        close(result["total_time"], want["total_time"])
        and result["decisions"] == want["decisions"]
        and len(got_steps) == len(want_steps)
        and all(close(a, b) for a, b in zip(got_steps, want_steps))
    )
    if not same:
        outcome.fail("delta-priced fault plan differs from cold block pricing")
    log(f"fault-replan: cold check {'ok' if same else 'FAILED'} "
        f"({time.perf_counter() - start:.1f}s)")


def _traced_replay(tracer, pristine, faults, daemon_fault_ms, snapshot):
    """Replay the daemon's stream (cold, then its faults) in-process,
    traced."""
    from repro.service import PlanBody, ServiceRequest

    replayer = PlanReplayer(tracer)
    replayer.run(ServiceRequest(body=PlanBody(scenario=pristine)), "cold", "cold")
    for index, faulted in enumerate(faults):
        request = ServiceRequest(body=PlanBody(scenario=faulted))
        replayer.run(request, f"fault{index}", "fault")
    work = daemon_work_ms(tracer, replayer.records, "fault")
    out = layer_metrics(tracer, replayer.records, "fault")
    out.update(daemon_service_metrics(snapshot))
    out["bench.tail_ms"] = hd_quantile(daemon_fault_ms, TAIL_QUANTILES["fault-replan"])
    out["service.wait_us"] = (median(daemon_fault_ms) - median(work)) * 1e3
    # A fault cannot be priced twice from the same state, so the
    # untraced side is the daemon's own latency for the same fault (the
    # service path is well under 1% of it), set against the traced
    # replay of the daemon's work.
    out["trace.overhead_pct"] = 100 * median(
        w / d - 1 for w, d in zip(work, daemon_fault_ms)
    )
    return out
