"""Workload ``serve-warm``: warm plan requests through the daemon.

The daemon runs as its own process, started the way users start it;
one :class:`~repro.service.AsyncServiceClient` connection talks to it.
Set-up starts the daemon and plans every pool scenario once, so every
timed request hits the resident theta cache.  The timed part is
rounds of a sequential loop (one request in flight: its latency) and
of bursts (a fixed number of requests sent at once: the throughput the
daemon's batching gives).  The traced run adds an open loop at a fixed
offered rate, timed from each request's due time, for the ungated
tail.  Every response is checked against an in-process ``plan()`` of
its scenario.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time

from harness import (
    TAIL_QUANTILES,
    DaemonProcess,
    Outcome,
    client_gc_paused,
    hd_quantile,
    log,
    median,
    socket_path,
)
from replay import (
    PlanReplayer,
    daemon_service_metrics,
    daemon_work_ms,
    layer_metrics,
)
from tracer import Tracer

ALGORITHMS = (
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "allreduce_swing",
    "alltoall",
)

FULL = {
    "ns": (8, 16, 32),
    "sizes_kib": (64, 1024, 64 * 1024),
    "rate": 100.0,  # offered requests per second in the traced open loop
    "burst": 32,
    "setups": 3,
    # Sequential requests and bursts alternate in rounds, half a round
    # each, so both metrics sample the whole run, not one end of it.
    "rounds": 5,
}
SMOKE = {
    "ns": (8,),
    "sizes_kib": (64, 1024),
    "rate": 100.0,
    "burst": 4,
    "setups": 1,
    "rounds": 2,
}


def pool(sizes: dict):
    from repro.planner import Scenario
    from repro.units import Gbps, KiB, ns, us

    return [
        Scenario.create(
            algorithm,
            n=n,
            message_size=KiB(size),
            bandwidth=Gbps(800),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
        )
        for algorithm in ALGORITHMS
        for n in sizes["ns"]
        for size in sizes["sizes_kib"]
    ]


async def _fill(client, scenarios, outcome: Outcome) -> list[float]:
    """Plan each scenario once (cold); returns per-request ms."""
    cold_ms = []
    for scenario in scenarios:
        start = time.perf_counter()
        response = await client.plan(scenario)
        cold_ms.append((time.perf_counter() - start) * 1e3)
        if not response.ok:
            outcome.fail(f"fill plan failed: {response.error}")
    return cold_ms


async def _open_loop(client, requests, rate: float):
    """Send ``requests`` at ``rate``/s regardless of completions.

    Returns ``(latency_ms_from_due, lag_ms, responses)`` per request."""
    loop = asyncio.get_running_loop()

    async def one(request, due):
        response = await client.request(request)
        return (loop.time() - due) * 1e3, response

    origin = loop.time() + 0.01
    tasks, lags = [], []
    for index, request in enumerate(requests):
        due = origin + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((loop.time() - due) * 1e3)
        tasks.append(asyncio.ensure_future(one(request, due)))
    results = await asyncio.gather(*tasks)
    return [latency for latency, _ in results], lags, [r for _, r in results]


async def _sequential(client, make_request, seconds: float):
    """One request in flight for ``seconds``: ``(latencies_ms, answers)``."""
    latencies, answered = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index, request = make_request()
        start = time.perf_counter()
        response = await client.request(request)
        latencies.append((time.perf_counter() - start) * 1e3)
        answered.append((index, response))
    return latencies, answered


async def _bursts(client, make_request, size: int, seconds: float):
    """Send ``size`` requests at once and wait for all of them, for
    ``seconds``: ``(requests_per_second of each burst, answers)``."""
    rates, answered = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        burst = [make_request() for _ in range(size)]
        start = time.perf_counter()
        responses = await asyncio.gather(
            *(client.request(request) for _, request in burst)
        )
        rates.append(size / (time.perf_counter() - start))
        answered.extend((index, r) for (index, _), r in zip(burst, responses))
    return rates, answered


def _same_plan(got: dict, want: dict) -> bool:
    total, expected = got.get("total_time"), want["total_time"]
    return (
        isinstance(total, float)
        and abs(total - expected) <= 1e-9 * abs(expected)
        and got.get("decisions") == want["decisions"]
    )


async def _setup_daemon(scenarios, outcome: Outcome, tag: str):
    """Start a daemon, connect, fill its cache: (daemon, client, setup s,
    per-scenario cold ms)."""
    from repro.service import AsyncServiceClient

    start = time.perf_counter()
    daemon = DaemonProcess(socket_path(tag))
    daemon.start()
    try:
        client = await AsyncServiceClient.connect_unix(daemon.socket_path)
        cold_ms = await _fill(client, scenarios, outcome)
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - start, cold_ms


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    sizes = SMOKE if smoke else FULL
    scenarios = pool(sizes)
    rng = random.Random(seed)
    return asyncio.run(_run(seconds, trace, sizes, scenarios, rng, Outcome()))


async def _run(seconds, trace, sizes, scenarios, rng, outcome):
    setups = 1 if trace else sizes["setups"]
    setup_s, cold_ms = [], []
    daemon = client = None
    try:
        for attempt in range(setups):
            if daemon is not None:
                await client.close()
                daemon.stop()
            daemon, client, elapsed, cold = await _setup_daemon(
                scenarios, outcome, f"serve{attempt}"
            )
            setup_s.append(elapsed)
            cold_ms.append(cold)
        outcome.attempted += len(scenarios) * setups
        before = (await client.metrics()).result
        timed = (
            "an open loop, then sequential requests" if trace
            else f"{sizes['rounds']} rounds of sequential requests and "
            f"bursts of {sizes['burst']}"
        )
        log(f"serve-warm: set-up {median(setup_s):.2f}s; {timed}")

        def make_request():
            index = rng.randrange(len(scenarios))
            return index, client.plan_request(scenarios[index])

        latencies, rates, answered, stream, lags = [], [], [], [], []
        with client_gc_paused():
            if trace:
                # Half the run: an open loop (the tail and the generator
                # lag) and sequential requests (the latency the replay's
                # stage sum is set against).  The replay gets the rest.
                stream = [
                    rng.randrange(len(scenarios))
                    for _ in range(int(seconds * 0.25 * sizes["rate"]))
                ]
                requests = [client.plan_request(scenarios[i]) for i in stream]
                open_latencies, lags, responses = await _open_loop(
                    client, requests, sizes["rate"]
                )
                answered.extend(zip(stream, responses))
                latencies, got = await _sequential(
                    client, make_request, seconds * 0.25
                )
                answered.extend(got)
            else:
                half_round = seconds / sizes["rounds"] / 2
                for _ in range(sizes["rounds"]):
                    got_latencies, got = await _sequential(
                        client, make_request, half_round
                    )
                    latencies.extend(got_latencies)
                    answered.extend(got)
                    got_rates, got = await _bursts(
                        client, make_request, sizes["burst"], half_round
                    )
                    rates.extend(got_rates)
                    answered.extend(got)
        after = (await client.metrics()).result
        peak_rss = daemon.peak_rss_mib()
    finally:
        if client is not None:
            await client.close()
        if daemon is not None:
            daemon.stop()

    outcome.attempted += len(answered)
    outcome.check(
        after["cache"]["misses"] == before["cache"]["misses"],
        f"warm requests missed the theta cache "
        f"({after['cache']['misses'] - before['cache']['misses']} misses)",
    )
    tracer = Tracer(enabled=trace)
    layers = {}
    if trace:
        layers = _traced_replay(
            tracer, scenarios, stream, seconds * 0.5, latencies, open_latencies,
            after, lags,
        )

    # Correctness: every answer equals an in-process plan of its scenario.
    from repro.flows import ThroughputCache
    from repro.planner import PlanRequest, plan

    cache = ThroughputCache()
    reference = [
        plan(PlanRequest(scenario=s), cache=cache).to_dict() for s in scenarios
    ]
    for index, response in answered:
        if not response.ok:
            outcome.fail(f"plan failed: {response.error}")
        elif not _same_plan(response.result, reference[index]):
            outcome.fail(f"wrong plan for scenario {index}")

    if trace:
        outcome.metrics.update(layers)
        outcome.tracer = tracer
        return outcome
    outcome.metrics.update(
        setup_s=median(setup_s),
        peak_rss_mib=peak_rss,
        p50_ms=median(latencies),
        ops_per_s=median(rates),
        # Each scenario's cold plan costs something else (5-130 ms), so
        # a median over all of them jumps between scenarios.  The
        # geometric mean over the fixed pool of each scenario's median
        # over the set-ups weighs every scenario alike.
        cold_ms=statistics.geometric_mean(map(median, zip(*cold_ms))),
    )
    log(f"serve-warm: p50 {outcome.metrics['p50_ms']:.2f} ms over "
        f"{len(latencies)} sequential requests, "
        f"{outcome.metrics['ops_per_s']:.0f} req/s over {len(rates)} bursts")
    return outcome


def _traced_replay(
    tracer, scenarios, stream, seconds, latencies, open_latencies, snapshot, lags
):
    """Replay the fill and the open-loop stream in-process, traced.

    Each warm request runs once untraced and once traced; the median
    ratio of the two walls is the tracing overhead."""
    from repro.service import ServiceRequest, PlanBody

    replayer = PlanReplayer(tracer)
    for index, scenario in enumerate(scenarios):
        request = ServiceRequest(body=PlanBody(scenario=scenario))
        replayer.run(request, f"fill{index}", "fill")
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    for count, index in enumerate(stream):
        if time.perf_counter() > deadline and count >= 10:
            break
        request = ServiceRequest(body=PlanBody(scenario=scenarios[index]))
        # Alternate which side runs first, so neither always finds the
        # other's warm caches.
        for side in ((0, 1) if count % 2 else (1, 0)):
            if side:
                traced.append(replayer.run(request, f"warm{count}", "warm")[1])
            else:
                with tracer.paused():
                    untraced.append(replayer.run(request, f"off{count}", "untraced")[1])
    replayer.records = [r for r in replayer.records if r["kind"] != "untraced"]
    out = layer_metrics(tracer, replayer.records, "warm")
    out.update(daemon_service_metrics(snapshot))
    work = daemon_work_ms(tracer, replayer.records, "warm")
    out["service.wait_us"] = (median(latencies) - median(work)) * 1e3
    out["bench.generator_lag_ms"] = hd_quantile(lags, 0.99)
    out["bench.tail_ms"] = hd_quantile(
        open_latencies, TAIL_QUANTILES["serve-warm"]
    )
    out["trace.overhead_pct"] = (median(traced) / median(untraced) - 1) * 100
    return out
