"""The engine's batch entry points.

One subsystem owns scenario evaluation: ``plan_many`` (analytic
planning), ``sim_many`` (sim-in-the-loop execution), ``workload_many``
(multi-phase workload execution), and ``plan_workload_many``
(multi-phase planning).  All four share

* the **two-tier throughput cache** — the in-process compute-once
  memo backed by the content-addressed on-disk store
  (:class:`~repro.engine.DiskStore`, ``REPRO_CACHE_DIR``), activated
  automatically for the default cache so repeated grid runs across
  processes pay zero LP solves after the first;
* the **execution backends** — ``parallel_backend="serial" | "thread"
  | "process"`` (:mod:`repro.engine.parallel`); and
* the **throughput-backend registry** — ``theta_backend`` routes a
  whole batch of bare scenarios through one estimator
  (:mod:`repro.engine.backends`).

The heavier layers (planner, sim, workload) are imported lazily inside
the functions: the engine orchestrates them, so importing it must not
drag them in (or create import cycles with them).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..exceptions import ConfigurationError, SimulationError
from ..flows import ThroughputCache, default_cache
from .backends import scenario_theta_method
from .parallel import execute_batch, resolve_execution_backend
from .store import activate_disk_cache

__all__ = ["plan_many", "sim_many", "workload_many", "plan_workload_many"]


def _session_cache(cache: "ThroughputCache | None") -> "ThroughputCache | None":
    """Upgrade the default cache with the persistent disk tier.

    A no-op unless ``REPRO_CACHE_DIR`` is set *and* the caller is using
    the shared default cache — explicitly passed caches (the hermetic
    test pattern) are never mutated behind the caller's back.
    """
    if cache is default_cache:
        activate_disk_cache(cache=cache)
    return cache


def _theta_affinity(scenario):
    """A scenario's theta-reuse group: everything that determines its
    step *patterns* and their estimator — message size and cost scalars
    deliberately excluded (they never change theta)."""
    return (
        scenario.topology,
        scenario.collective.algorithm,
        scenario.collective.options,
        scenario.theta_method,
        scenario.path_rule,
        scenario.multiport_radix,
        # A degraded fabric has its own theta values: keep its cells in
        # one process-pool chunk and out of pristine cells' chunks.
        None if scenario.health is None else scenario.health.fingerprint(),
    )


def _workload_affinity(workload):
    """A workload's theta-reuse group: the deduplicated phase
    signatures (workloads expanded from the same trace share one)."""
    return tuple(
        dict.fromkeys(_theta_affinity(phase) for phase in workload.phases)
    )


def _prewarm_plan_batch(requests, cache) -> int:
    """Seed the cache with every closed-formable step theta of a batch.

    Grid scenarios overwhelmingly share topologies and step patterns;
    one vectorized pass per affinity group
    (:func:`repro.flows.prewarm_closed_forms`) prices them all before
    the per-step scalar lookups begin, so the planner's inner loop runs
    entirely on cache hits.  Each seeded value takes exactly the miss
    the step evaluation would have taken — same keys, same tags, same
    statistics.  Only pristine ``theta_method="auto"`` single-port
    scenarios qualify: degraded fabrics have no closed form (their
    family metadata is dropped on purpose) and multiport steps are
    grouped differently.  Returns the number of seeded values.
    """
    from ..flows import prewarm_closed_forms

    seeded = 0
    seen_groups: set = set()
    for request in requests:
        scenario = request.scenario
        if (
            scenario.theta_method != "auto"
            or scenario.multiport_radix is not None
            or scenario.health is not None
        ):
            continue
        group = _theta_affinity(scenario) + (scenario.cost.bandwidth,)
        if group in seen_groups:
            continue
        seen_groups.add(group)
        try:
            topology = scenario.build_topology()
            matchings = []
            seen_matchings: set = set()
            for step in scenario.build_collective().steps:
                matching = step.matching
                if (
                    len(matching) == 0
                    or matching in seen_matchings
                    or not topology.supports(matching)
                ):
                    # The scalar path never prices these (empty steps
                    # are inf, unsupported ones 0.0, without a cache
                    # entry) — seeding them would skew statistics.
                    continue
                seen_matchings.add(matching)
                matchings.append(matching)
            if len(matchings) < 2:
                continue
            seeded += prewarm_closed_forms(
                topology,
                matchings,
                reference_rate=scenario.cost.bandwidth,
                cache=cache,
            )
        except Exception:
            # Malformed scenarios surface their real error through the
            # normal planning path, not the opportunistic prewarm.
            continue
    return seeded


def _route_theta_backend(item, theta_backend: str | None):
    """Re-route a scenario (or a request's scenario) through a backend."""
    if theta_backend is None:
        return item
    from ..planner.result import PlanRequest
    from ..planner.scenario import Scenario

    method = scenario_theta_method(theta_backend)
    if isinstance(item, Scenario):
        return item.replace(theta_method=method)
    if isinstance(item, PlanRequest):
        return PlanRequest(
            scenario=item.scenario.replace(theta_method=method),
            solver=item.solver,
            options=item.options,
        )
    return item


def plan_many(
    scenarios: Iterable,
    solver: str = "dp",
    parallel: int | None = None,
    cache: "ThroughputCache | None" = default_cache,
    parallel_backend: str | None = None,
    theta_backend: str | None = None,
    on_result=None,
    **options,
) -> list:
    """Plan a batch of scenarios, optionally in parallel.

    Parameters
    ----------
    scenarios:
        :class:`~repro.planner.Scenario` items (planned with ``solver``
        / ``options``) and/or prepared :class:`~repro.planner.PlanRequest`
        items (which carry their own solver choice — mixed batches are
        fine).
    solver:
        Solver name applied to bare scenarios.
    parallel:
        Worker count; with the legacy ``parallel_backend=None``,
        ``None`` or ``1`` plans serially and larger values use threads.
    cache:
        Shared theta memo.  The default module-level cache is shared
        with everything else in the process (and gains the persistent
        disk tier when ``REPRO_CACHE_DIR`` is set); pass a fresh
        :class:`~repro.flows.ThroughputCache` to isolate a batch, or
        ``None`` to disable caching.
    parallel_backend:
        ``"serial"``, ``"thread"``, or ``"process"``.  The process pool
        ships picklable scenario dicts, shares theta values through the
        on-disk store, and merges per-worker cache deltas back into
        ``cache``; its results carry no per-call cache statistics.
    theta_backend:
        Route every *bare scenario* (and each request's scenario)
        through one registered throughput backend — e.g.
        ``"exact-lp"`` forces ground-truth LP solves for a validation
        sweep.
    on_result:
        Optional ``(index, result)`` callback fired once per item, in
        input order, as soon as that item's result exists — the
        incremental-delivery hook the service daemon uses to stream
        long batches (see :func:`repro.engine.parallel.execute_batch`).
        Every batch entry point in this module accepts it.

    Returns
    -------
    list[PlanResult]
        One result per input, in input order; bit-identical across
        execution backends.
    """
    from ..planner.registry import plan
    from ..planner.result import PlanRequest, PlanResult
    from ..planner.scenario import _freeze_options

    cache = _session_cache(cache)
    frozen = _freeze_options(options)
    requests = [
        _route_theta_backend(item, theta_backend)
        for item in scenarios
    ]
    requests = [
        item
        if isinstance(item, PlanRequest)
        else PlanRequest(scenario=item, solver=solver, options=frozen)
        for item in requests
    ]
    backend, _ = resolve_execution_backend(
        parallel_backend, parallel, len(requests), error=ConfigurationError
    )
    if cache is not None and backend != "process":
        # Process batches do their theta work in the workers (the
        # parent cache takes no misses); everything else gets the
        # vectorized closed-form prewarm.
        _prewarm_plan_batch(requests, cache)
    return execute_batch(
        lambda request: plan(request, cache=cache),
        requests,
        task_name="plan",
        make_payload=lambda request: {
            "scenario": request.scenario.to_dict(),
            "solver": request.solver,
            "options": request.options_dict,
        },
        task_kwargs={},
        rebuild=PlanResult.from_dict,
        parallel_backend=parallel_backend,
        parallel=parallel,
        cache=cache,
        on_result=on_result,
        affinity=lambda request: _theta_affinity(request.scenario),
        error=ConfigurationError,
    )


def sim_many(
    items: Iterable,
    solver: str = "dp",
    parallel: int | None = None,
    cache: "ThroughputCache | None" = default_cache,
    rate_method: str = "mcf",
    accounting: str = "paper",
    compute_overlap: bool = False,
    collect_utilization: bool = False,
    check_model: bool = True,
    parallel_backend: str | None = None,
    on_result=None,
    observe_rates: bool = False,
    **options,
) -> list:
    """Simulate a batch of planned collectives, optionally in parallel.

    The simulation twin of :func:`plan_many`: bare
    :class:`~repro.planner.Scenario` items are planned with ``solver``
    / ``options`` first, prepared :class:`~repro.planner.PlanResult`
    items are executed as-is, and mixed batches are fine.
    ``rate_method`` / ``accounting`` / ``compute_overlap`` /
    ``collect_utilization`` / ``check_model`` are forwarded to
    :func:`~repro.sim.simulate_plan` for every item.

    Under ``parallel_backend="process"`` results round-trip through
    their dict forms, so the per-event ``trace`` (which is deliberately
    not serialized) comes back empty; every serialized field is
    bit-identical to a serial run.  Rate observations requested with
    ``observe_rates=True`` *are* serialized, so the controller-facing
    telemetry survives the process backend intact.
    """
    from ..planner.result import PlanResult
    from ..sim.executor import SimResult, simulate_plan

    cache = _session_cache(cache)
    sim_kwargs = {
        "rate_method": rate_method,
        "accounting": accounting,
        "compute_overlap": compute_overlap,
        "collect_utilization": collect_utilization,
        "check_model": check_model,
        "observe_rates": observe_rates,
    }

    def run_one(item):
        if isinstance(item, PlanResult):
            return simulate_plan(item, cache=cache, **sim_kwargs)
        return simulate_plan(
            item, solver=solver, cache=cache, **sim_kwargs, **options
        )

    def make_payload(item):
        if isinstance(item, PlanResult):
            return {"kind": "plan", "item": item.to_dict()}
        return {"kind": "scenario", "item": item.to_dict()}

    return execute_batch(
        run_one,
        list(items),
        task_name="sim",
        make_payload=make_payload,
        task_kwargs={
            "solver": solver,
            "options": dict(options),
            "sim": sim_kwargs,
        },
        rebuild=SimResult.from_dict,
        parallel_backend=parallel_backend,
        parallel=parallel,
        cache=cache,
        on_result=on_result,
        affinity=lambda item: _theta_affinity(
            item.scenario if isinstance(item, PlanResult) else item
        ),
        error=ConfigurationError,
    )


def workload_many(
    items: Iterable,
    policy: str = "replan",
    solver: str = "dp",
    parallel: int | None = None,
    cache: "ThroughputCache | None" = default_cache,
    rate_method: str = "mcf",
    reconfiguration_model=None,
    collect_utilization: bool = False,
    check_model: bool = True,
    parallel_backend: str | None = None,
    on_result=None,
    observe_rates: bool = False,
    **options,
) -> list:
    """Plan and execute a batch of workloads, optionally in parallel.

    The workload twin of :func:`plan_many` / :func:`sim_many`: bare
    :class:`~repro.workload.Workload` items are planned with ``policy``
    / ``solver`` / ``reconfiguration_model`` first, prepared
    :class:`~repro.workload.WorkloadPlan` items are executed as-is, and
    mixed batches are fine.  All items share one thread-safe theta
    cache; results come back in input order and are bit-identical
    across execution backends (process-backend results carry an empty
    event trace, which is never serialized).
    """
    from ..sim.workload import WorkloadSimResult, simulate_workload
    from ..workload.result import WorkloadPlan

    cache = _session_cache(cache)
    sim_kwargs = {
        "rate_method": rate_method,
        "collect_utilization": collect_utilization,
        "check_model": check_model,
        "observe_rates": observe_rates,
    }

    def run_one(item):
        if isinstance(item, WorkloadPlan):
            return simulate_workload(item, cache=cache, **sim_kwargs)
        return simulate_workload(
            item,
            policy=policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **sim_kwargs,
            **options,
        )

    def make_payload(item):
        if isinstance(item, WorkloadPlan):
            return {"kind": "plan", "item": item.to_dict()}
        return {"kind": "workload", "item": item.to_dict()}

    return execute_batch(
        run_one,
        list(items),
        task_name="workload",
        make_payload=make_payload,
        task_kwargs={
            "policy": policy,
            "solver": solver,
            "model": (
                None
                if reconfiguration_model is None
                else reconfiguration_model.to_dict()
            ),
            "options": dict(options),
            "sim": sim_kwargs,
        },
        rebuild=WorkloadSimResult.from_dict,
        parallel_backend=parallel_backend,
        parallel=parallel,
        cache=cache,
        on_result=on_result,
        affinity=lambda item: _workload_affinity(
            item.workload if isinstance(item, WorkloadPlan) else item
        ),
        error=SimulationError,
    )


def plan_workload_many(
    items: Iterable,
    policy: str = "replan",
    solver: str = "dp",
    parallel: int | None = None,
    cache: "ThroughputCache | None" = default_cache,
    reconfiguration_model=None,
    parallel_backend: str | None = None,
    on_result=None,
    **options,
) -> list:
    """Plan a batch of workloads (no execution), optionally in parallel.

    Each item is a :class:`~repro.workload.Workload` planned with the
    shared ``policy`` / ``options``, or a ``(workload, policy)`` /
    ``(workload, policy, options_dict)`` tuple carrying its own — the
    traces x policies experiment grid batches heterogeneous cells this
    way.  Returns one :class:`~repro.workload.WorkloadPlan` per item,
    in input order.
    """
    from ..workload.policies import plan_workload
    from ..workload.result import WorkloadPlan
    from ..workload.spec import Workload

    cache = _session_cache(cache)

    def normalize(item):
        if isinstance(item, Workload):
            return item, policy, dict(options)
        workload, item_policy, *rest = item
        item_options = dict(rest[0]) if rest else dict(options)
        return workload, str(item_policy), item_options

    jobs = [normalize(item) for item in list(items)]

    def run_one(job):
        workload, job_policy, job_options = job
        return plan_workload(
            workload,
            policy=job_policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **job_options,
        )

    def make_payload(job):
        workload, job_policy, job_options = job
        return {
            "workload": workload.to_dict(),
            "policy": job_policy,
            "options": job_options,
        }

    return execute_batch(
        run_one,
        jobs,
        task_name="workload-plan",
        make_payload=make_payload,
        task_kwargs={
            "solver": solver,
            "model": (
                None
                if reconfiguration_model is None
                else reconfiguration_model.to_dict()
            ),
        },
        rebuild=WorkloadPlan.from_dict,
        parallel_backend=parallel_backend,
        parallel=parallel,
        cache=cache,
        on_result=on_result,
        affinity=lambda job: _workload_affinity(job[0]),
        error=ConfigurationError,
    )
