"""Flow-level simulation of collectives on reconfigurable fabrics.

Two layers:

* the simulator proper (:class:`FlowLevelSimulator`) operating on
  library objects (collectives, topologies, schedules);
* the planner-facing executors (:func:`simulate_plan`,
  :func:`simulate_workload`, :class:`SimResult`) that lower declarative
  :class:`~repro.planner.Scenario` / :class:`~repro.planner.PlanResult`
  items onto the simulator — plan it, then replay it.

The batch front doors (:func:`repro.engine.sim_many`,
:func:`repro.engine.workload_many`) live in :mod:`repro.engine`.
"""

from .events import EventQueue
from .executor import SimResult, SimStep, simulate_plan
from .flowsim import FlowLevelSimulator, SimulationResult, StepTiming
from .observation import (
    RateObservation,
    observations_from_rows,
    observations_to_rows,
)
from .rates import RATE_METHODS, FlowRate, allocate_rates
from .trace import EventKind, Trace, TraceEvent
from .workload import (
    PhaseSimResult,
    WorkloadSimResult,
    simulate_workload,
)

__all__ = [
    "EventQueue",
    "FlowLevelSimulator",
    "SimulationResult",
    "StepTiming",
    "FlowRate",
    "allocate_rates",
    "RATE_METHODS",
    "RateObservation",
    "observations_to_rows",
    "observations_from_rows",
    "SimResult",
    "SimStep",
    "simulate_plan",
    "PhaseSimResult",
    "WorkloadSimResult",
    "simulate_workload",
    "EventKind",
    "Trace",
    "TraceEvent",
]
