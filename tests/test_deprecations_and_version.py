"""Satellites: batch front doors, version single-sourcing, on_result.

* the batch entry points live in ``repro.engine`` (and top-level
  ``repro``) only, and calling them is warning-free; the removed
  ``repro.planner`` / ``repro.sim`` shims stay removed;
* ``repro.__version__`` is single-sourced from ``pyproject.toml`` and
  surfaces in every service response;
* the engine's ``on_result`` hook delivers batch results incrementally,
  in input order, on every execution backend.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.engine import plan_many, sim_many, workload_many
from repro.flows import ThroughputCache
from repro.planner import Scenario, scenario_grid
from repro.units import Gbps, KiB, MiB, ns, us
from repro.workload import steady_trace

#: The directory ``repro`` is imported from, for fresh interpreters.
SRC = Path(repro.__file__).resolve().parents[1]


def base_scenario(n=8):
    return Scenario.create(
        "allreduce_ring",
        n=n,
        message_size=KiB(64),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def small_grid():
    return scenario_grid(base_scenario(), [KiB(64), MiB(1)], [us(1), us(100)])


class TestShimDeprecations:
    def test_canonical_paths_are_warning_free(self):
        cache = ThroughputCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            plan_many([base_scenario()], cache=cache)
            sim_many([base_scenario(n=4)], cache=cache)
            workload_many(
                [steady_trace(base_scenario(n=4), phases=2)], cache=cache
            )
            repro.plan_many([base_scenario()], cache=cache)
            repro.workload_many(
                [steady_trace(base_scenario(n=4), phases=2)], cache=cache
            )

    def test_removed_shims_stay_removed(self):
        for module, name in (
            (repro.planner, "plan_many"),
            (repro.sim, "sim_many"),
            (repro.sim, "workload_many"),
            (repro.sim, "simulate"),
            (repro, "simulate"),
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


    def test_import_alone_does_not_warn(self):
        # A fresh interpreter, so every package module really executes
        # its import-time code under warnings-as-errors.
        code = (
            "import repro, repro.engine, repro.planner, repro.sim, "
            "repro.workload, repro.flows"
        )
        subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    @pytest.mark.parametrize(
        "module", ["repro.planner.batch", "repro.sim.batch", "repro.sim.runner"]
    )
    def test_removed_shim_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


class TestVersionSingleSourcing:
    def pyproject_version(self) -> str:
        text = (
            Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
        )
        assert match, "pyproject.toml lost its static version field"
        return match.group(1)

    def test_dunder_version_matches_pyproject(self):
        assert repro.__version__ == self.pyproject_version()

    def test_version_is_sane(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+.*", repro.__version__)

    def test_service_responses_carry_the_version(self):
        import asyncio

        from repro.service import MetricsBody, PlannerDaemon, ServiceRequest

        async def main():
            async with PlannerDaemon() as daemon:
                return await daemon.submit(ServiceRequest(body=MetricsBody()))

        response = asyncio.run(main())
        assert response.version == repro.__version__
        assert response.to_dict()["version"] == repro.__version__


class TestOnResultHook:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_plan_many_emits_incrementally_in_input_order(self, backend):
        grid = small_grid()
        seen = []
        results = plan_many(
            grid,
            cache=ThroughputCache(),
            parallel=2,
            parallel_backend=backend,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert [index for index, _ in seen] == list(range(len(grid)))
        # The hook sees the same objects the call returns.
        for index, result in seen:
            assert results[index].to_dict() == result.to_dict()

    def test_sim_many_and_workload_many_support_on_result(self):
        seen = []
        sim_many(
            [base_scenario(n=4), base_scenario(n=8)],
            cache=ThroughputCache(),
            on_result=lambda index, result: seen.append(index),
        )
        assert seen == [0, 1]
        seen.clear()
        workload_many(
            [steady_trace(base_scenario(n=4), phases=2)],
            cache=ThroughputCache(),
            on_result=lambda index, result: seen.append(index),
        )
        assert seen == [0]

    def test_on_result_fires_before_the_batch_returns(self):
        grid = small_grid()
        progress = []

        def hook(index, result):
            progress.append(index)

        plan_many(grid, cache=ThroughputCache(), on_result=hook)
        assert len(progress) == len(grid)
