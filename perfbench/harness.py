"""Shared plumbing for the repository benchmark.

Everything the three workloads have in common lives here: finding the
checkout's ``src/`` tree, the metric catalogue (names and units, which
``BENCHMARK.json`` mirrors), order statistics, the daemon subprocess
handle, and the one-line JSON result.

The benchmark runs from the root of a checkout and reads and writes
only inside it: scratch files (daemon sockets, trace dumps) go under
``.perfbench/``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: End-to-end metrics, reported by every workload with tracing off.
#: ``p50_ms``/``ops_per_s``/``cold_ms`` name each
#: workload's unit operation: a warm plan request (serve-warm), a
#: single-pod fault plan request (fault-replan), one controller phase
#: (online-drift).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "cold_ms": "ms",
}

#: The latency tail each workload reports with its per-layer metrics:
#: p99 of the warm requests, p75 of the phases and of the 8 fault
#: requests of a run.  It is not gated: on a shared host the
#: serving tail moved by up to 44% between runs of the same inputs.
TAIL_QUANTILES = {"serve-warm": 0.99, "fault-replan": 0.75, "online-drift": 0.75}

#: Per-layer metrics, reported by every workload with tracing on.  A
#: layer a workload never calls reads 0.
PER_LAYER = {
    "service.validate_us": "us",
    "service.fingerprint_us": "us",
    "service.encode_us": "us",
    "service.wait_us": "us",
    "service.batch_mean": "count",
    "service.coalesced_ratio": "ratio",
    "service.cache_size": "count",
    "service.contexts": "count",
    "engine.plan_many_us": "us",
    "engine.self_us": "us",
    "engine.delta_prewarm_ms": "ms",
    "planner.step_costs_ms": "ms",
    "collectives.build_ms": "ms",
    "collectives.flows_built": "count",
    "fabric.health_apply_ms": "ms",
    "topology.supports_ms": "ms",
    "flows.cache_hit_ratio": "ratio",
    "flows.cache_misses": "count",
    "flows.pod_solves": "count",
    "flows.pods_screened": "count",
    "flows.memo_hits": "count",
    "flows.dirty_pods_solved": "count",
    "flows.clean_pods_reused": "count",
    "flows.reuse_ratio": "ratio",
    "core.dp_ms": "ms",
    "sim.run_ms": "ms",
    "sim.observations": "count",
    "control.decide_ms": "ms",
    "control.observe_ms": "ms",
    "control.replan_ratio": "ratio",
    "control.online_efficiency": "ratio",
    "self.service_ms": "ms",
    "self.engine_ms": "ms",
    "self.planner_ms": "ms",
    "self.collectives_ms": "ms",
    "self.fabric_ms": "ms",
    "self.topology_ms": "ms",
    "self.core_ms": "ms",
    "self.sim_ms": "ms",
    "self.control_ms": "ms",
    "bench.tail_ms": "ms",
    "bench.generator_lag_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

class HarnessError(RuntimeError):
    """The benchmark cannot run here (no sources, daemon would not start)."""


def import_repro() -> None:
    """Put the checkout's ``src/`` first on the import path and import
    the package, or fail with :class:`HarnessError`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def subprocess_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources first,
    and no persistent theta store (each daemon starts cold)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    mean of all order statistics.  It matches the sample quantile on
    large samples and is far steadier on small ones (a handful of
    multi-second fault requests)."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(list(values), prob=[q])[0])


# -- processes -----------------------------------------------------------------


@contextlib.contextmanager
def client_gc_paused():
    """No garbage-collector pauses in this (load-generating) process
    while the block runs, so its own collections do not show up as
    daemon latency.  Only for workloads whose program runs elsewhere."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def self_peak_rss_mib() -> float:
    """High-water RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DaemonProcess:
    """``python -m repro.experiments serve --socket PATH`` as a child.

    Started the way a user starts the service, with default admission
    settings.  :meth:`start` returns once the daemon has printed its
    listening line; :meth:`stop` terminates it and waits for it to end.
    """

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.stderr_path = Path(socket_path).with_suffix(".log")
        self.proc: subprocess.Popen | None = None

    def start(self, timeout_s: float = 60.0) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        # Standard error goes to a file: an unread pipe that fills up
        # would block the daemon mid-request.
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "serve",
                    "--socket",
                    self.socket_path,
                ],
                cwd=ROOT,
                env=subprocess_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        ready = threading.Event()
        lines: list[str] = []

        def read_stdout() -> None:
            for line in self.proc.stdout:
                lines.append(line)
                if line.startswith("planner service on"):
                    ready.set()
            ready.set()

        threading.Thread(target=read_stdout, daemon=True).start()
        if not ready.wait(timeout_s) or self.proc.poll() is not None:
            self.proc.kill()
            self.proc.wait()
            error = self.stderr_path.read_text()
            self.stop()
            raise HarnessError(
                f"daemon did not start: {''.join(lines)}{error}".strip()
            )

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the daemon process."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise HarnessError("no VmHWM in /proc status")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            # SIGTERM, not SIGINT: a shell that starts the benchmark in
            # the background leaves SIGINT ignored, and children inherit
            # that.  The daemon holds nothing that needs a clean exit.
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        for path in (self.socket_path, self.stderr_path):
            if os.path.exists(path):
                os.unlink(path)


def socket_path(tag: str) -> str:
    """A short, checkout-relative unix socket path (sun_path is ~107
    bytes, so the absolute checkout path is not used)."""
    WORK.mkdir(exist_ok=True)
    return os.path.relpath(WORK / f"{tag}-{os.getpid()}.sock", ROOT)


# -- results -------------------------------------------------------------------


class Outcome:
    """Attempted/failed operation counts and the run's metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.tracer = None  # the traced run's spans, when tracing

    def fail(self, problem: str, count: int = 1) -> None:
        """Count ``count`` failed operations (a wrong answer is one)."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """A whole-run correctness check; a miss fails the run."""
        if not ok:
            self.problems.append(problem)
            self.failed = max(self.failed, 1)

    def result(self, names: dict[str, str]) -> dict:
        missing = sorted(set(names) - set(self.metrics))
        if missing:
            raise HarnessError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(int(self.attempted), 1),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in names.items()
            },
        }


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    stamp = time.strftime("%H:%M:%S")
    print(f"[perfbench {stamp}] {message}", file=sys.stderr, flush=True)


def write_json(path: Path, payload) -> None:
    WORK.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str))
