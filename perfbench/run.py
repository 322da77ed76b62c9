"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and reports the per-layer
metrics (span dumps land in ``.perfbench/trace-<workload>-<seed>.json``).
``--smoke`` shrinks every workload to tiny sizes (an n=8 pool, a
128-rank pod fabric, the online loop at n=16) so a broken harness
fails in seconds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import harness

WORKLOADS = ("serve-warm", "fault-replan", "online-drift")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)

    try:
        harness.import_repro()
    except Exception as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import fault_replan
    import online_drift
    import serve_warm

    module = {
        "serve-warm": serve_warm,
        "fault-replan": fault_replan,
        "online-drift": online_drift,
    }[args.workload]
    trace = bool(args.trace)
    try:
        outcome = module.run(args.seed, args.seconds, trace, args.smoke)
        if trace:
            tracer = outcome.tracer
            outcome.metrics["trace.spans"] = len(tracer.spans)
            unmeasured = sorted(set(harness.PER_LAYER) - set(outcome.metrics))
            for name in unmeasured:
                outcome.metrics[name] = 0.0
            dump = tracer.dump()
            dump["unmeasured"] = unmeasured
            harness.write_json(
                harness.WORK / f"trace-{args.workload}-{args.seed}.json", dump
            )
        result = outcome.result(harness.PER_LAYER if trace else harness.END_TO_END)
    except Exception:
        traceback.print_exc()
        return 1
    for problem in outcome.problems:
        harness.log(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
