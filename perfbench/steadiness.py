"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed (sequentially, tracing off) and prints,
per metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the bound ``BENCHMARK.json``
allows.  Raw result lines are kept in
``.perfbench/steadiness-<workload>.jsonl``::

    python3 perfbench/steadiness.py --workload fault-replan --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = ROOT / ".perfbench" / f"steadiness-{args.workload}.jsonl"
    out.parent.mkdir(exist_ok=True)
    rows = []
    with out.open("w") as sink:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            sink.write(json.dumps(row) + "\n")
            sink.flush()
            rows.append(row)
            print(f"seed {seed}: correct={row['correct']} failed={row['failed']}",
                  file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(rows)} runs of {seconds}s, "
          f"all correct: {all(row['correct'] for row in rows)}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [row["metrics"][name]["value"] for row in rows]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"  {name:14s} median {med:10.4g} {metric['unit']:5s} "
              f"q1 {q1:10.4g} q3 {q3:10.4g} spread {(q3 - q1) / med:6.3f} "
              f"(bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
