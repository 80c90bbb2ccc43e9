"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each of the four workloads it
makes two traced runs and one untraced run with one seed, one after the
other, and checks that

* every run is correct and failed nothing: verdicts match the known
  answers, the negative controls are caught, passes of a run hash alike,
  consecutive traced passes make identical calls, and every layer the
  workload declares was reached;
* the two traced runs report identical counts (every ``count`` metric);
* the metric names are exactly those ``BENCHMARK.json`` declares.

It exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 1  # every run still makes its warm-up pass and at least two more


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    for name in sorted(WORKLOADS):
        before = len(problems)
        runs = {}
        for label, trace in (("traced", 1), ("traced again", 1), ("untraced", 0)):
            res = bench(name, SEED, SECONDS, trace)
            runs[label] = res
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} {label}: correct={res['correct']} failed={res['failed']}")
            if sorted(res["metrics"]) != sorted(declared[trace]):
                problems.append(f"{name} {label}: metric names differ from BENCHMARK.json")
        first, second = runs["traced"]["metrics"], runs["traced again"]["metrics"]
        differ = [k for k, v in first.items()
                  if v["unit"] == "count" and v["value"] != second[k]["value"]]
        if differ:
            problems.append(f"{name}: counts differ between traced runs: {differ}")
        print(f"{name}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
