"""Print every benchmark metric with its unit, its spread over seeds, and the verdicts.

    python3 perfbench/report.py [--seeds 1-10]

For each workload of BENCHMARK.json, runs perfbench/run.py untraced for
run_seconds once per seed and prints, per end-to-end metric, the median,
the quartile distance as a share of the median (statistics.quantiles,
n=4) and whether that share is within the metric's bound.  Then runs the
traced benchmark TRACED_REPEATS times on the first seed, prints every
per-layer metric, and checks that the exact counters (units count and
bytes) and the attempted and failed counts repeat exactly: traced work is
fixed by the seed, so a difference means an operation's outcome changed.
Exits 1 when any run fails, reports an incorrect output, or a count does
not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")
TRACED_REPEATS = 2


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    good = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, s, seconds, 0) for s in args.seeds]
        good = good and all(r is not None and r["correct"] for r in runs)
        runs = [r for r in runs if r is not None]
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)}/{len(args.seeds)} runs, correct="
              f"{all(r['correct'] for r in runs)}, failed {failed}/{attempted}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
                verdict = "ok" if share <= m["bound"] else "SPREAD ABOVE BOUND"
            else:
                share, verdict = float("nan"), "one run"
            print(f"  {m['name']:24s} {med:14.6g} {m['unit']:6s} spread {share:7.4f} "
                  f"bound {m['bound']:.2f}  {verdict}")

        traced = [_run(workload, args.seeds[0], seconds, 1) for _ in range(TRACED_REPEATS)]
        good = good and all(r is not None and r["correct"] for r in traced)
        traced = [r for r in traced if r is not None]
        if not traced:
            continue
        counts = {(r["attempted"], r["failed"]) for r in traced}
        note = "" if len(counts) == 1 else "  DOES NOT REPEAT"
        good = good and not note
        print(f"  traced, seed {args.seeds[0]}, {len(traced)} runs, (attempted, failed) "
              f"{sorted(counts)}{note}")
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            note = ""
            if m["unit"] in EXACT_UNITS and len(set(values)) > 1:
                note = "  DOES NOT REPEAT"
                good = False
            print(f"  {m['name']:52s} {statistics.median(values):14.6g} {m['unit']}{note}")
    print("verdict:", "all runs correct, counters repeat" if good else "FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
