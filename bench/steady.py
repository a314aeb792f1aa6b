"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 bench/steady.py

Runs every workload of BENCHMARK.json through run.py (untraced, for its
run_seconds) once per seed; set 1 uses seeds 1..RUNS and set 2 seeds
RUNS+1..2*RUNS.  For each workload and end-to-end metric it prints both
sets' medians and quartile spreads, (q3 - q1) / median with
statistics.quantiles(n=4), and checks that
  - each spread is within the metric's bound (spreads above a third of the
    bound are marked), and
  - set 2's median is within the bound of set 1's, either way:
    |median2 - median1| / median1 <= bound.
setup_s is held only to the second check, as the benchmark's acceptance
rules hold it: its spread is printed and marked, but it does not fail the
check.  setup_s is a median of fresh start-ups inside each run, so it is
steady in the medians but follows the host's speed from run to run.
Every run must also pass its output gate.  Exit status 0 iff all hold.  The
values are saved to bench_runs/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def moved(first, second):
    """Share by which the second median differs from the first, either way."""
    return abs(second - first) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: [{m: [] for m in metrics} for _ in range(2)] for w in workloads}
    all_correct = True
    for k in range(2):
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                all_correct &= bool(res["correct"]) and res["failed"] == 0
                line = []
                for m in metrics:
                    values[w][k][m].append(res["metrics"][m]["value"])
                    line.append(f"{m}={res['metrics'][m]['value']:.4g}")
                print(f"set {k + 1} seed {seed} {w}: {' '.join(line)} correct={res['correct']}", flush=True)

    ok = all_correct
    print(f"\n{'workload':12s} {'metric':12s} {'bound':>6s} {'median1':>10s} {'spread1':>8s} "
          f"{'median2':>10s} {'spread2':>8s} {'moved':>7s}")
    for w in workloads:
        for m, spec in metrics.items():
            bound, cells, flags = spec["bound"], [], []
            for k in range(2):
                vals = values[w][k][m]
                s = spread(vals)
                cells.append(f"{statistics.median(vals):10.4g} {s:8.3f}")
                if not s <= bound:
                    if m == "setup_s":
                        flags.append(f"spread{k + 1}>bound (not gated)")
                    else:
                        flags.append(f"spread{k + 1}>bound")
                        ok = False
                elif not s <= bound / 3:
                    flags.append(f"spread{k + 1}>bound/3")
            shift = moved(*(statistics.median(values[w][k][m]) for k in range(2)))
            if not shift <= bound:
                flags.append("median moved beyond bound")
                ok = False
            print(f"{w:12s} {m:12s} {bound:6.3f} {' '.join(cells)} {shift:7.3f} {' '.join(flags)}")
    if not all_correct:
        print("some runs failed their output gate")
    os.makedirs(os.path.join(ROOT, "bench_runs"), exist_ok=True)
    with open(os.path.join(ROOT, "bench_runs", "steady.json"), "w") as fh:
        json.dump({"runs": RUNS, "run_seconds": bench["run_seconds"], "values": values, "ok": ok}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
