"""stcmc benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload foliate|flux_oracle --seed N --seconds S --trace 0|1

Load model: closed loop, one client.  This script starts one worker process
at a time (worker.py) and each worker runs its workload's fixed op list back
to back; nothing runs in parallel.  BLAS is pinned to BLAS_THREADS threads.
The op list comes from --seed alone and its length from --seconds (the op
count that takes about that long at the baseline), so both sides of a
comparison run the same ops.

--trace 0 reports the end-to-end metrics, untraced:
  wall_s       seconds to finish the op list (each op to its stated accuracy)
  op_p50_s     median seconds per op (the sample count is printed)
  peak_rss_mb  the measuring worker's maximum resident set
  setup_s      worker start to ready (import, grid builds, providers);
               median of SETUP_SAMPLES fresh workers, half of them started
               before the measuring worker and half after it
The median op time of each op kind (workloads.op_kind) is printed and
recorded too: on flux_oracle op_p50_s is a median over three kinds of op.
--trace 1 runs the same seed untraced and then traced, and reports the
per-layer metrics of spans.LAYER_METRICS plus trace.overhead_s: the spans
recorded in the ops times the wrapper's cost per call, measured in the traced
worker (spans.call_costs).  The traced-minus-untraced wall_s of the pair is
printed as well, but one pair is not resolved against the run-to-run spread
of wall_s.

Every op's output is checked against its oracle (workloads.py).  Failed ops
count in `failed` and error_rate, and the run reports correct=false.  The
last stdout line is one JSON object; the run record (machine, versions,
commit, seed, generated inputs, all samples) is written to bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "bench_runs")
sys.path.insert(0, HERE)

from spans import LAYER_METRICS, OVERHEAD_METRIC  # noqa: E402
from workloads import WORKLOADS, op_kind  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """A worker failed or the run ran out of time; no result is printed."""


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv, deadline):
    """Run one worker to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(argv)}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }


def git_state():
    """Commit and dirty flag of this checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*a):
        return subprocess.run(["git", "-C", ROOT, *a], capture_output=True, text=True, env=env, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return {"commit": None, "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": head, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def result_line(runs, metrics):
    """The JSON result: every op of every worker counts, failed ones included."""
    attempted = sum(len(r["missed"]) for r in runs)
    failed = sum(1 for r in runs for missed in r["missed"] if missed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure(name, seed, seconds, trace, deadline):
    """Run the workers of one benchmark run; returns (result line, run record)."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}

    def setup_only():
        return spawn([*base, "--setup-only"], deadline)["setup_s"]

    # set-up is sampled in fresh workers spread over the run, so its median
    # does not rest on one moment of a host whose speed drifts
    before = [] if trace else [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    first = spawn(base, deadline)
    runs = [first]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"{name}_seed{seed}_spans.json")
        traced = spawn([*base, "--spans", spans_path], deadline)
        runs.append(traced)
        metrics = dict(traced["layers"])
        metrics[OVERHEAD_METRIC] = {"value": traced["overhead_s"], "unit": "s"}
        record.update(
            spans_file=spans_path,
            layer_table=traced["layer_table"],
            call_costs_s=traced["call_costs_s"],
            untraced_wall_s=sum(first["op_seconds"]),
            traced_wall_s=sum(traced["op_seconds"]),
        )
    else:
        setups = before + [first["setup_s"]]
        setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
        ops = first["op_seconds"]
        values = {
            "wall_s": sum(ops),
            "op_p50_s": statistics.median(ops),
            "peak_rss_mb": first["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        by_kind = {}
        for op, t in zip(first["inputs"], ops):
            by_kind.setdefault(op_kind(op), []).append(t)
        record["setup_samples"] = setups
        record["op_p50_s_by_kind"] = {k: [statistics.median(v), len(v)] for k, v in by_kind.items()}
    result = result_line(runs, metrics)
    record.update(
        machine=machine(),
        versions=first["versions"],
        git=git_state(),
        op_seconds=[r["op_seconds"] for r in runs],
        missed=[r["missed"] for r in runs],
        inputs=first["inputs"],
        result=result,
    )
    return result, record


def report(result, record):
    """Human-readable lines; the JSON result line follows them."""
    name, n = record["workload"], len(record["inputs"])
    print(f"workload {name}  seed {record['seed']}  ops {n}  blas threads {BLAS_THREADS}")
    metrics = result["metrics"]
    if record["trace"]:
        print(f"{'span':28s} {'calls':>8s} {'self_s':>10s} {'share':>7s}")
        for span, calls, self_s, share in record["layer_table"]:
            print(f"{span:28s} {calls:8d} {self_s:10.4f} {share:7.1%}")
        for key in LAYER_METRICS:
            print(f"{key:34s} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
        span_cost, pass_cost = record["call_costs_s"]
        print(f"{OVERHEAD_METRIC:34s} {metrics[OVERHEAD_METRIC]['value']:.4f} s "
              f"(estimated: {span_cost * 1e6:.2f} us per span, {pass_cost * 1e6:.2f} us per pass-through)")
        diff = record["traced_wall_s"] - record["untraced_wall_s"]
        print(f"{'traced - untraced wall_s':34s} {diff:.4f} s of {record['untraced_wall_s']:.4f} s "
              "(one pair: not resolved against the run-to-run spread)")
    else:
        notes = {"op_p50_s": f"(n={n})", "setup_s": f"(median of {SETUP_SAMPLES})"}
        for key, unit in END_TO_END.items():
            print(f"{key:12s} {metrics[key]['value']:.6g} {unit} {notes.get(key, '')}".rstrip())
            if key == "op_p50_s":
                for kind, (p50, k) in record["op_p50_s_by_kind"].items():
                    print(f"  {kind:22s} {p50:.6g} s (n={k})")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':12s} {rate:.6g} ({result['failed']} of {result['attempted']} ops failed)")
    for op_missed in record["missed"]:
        for i, missed in enumerate(op_missed):
            for m in missed:
                print(f"  op {i}: {m}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "stcmc", "__init__.py")):
        print(f"stcmc sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
