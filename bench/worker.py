"""One benchmark worker: set up, run a workload's ops, print one JSON line.

run.py starts a fresh interpreter for every measurement, because a
command-line user pays the imports and the grid builds on every invocation;
set-up time runs from this file's first statement until the workload is
ready for its first op.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--spans PATH]

With --spans the stcmc layers are wrapped (spans.install) and the spans are
written to PATH when the run ends; without it nothing is wrapped.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, make_inputs  # noqa: E402


def run_ops(workload, ctx, ops, tracer=None):
    """Run every op once, in order; time it, then gate its output.

    An op fails when it raises a StcmcError or its output misses its oracle.
    Failed ops are recorded with the reason and never retried or skipped.
    """
    from stcmc.errors import StcmcError

    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        span = tracer.span("op") if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = workload.run(ctx, i, op)
        except StcmcError as exc:
            seconds = time.perf_counter() - t0
            results.append({"seconds": seconds, "missed": [f"{type(exc).__name__}: {exc}"]})
            continue
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False  # the oracle's own calls are not the workload's
        try:
            missed = workload.check(ctx, i, op, out)
        except StcmcError as exc:
            missed = [f"oracle raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.enabled = True
        results.append({"seconds": seconds, "missed": missed})
    return results


def _versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    setup_span = contextlib.nullcontext()
    if args.spans:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        setup_span = tracer.span("setup")
    with setup_span:
        ops = make_inputs(workload, args.seed, args.seconds)
        ctx = workload.setup(ops)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = run_ops(workload, ctx, ops, tracer)
    out = {
        "setup_s": setup_s,
        "op_seconds": [r["seconds"] for r in results],
        "missed": [r["missed"] for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "inputs": ops,
    }
    if tracer is not None:
        from spans import call_costs, layer_metrics, layer_table, overhead_estimate

        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
        out["layers"] = layer_metrics(tracer.spans, tracer.counts)
        out["layer_table"] = layer_table(tracer.spans)
        costs = call_costs()
        out["overhead_s"] = overhead_estimate(tracer, costs)
        out["call_costs_s"] = costs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
