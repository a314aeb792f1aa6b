"""In-memory span recorder and the wrappers that put spans around stcmc.

The benchmark measures the layers of an unmodified program: `install`
replaces public functions of stcmc, and the dense linear algebra the solver
calls, with thin wrappers that record one span per call.  A function is
replaced in every module namespace where a caller looks its name up (for
example `surface_frames` is imported by name into `solver`), and methods are
replaced on their classes, so nested calls become child spans.  Untraced runs
never call `install`.

A span is `[name, start, end, parent, op]`: the span name is
`<module>.<layer>`, `parent` is the index of the enclosing span (-1 at the
root) and `op` the workload op the span belongs to (None during set-up).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("chart", "spectral", "surfaces", "solver", "charges")

# Per-layer metrics: name -> (unit, how it is derived).  ("self", spans) sums
# the self time of those span names, ("calls", span) counts spans, and
# ("count", key) reads a counter recorded at the span boundary.
LAYER_METRICS = {
    "chart.jet_calls": ("count", ("calls", "chart.jet")),
    "chart.jet_points": ("count", ("count", "chart.jet_points")),
    "chart.jet_s": ("s", ("self", ("chart.jet",))),
    "chart.constraint_calls": ("count", ("calls", "chart.constraint")),
    "chart.constraint_s": ("s", ("self", ("chart.constraint",))),
    "chart.curvature_s": ("s", ("self", ("chart.curvature",))),
    "spectral.build_grid_calls": ("count", ("calls", "spectral.build_grid")),
    "spectral.build_grid_s": ("s", ("self", ("spectral.build_grid",))),
    "spectral.synth_jet_calls": ("count", ("calls", "spectral.synth_jet")),
    "spectral.synth_jet_cols": ("count", ("count", "spectral.synth_jet_cols")),
    "spectral.synth_jet_s": ("s", ("self", ("spectral.synth_jet",))),
    "spectral.analyze_calls": ("count", ("calls", "spectral.analyze")),
    "spectral.analyze_cols": ("count", ("count", "spectral.analyze_cols")),
    "spectral.analyze_s": ("s", ("self", ("spectral.analyze",))),
    "spectral.basis_eval_s": ("s", ("self", ("spectral.basis_eval",))),
    "spectral.transform_flops_computed": ("flop", ("count", "spectral.transform_flops")),
    "surfaces.frames_calls": ("count", ("calls", "surfaces.frames")),
    "surfaces.frames_s": ("s", ("self", ("surfaces.frames",))),
    "surfaces.rebase_calls": ("count", ("calls", "surfaces.rebase")),
    "surfaces.rebase_s": ("s", ("self", ("surfaces.rebase",))),
    "surfaces.graph_residual_calls": ("count", ("calls", "surfaces.graph_residual")),
    "surfaces.graph_residual_s": ("s", ("self", ("surfaces.graph_residual",))),
    "solver.newton_iters": ("count", ("count", "solver.newton_iters")),
    "solver.residual_calls": ("count", ("calls", "solver.residual")),
    "solver.step_accept_ratio": ("ratio", ("ratio", ("solver.newton_iters", "solver.residual"))),
    "solver.jacobian_calls": ("count", ("calls", "solver.jacobian")),
    "solver.jacobian_s": ("s", ("self", ("solver.jacobian",))),
    "solver.linearization_calls": ("count", ("calls", "solver.linearization")),
    "solver.linearization_s": ("s", ("self", ("solver.linearization",))),
    "solver.spectrum_s": ("s", ("self", ("solver.spectrum",))),
    "solver.linalg_s": ("s", ("self", ("solver.linalg",))),
    "charges.spheres": ("count", ("count", "charges.spheres")),
    "charges.fluxes_s": ("s", ("self", ("charges.fluxes",))),
    "charges.fit_calls": ("count", ("calls", "charges.fit")),
    "charges.fit_s": ("s", ("self", ("charges.fit",))),
}
# Whole-module self time, so the share of each package module shows.
for _module in MODULES:
    LAYER_METRICS[f"{_module}.self_s"] = ("s", ("module", _module))
OVERHEAD_METRIC = "trace.overhead_s"


class Tracer:
    """Records spans and boundary counts of one traced worker."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.enabled = True
        self.passed = 0  # wrapped calls in ops that ran without a span (see `under`)
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, count=None, under=None):
        """`fn` with a span per call; `count(counts, args, result)` runs after it.

        With `under`, a span is recorded only while the innermost open span
        name starts with that prefix; other calls pass straight through.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if under and not (tracer.current() or "").startswith(under):
                if tracer.op is not None:
                    tracer.passed += 1
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return traced


def call_costs(n=10000, repeats=5):
    """Seconds a wrapper adds per call: (with a span, passed through).

    Times n calls of a wrapped no-op against n bare calls, best of `repeats`,
    once for a call that records a span and a counter and once for a call
    that passes through because it is not under its prefix.
    """
    def noop(*args):
        return None

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(None)
            times.append(time.perf_counter() - t0)
        return min(times) / n

    tracer = Tracer()
    tracer.op = 0  # calls as inside an op, where pass-throughs are counted
    bare = best(noop)
    spanned = best(tracer.wrap("calibrate", noop, count=lambda counts, args, out: None))
    passed = best(tracer.wrap("calibrate", noop, under="never."))
    return max(spanned - bare, 0.0), max(passed - bare, 0.0)


def overhead_estimate(tracer, costs):
    """Tracing time added to the ops: spans recorded in ops times their cost,
    plus pass-through calls times theirs."""
    span_cost, pass_cost = costs
    in_ops = sum(1 for s in tracer.spans if s[4] is not None)
    return in_ops * span_cost + tracer.passed * pass_cost


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts):
    """The per-layer metrics of LAYER_METRICS from a span list and counters."""
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = Counter()
    for (name, *_), st in zip(spans, selfs):
        self_by_name[name] += st
        calls[name] += 1
    out = {}
    for metric, (unit, (kind, src)) in LAYER_METRICS.items():
        if kind == "self":
            value = sum(self_by_name[n] for n in src)
        elif kind == "calls":
            value = calls[src]
        elif kind == "count":
            value = counts.get(src, 0)
        elif kind == "ratio":
            num, den = counts.get(src[0], 0), calls[src[1]]
            value = num / den if den else 0.0
        else:  # module
            value = sum(v for n, v in self_by_name.items() if n.startswith(src + "."))
        out[metric] = {"value": value, "unit": unit}
    return out


def layer_table(spans):
    """Rows (span name, calls, self seconds, share of traced time), largest first."""
    selfs = self_times(spans)
    total = sum(selfs) or 1.0
    agg = defaultdict(lambda: [0, 0.0])
    for (name, *_), st in zip(spans, selfs):
        agg[name][0] += 1
        agg[name][1] += st
    rows = [(name, n, s, s / total) for name, (n, s) in agg.items()]
    return sorted(rows, key=lambda r: -r[2])


# -- boundary counters ---------------------------------------------------------

def _leading(a):
    """Number of fields in an array whose last axis is the transform axis."""
    return math.prod(getattr(a, "shape", ())[:-1])


def _count_jet(counts, args, out):
    x = args[1]
    counts["chart.jet_points"] += len(x) if getattr(x, "ndim", 1) == 2 else 1


def _count_synth_jet(counts, args, out):
    grid, cols = args[0], _leading(args[1])
    counts["spectral.synth_jet_cols"] += cols
    # seven dense (cols x nbasis) @ (nbasis x nnodes) products per call
    counts["spectral.transform_flops"] += 14 * cols * grid.nbasis * grid.nnodes


def _count_analyze(counts, args, out):
    grid, cols = args[0], _leading(args[1])
    counts["spectral.analyze_cols"] += cols
    counts["spectral.transform_flops"] += 2 * cols * grid.nbasis * grid.nnodes


def _count_spheres(counts, args, out):
    counts["charges.spheres"] += len(args[1])


def _count_newton(counts, args, out):
    counts["solver.newton_iters"] += out.iterations


# -- installation --------------------------------------------------------------

def install(tracer):
    """Wrap stcmc's public functions; returns a function that undoes it."""
    import numpy as np
    import scipy.linalg

    from stcmc import chart, charges, solver, spectral, surfaces

    modules = [m for n, m in list(sys.modules.items()) if n == "stcmc" or n.startswith("stcmc.")]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def function(fn, name, count=None, namespaces=None):
        wrapped = tracer.wrap(name, fn, count)
        for mod in namespaces or modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    replace(mod, attr, wrapped)

    def method(cls, attr, name, count=None):
        replace(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))

    providers = chart.DataProvider.__subclasses__()
    while providers:
        cls = providers.pop()
        providers.extend(cls.__subclasses__())
        for attr in ("metric_jet", "extrinsic_jet"):
            if attr in cls.__dict__:
                method(cls, attr, "chart.jet", _count_jet)
    function(chart.constraint_densities, "chart.constraint")
    function(chart.christoffel, "chart.curvature")
    function(chart.ricci_scalar_curvature, "chart.curvature")

    function(spectral.build_grid, "spectral.build_grid")
    method(spectral.SphereGrid, "synth_jet", "spectral.synth_jet", _count_synth_jet)
    method(spectral.SphereGrid, "analyze", "spectral.analyze", _count_analyze)
    # only the look-up made by GraphSurface.radius_at; build_grid's own
    # basis evaluation stays inside its span
    function(spectral.real_sph_basis, "spectral.basis_eval", namespaces=[surfaces])

    function(surfaces.surface_frames, "surfaces.frames")
    function(surfaces.rebase, "surfaces.rebase")
    function(surfaces.appendix_graph_residual, "surfaces.graph_residual")
    function(surfaces.solve_graph_residual, "surfaces.graph_solve")

    function(solver.foliate, "solver.foliate")
    function(solver.newton_solve, "solver.newton", _count_newton)
    function(solver.curvature_residual, "solver.residual")
    function(solver.graph_jacobian, "solver.jacobian")
    function(solver.assemble_linearization, "solver.linearization")
    function(solver.laplace_spectrum, "solver.spectrum")

    function(charges.sphere_fluxes, "charges.fluxes", _count_spheres)
    function(charges.fit_power_tail, "charges.fit")
    for fn in (charges.adm_energy, charges.stcmc_center_coordinate, charges.velocity_integral):
        function(fn, "charges.report")

    # dense linear algebra counts as solver.linalg only under solver spans;
    # elsewhere (e.g. the pointwise metric inverse) it stays in its caller
    for attr in ("lstsq", "cond", "inv", "svd", "cholesky", "solve"):
        replace(np.linalg, attr, tracer.wrap("solver.linalg", getattr(np.linalg, attr), under="solver."))
    replace(scipy.linalg, "eigh", tracer.wrap("solver.linalg", scipy.linalg.eigh, under="solver."))

    def uninstall():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return uninstall
