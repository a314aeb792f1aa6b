"""Batch command-line front end.

Subcommands: charges, solve, foliate, spectrum, example-s9, check.  Output is
deterministic for a fixed configuration (fixed quadrature, no randomness in
the main path); CSV files print floats with 17 significant digits, so reruns
are byte-identical on the same platform.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the
failing error class is printed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .chart import DataProviderSpec, build_provider
from .charges import adm_energy, charges_to_csv, sphere_fluxes, stcmc_center_coordinate
from .errors import ConfigError, StcmcError
from .solver import SolveConfig, foliate, laplace_spectrum, newton_solve
from .surfaces import GraphSurface, surface_scalars, surface_to_csv


def parse_grid(text):
    """Parse a list '1,2,3' or a log grid 'log:<start>:<stop>:<count>'."""
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError("log grid syntax is log:<start>:<stop>:<count>")
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
        if start <= 0 or stop <= start or count < 2:
            raise ConfigError("log grid needs 0 < start < stop and count >= 2")
        return list(np.exp(np.linspace(np.log(start), np.log(stop), count)))
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc


def _spec_from_args(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            spec = DataProviderSpec.from_dict(json.load(fh))
    else:
        data = getattr(args, "data", None)
        if data is None:
            raise ConfigError("either --data or --config is required")
        aliases = {"schwarzschild": "schwarzschild_canonical"}
        kind = aliases.get(data, data)
        spec = DataProviderSpec(
            kind=kind,
            mass=getattr(args, "mass", None),
            u=tuple(parse_grid(args.u)) if getattr(args, "u", None) else None,
        )
    if getattr(args, "center", None):
        spec = DataProviderSpec(kind="translated", center=tuple(parse_grid(args.center)), inner=spec)
    build_provider(spec)  # validate eagerly
    return spec


def _add_provider_flags(p):
    p.add_argument("--data", help="provider kind (euclidean, schwarzschild, schwarzschild_graphical, ...)")
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--u", help="slice direction vector, e.g. 1,0,0")
    p.add_argument("--center", help="translate the data by this vector")
    p.add_argument("--config", help="JSON provider spec file")
    p.add_argument("--lmax", type=int, default=24)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", help="output CSV path")


def build_parser():
    ap = argparse.ArgumentParser(prog="stcmc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charges", help="flux integrals over a radius sweep")
    _add_provider_flags(p)
    p.add_argument("--radii", required=True, help="comma list or log:<a>:<b>:<n>")

    p = sub.add_parser("solve", help="one prescribed-curvature surface")
    _add_provider_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--r0", type=float, default=None, help="seed sphere radius (default sigma)")

    p = sub.add_parser("foliate", help="sweep sigma and report the leaves")
    _add_provider_flags(p)
    p.add_argument("--sigma-list", required=True, help="comma list or log:<a>:<b>:<n>")

    p = sub.add_parser("spectrum", help="Laplace spectrum of a solved leaf")
    _add_provider_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, default=8)

    p = sub.add_parser("example-s9", help="graphical-slice center cancellation demo")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--u", default="1,0,0")
    p.add_argument("--s-grid", default="log:100:10000:16")
    p.add_argument("--lmax", type=int, default=24)
    p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("check", help="run the acceptance suite")
    return ap


def cmd_charges(args):
    spec = _spec_from_args(args)
    radii = parse_grid(args.radii)
    if args.out:
        charge, center, evo = charges_to_csv(args.out, spec, radii, lmax=args.lmax)
        print(f"wrote {args.out}")
    else:
        fx = sphere_fluxes(spec, radii, args.lmax)
        charge = adm_energy(spec, radii, args.lmax, fluxes=fx)
        center = None
        if abs(charge.energy) > 1e-12:
            center = stcmc_center_coordinate(spec, radii, charge.energy, args.lmax, fluxes=fx)
        print(f"{'radius':>10} {'E':>14} {'|P|':>12} {'C_sum_1':>12}")
        for i, s in enumerate(radii):
            csum = center.sum_values[i, 0] if center is not None else float("nan")
            print(
                f"{s:10.2f} {charge.energy_values[i]:14.8f} "
                f"{np.linalg.norm(charge.momentum_values[i]):12.3e} "
                f"{csum:12.5f}"
            )
    print(f"E = {charge.energy:.10g}  P = {charge.momentum}  m = {charge.mass:.10g}")
    return 0


def cmd_solve(args):
    spec = _spec_from_args(args)
    r0 = args.r0 if args.r0 is not None else args.sigma
    seed = GraphSurface.round(np.zeros(3), r0, args.lmax)
    result = newton_solve(spec, args.sigma, seed, SolveConfig(lmax=args.lmax, tol=args.tol))
    sc = surface_scalars(spec, result.surface)
    print(
        f"converged in {result.iterations} iterations; residual sup {result.residual_sup:.3e}\n"
        f"area radius {sc.area_radius:.10g}  center {sc.center}  m_H {sc.hawking_mass:.10g}"
    )
    if args.out:
        surface_to_csv(spec, result.surface, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_foliate(args):
    spec = _spec_from_args(args)
    sigmas = parse_grid(args.sigma_list)
    fol = foliate(spec, sigmas, SolveConfig(lmax=args.lmax, tol=args.tol))
    rows = []
    for leaf in fol:
        rows.append(
            [leaf.sigma, leaf.area_radius, *leaf.center, leaf.hawking_mass,
             *leaf.eigenvalues, leaf.sigma_min_L, leaf.residual_sup]
        )
    header = ["sigma", "r_area", "z1", "z2", "z3", "m_hawking",
              "lambda1", "lambda2", "lambda3", "sigma_min_L", "residual"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
        print(f"wrote {args.out}")
    else:
        print(" ".join(f"{h:>12}" for h in header))
        for row in rows:
            print(" ".join(f"{v:12.5g}" for v in row))
    flags = [leaf.lapse_positive for leaf in fol]
    print(f"lapse positivity along the sweep: {flags}")
    return 0


def cmd_spectrum(args):
    spec = _spec_from_args(args)
    seed = GraphSurface.round(np.zeros(3), args.sigma, args.lmax)
    result = newton_solve(spec, args.sigma, seed, SolveConfig(lmax=args.lmax, tol=args.tol))
    rep = laplace_spectrum(spec, result.surface, k=args.k)
    print(f"eigenvalues: {rep.eigenvalues}")
    print(f"predicted l=1 values: {rep.predicted_lambda}")
    print(f"sigma_min(L) = {rep.sigma_min_L:.6e}  bound 3|m_H|/sigma^3 = {rep.invertibility_bound:.6e}")
    return 0


def cmd_example_s9(args):
    u = tuple(parse_grid(args.u))
    spec = DataProviderSpec(kind="schwarzschild_graphical", mass=args.mass, u=u)
    build_provider(spec)
    sgrid = parse_grid(args.s_grid)
    fx = sphere_fluxes(spec, sgrid, args.lmax)
    charge = adm_energy(spec, sgrid, args.lmax, fluxes=fx)
    cen = stcmc_center_coordinate(spec, sgrid, charge.energy, args.lmax, fluxes=fx)
    print(f"{'s':>10} {'C_BOM.u':>12} {'Z.u':>12} {'sum.u':>12}")
    uhat = np.asarray(u, dtype=float)
    uhat /= np.linalg.norm(uhat)
    for i, s in enumerate(sgrid):
        print(
            f"{s:10.1f} {cen.bom_values[i] @ uhat:12.6f} "
            f"{cen.z_values[i] @ uhat:12.6f} {cen.sum_values[i] @ uhat:12.3e}"
        )
    print(
        f"metric-term divergent: {cen.bom_divergent}; "
        f"sum divergent: {cen.sum_divergent}; sum limit: {cen.sum_limit}"
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "CBOM1", "CBOM2", "CBOM3", "Z1", "Z2", "Z3", "SUM1", "SUM2", "SUM3"])
            for i, s in enumerate(sgrid):
                row = [s, *cen.bom_values[i], *cen.z_values[i], *cen.sum_values[i]]
                writer.writerow([f"{v:.17g}" for v in row])
        print(f"wrote {args.out}")
    return 0


def cmd_check(args):
    from .acceptance import run_all

    results = run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {
    "charges": cmd_charges,
    "solve": cmd_solve,
    "foliate": cmd_foliate,
    "spectrum": cmd_spectrum,
    "example-s9": cmd_example_s9,
    "check": cmd_check,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except StcmcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
