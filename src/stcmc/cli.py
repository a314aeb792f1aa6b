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
import math
import sys

import numpy as np

from .chart import build_provider
from .charges import _fit_columns, adm_energy, sphere_fluxes, stcmc_center_coordinate, velocity_integral
from .errors import ConfigError, StcmcError, ZeroEnergy
from .solver import SolveConfig, check_spectrum_k, foliate, laplace_spectrum, newton_solve
from .surfaces import GraphSurface, check_sigma, surface_scalars, surface_to_csv


def parse_grid(text):
    """Parse a list '1,2,3' or a log grid 'log:<start>:<stop>:<count>'."""
    try:
        if not text.startswith("log:"):
            return [float(tok) for tok in text.split(",") if tok]
        _, start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}; use 1,2,3 or log:<start>:<stop>:<count>") from exc
    if not 0 < start < stop < math.inf or count < 2:
        raise ConfigError("log grid needs 0 < start < stop < inf and an integer count >= 2")
    return list(np.exp(np.linspace(np.log(start), np.log(stop), count)))


def _provider_from_args(args):
    """The provider of the --config file, or of --data/--mass/--u, translated by --center."""
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read provider config {args.config!r}: {exc}") from exc
    elif args.data is None:
        raise ConfigError("either --data or --config is required")
    else:
        aliases = {"schwarzschild": "schwarzschild_canonical"}
        config = {"kind": aliases.get(args.data, args.data)}
        if args.mass is not None:
            config["mass"] = args.mass
        if args.u:
            config["u"] = parse_grid(args.u)
    if args.center:
        config = {"kind": "translated", "center": parse_grid(args.center), "inner": config}
    return build_provider(config)


def _add_provider_flags(p):
    p.add_argument("--data", help="provider kind (euclidean, schwarzschild, schwarzschild_graphical, ...)")
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--u", help="slice direction vector, e.g. 1,0,0")
    p.add_argument("--center", help="translate the data by this vector")
    p.add_argument("--config", help="JSON provider config file")
    p.add_argument("--lmax", type=int, default=24)


def _add_tol(p):
    p.add_argument("--tol", type=float, default=1e-10, help="residual sup tolerance of the solve")


def _add_out(p):
    p.add_argument("--out", help="output CSV path")


def build_parser():
    ap = argparse.ArgumentParser(prog="stcmc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charges", help="flux integrals over a radius sweep")
    _add_provider_flags(p)
    p.add_argument("--radii", required=True, help="comma list or log:<a>:<b>:<n>")
    _add_out(p)

    p = sub.add_parser("solve", help="one prescribed-curvature surface")
    _add_provider_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--r0", type=float, default=None, help="seed sphere radius (default sigma)")
    _add_tol(p)
    _add_out(p)

    p = sub.add_parser("foliate", help="sweep sigma and report the leaves")
    _add_provider_flags(p)
    p.add_argument("--sigma-list", required=True, help="comma list or log:<a>:<b>:<n>")
    _add_tol(p)
    _add_out(p)

    p = sub.add_parser("spectrum", help="Laplace spectrum of a solved leaf")
    _add_provider_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, default=8)
    _add_tol(p)

    p = sub.add_parser("example-s9", help="graphical-slice center cancellation demo")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--u", default="1,0,0")
    p.add_argument("--s-grid", default="log:100:10000:16")
    p.add_argument("--lmax", type=int, default=24)
    _add_out(p)

    sub.add_parser("check", help="run the acceptance suite")
    return ap


def _write_csv(path, header, rows):
    """Write a header and rows of floats printed with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    print(f"wrote {path}")


def cmd_charges(args):
    prov = _provider_from_args(args)
    radii = parse_grid(args.radii)
    _fit_columns(radii)  # radii the fit cannot use fail before any sphere is evaluated
    fx = sphere_fluxes(prov, radii, args.lmax)
    charge = adm_energy(prov, radii, args.lmax, fluxes=fx)
    try:
        center = stcmc_center_coordinate(prov, radii, charge.energy, args.lmax, fluxes=fx)
        evo = velocity_integral(prov, radii, charge.energy, args.lmax, fluxes=fx)
        bom, z, csum, vel = center.bom_values, center.z_values, center.sum_values, evo.velocity_values
    except ZeroEnergy:  # the center and velocity integrals divide by E
        bom = z = csum = vel = np.full((len(radii), 3), np.nan)
    print(f"{'radius':>10} {'E':>14} {'|P|':>12} {'C_sum_1':>12}")
    for i, s in enumerate(radii):
        print(
            f"{s:10.2f} {charge.energy_values[i]:14.8f} "
            f"{np.linalg.norm(charge.momentum_values[i]):12.3e} "
            f"{csum[i, 0]:12.5f}"
        )
    if args.out:
        header = ["radius", "E", "P1", "P2", "P3", "CBOM1", "CBOM2", "CBOM3",
                  "Z1", "Z2", "Z3", "CSTCMC1", "CSTCMC2", "CSTCMC3", "V1", "V2", "V3"]
        rows = (
            [s, charge.energy_values[i], *charge.momentum_values[i], *bom[i], *z[i], *csum[i], *vel[i]]
            for i, s in enumerate(radii)
        )
        _write_csv(args.out, header, rows)
    print(f"E = {charge.energy:.10g}  P = {charge.momentum}  m = {charge.mass:.10g}")
    return 0


def cmd_solve(args):
    prov = _provider_from_args(args)
    check_sigma(args.sigma)
    r0 = args.r0 if args.r0 is not None else args.sigma
    seed = GraphSurface.round(np.zeros(3), r0, args.lmax)
    result = newton_solve(prov, args.sigma, seed, SolveConfig(lmax=args.lmax, tol=args.tol))
    sc = surface_scalars(result.frames)
    print(
        f"converged in {result.iterations} iterations; residual sup {result.residual_sup:.3e}\n"
        f"area radius {sc.area_radius:.10g}  center {sc.center}  m_H {sc.hawking_mass:.10g}"
    )
    if args.out:
        surface_to_csv(result.frames, result.surface, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_foliate(args):
    prov = _provider_from_args(args)
    sigmas = parse_grid(args.sigma_list)
    fol = foliate(prov, sigmas, SolveConfig(lmax=args.lmax, tol=args.tol))
    rows = []
    for leaf in fol:
        rows.append(
            [leaf.sigma, leaf.area_radius, *leaf.center, leaf.hawking_mass,
             *leaf.eigenvalues, leaf.sigma_min_L, leaf.residual_sup]
        )
    header = ["sigma", "r_area", "z1", "z2", "z3", "m_hawking",
              "lambda1", "lambda2", "lambda3", "sigma_min_L", "residual"]
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        print(" ".join(f"{h:>12}" for h in header))
        for row in rows:
            print(" ".join(f"{v:12.5g}" for v in row))
    flags = [leaf.lapse_positive for leaf in fol]
    print(f"lapse positivity along the sweep: {flags}")
    return 0


def cmd_spectrum(args):
    prov = _provider_from_args(args)
    check_sigma(args.sigma)
    check_spectrum_k(args.k, args.lmax)
    seed = GraphSurface.round(np.zeros(3), args.sigma, args.lmax)
    result = newton_solve(prov, args.sigma, seed, SolveConfig(lmax=args.lmax, tol=args.tol))
    rep = laplace_spectrum(result.frames, k=args.k)
    print(f"eigenvalues: {rep.eigenvalues}")
    print(f"predicted l=1 values: {rep.predicted_lambda}")
    print(f"sigma_min(L) = {rep.sigma_min_L:.6e}  bound 3|m_H|/sigma^3 = {rep.invertibility_bound:.6e}")
    return 0


def cmd_example_s9(args):
    u = np.asarray(parse_grid(args.u))
    if u.shape != (3,) or not np.linalg.norm(u) > 0:
        raise ConfigError(f"--u must be a nonzero 3-vector, got {args.u!r}")
    prov = build_provider({"kind": "schwarzschild_graphical", "mass": args.mass, "u": u})
    sgrid = parse_grid(args.s_grid)
    _fit_columns(sgrid)
    fx = sphere_fluxes(prov, sgrid, args.lmax)
    charge = adm_energy(prov, sgrid, args.lmax, fluxes=fx)
    cen = stcmc_center_coordinate(prov, sgrid, charge.energy, args.lmax, fluxes=fx)
    print(f"{'s':>10} {'C_BOM.u':>12} {'Z.u':>12} {'sum.u':>12}")
    uhat = u / np.linalg.norm(u)
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
        header = ["s", "CBOM1", "CBOM2", "CBOM3", "Z1", "Z2", "Z3", "SUM1", "SUM2", "SUM3"]
        rows = ([s, *cen.bom_values[i], *cen.z_values[i], *cen.sum_values[i]] for i, s in enumerate(sgrid))
        _write_csv(args.out, header, rows)
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
