"""Asymptotic flux integrals on coordinate spheres and their extrapolation.

Energy and linear momentum are the classical surface integrals of metric
derivatives and of the conjugate momentum pi = (tr K) g - K.  The center
integrals comprise the metric-only part, the momentum-squared correction

    Z^i(s) = (1/32 pi E) int x^i (pi_kl x^k x^l)^2 / s^3 dmu_delta,

and their sum, which is the center attached to the foliation by surfaces of
constant Lorentzian mean curvature.  Limits are estimated by fitting
c0 + c1 s^-p over the sampled radii; a divergence verdict is raised when the
residual is dominated by a log-periodic (cos ln s, sin ln s) component, the
signature mode of the bounded-oscillation examples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chart import as_provider, conjugate_momentum, constraint_densities
from .errors import (
    ConfigError,
    InsufficientLeaves,
    NotOrthogonal,
    SpacelikeEnergyMomentum,
    ZeroEnergy,
)
from .spectral import get_grid


# -- extrapolation ------------------------------------------------------------

@dataclass
class PowerFit:
    c0: float
    c1: float
    p: float
    residual: float
    osc_amplitude: float
    rest_rms: float
    divergent: bool


def fit_power_tail(radii, values, p_grid=None):
    """Least-squares fit of c0 + c1 s^-p with p scanned then refined.

    With six or more radii the log-periodic pair cos(ln s), sin(ln s) is
    fitted jointly, so the power tail cannot absorb an oscillation; the value
    is flagged divergent when the oscillatory amplitude dominates the
    remaining (decaying) residual tenfold.
    """
    s = np.asarray(radii, dtype=float)
    y = np.asarray(values, dtype=float)
    if s.size < 3:
        raise ConfigError("need at least three radii for extrapolation")
    with_osc = s.size >= 6
    damped_osc = s.size >= 8
    osc = np.stack([np.cos(np.log(s)), np.sin(np.log(s))], axis=1)

    def solve_for(p):
        cols = [np.ones_like(s), s**-p]
        if with_osc:
            cols += [osc[:, 0], osc[:, 1]]
        if damped_osc:
            # a decaying oscillation is not divergence; give it its own columns
            cols += [osc[:, 0] / s, osc[:, 1] / s]
        A = np.stack(cols, axis=1)
        c, *_ = np.linalg.lstsq(A, y, rcond=None)
        r = A @ c - y
        return float(np.sqrt(r @ r)), c

    if p_grid is None:
        p_grid = np.linspace(0.25, 4.0, 76)
    best_p, (best_r, best_c) = p_grid[0], solve_for(p_grid[0])
    for p in p_grid[1:]:
        r, c = solve_for(p)
        if r < best_r:
            best_p, best_r, best_c = p, r, c
    lo, hi = max(best_p - 0.25, 0.05), best_p + 0.25
    for _ in range(40):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        if solve_for(m1)[0] < solve_for(m2)[0]:
            hi = m2
        else:
            lo = m1
    best_p = 0.5 * (lo + hi)
    best_r, best_c = solve_for(best_p)

    if with_osc:
        osc_amp = float(np.hypot(best_c[2], best_c[3]))
        model = best_c[0] + best_c[1] * s**-best_p + osc @ best_c[2:4]
        if damped_osc:
            model = model + (osc / s[:, None]) @ best_c[4:6]
        rest = y - model
    else:
        resid = y - best_c[0] - best_c[1] * s**-best_p
        ab, *_ = np.linalg.lstsq(osc, resid, rcond=None)
        osc_amp = float(np.hypot(*ab))
        rest = resid - osc @ ab
    rest_rms = float(np.sqrt(np.mean(rest**2)))
    scale = max(np.max(np.abs(y)), 1e-300)
    # divergence requires the non-decaying oscillation to dominate the decaying
    # residual, to account for a nontrivial fraction of the observed swing, and
    # to sit above quadrature-noise level on the unit problem scale
    spread = float(np.ptp(y))
    divergent = (
        osc_amp > 10.0 * max(rest_rms, 1e-13 * scale)
        and osc_amp > 0.05 * spread
        and osc_amp > 1e-7 * max(1.0, scale)
    )
    return PowerFit(
        c0=float(best_c[0]),
        c1=float(best_c[1]),
        p=float(best_p),
        residual=best_r,
        osc_amplitude=osc_amp,
        rest_rms=rest_rms,
        divergent=bool(divergent),
    )


# -- raw sphere fluxes ---------------------------------------------------------

def sphere_fluxes(spec, radii, lmax=24, center=(0.0, 0.0, 0.0)):
    """All per-radius flux integrands in one sweep over coordinate spheres.

    Returns dict with per-radius arrays: E, P (n,3), bom_raw (n,3), z_raw
    (n,3) (both centers premultiplied by 16 pi E resp. 32 pi E) and
    velocity_raw (n,3).  Spheres are centered at `center`; the explicit
    position factors in the center integrands stay in global chart
    coordinates.
    """
    prov = as_provider(spec)
    radii = np.asarray(radii, dtype=float)
    center = np.asarray(center, dtype=float).reshape(3)
    grid = get_grid(lmax)
    om = grid.unit_vectors()["o"]
    uv = grid.unit_vectors()
    th, _ = grid.mesh()
    st = np.sin(th)
    out = {"E": [], "P": [], "bom_raw": [], "z_raw": [], "velocity_raw": []}
    for s in radii:
        x = center + s * om
        mj = prov.metric_jet(x)
        ej = prov.extrinsic_jet(x)
        g, dg, K = mj.g, mj.dg, ej.K
        pi = conjugate_momentum(mj, K)
        wq = grid.w * s**2  # euclidean measure on the sphere of radius s
        # energy integrand: sum_ij (d_i g_ij - d_j g_ii) x^j / s
        lhs = np.einsum("niji->nj", dg) - np.einsum("niij->nj", dg)
        e_int = np.einsum("nj,nj->n", lhs, om)
        out["E"].append(float((e_int * wq).sum() / (16.0 * math.pi)))
        # momentum: P^j = (1/8 pi) int pi_ij x^i / s
        p_int = np.einsum("nij,ni->nj", pi, om)
        out["P"].append((p_int * wq[:, None]).sum(axis=0) / (8.0 * math.pi))
        # metric-only center integrand (to be divided by 16 pi E)
        trg = np.einsum("nii->n", g)
        b_int = e_int[:, None] * x - (np.einsum("nil,ni->nl", g, om) - trg[:, None] * om)
        out["bom_raw"].append((b_int * wq[:, None]).sum(axis=0))
        # correction: x^i (pi_kl x^k x^l)^2 / s^3
        pixx = np.einsum("nkl,nk,nl->n", pi, x, x)
        z_int = x * (pixx**2)[:, None] / s**3
        out["z_raw"].append((z_int * wq[:, None]).sum(axis=0))
        # velocity integrand over the induced (curved) sphere measure
        tang = np.stack([s * uv["ot"], s * uv["op"]], axis=1)
        g2 = np.einsum("nai,nij,nbj->nab", tang, g, tang)
        det2 = g2[:, 0, 0] * g2[:, 1, 1] - g2[:, 0, 1] ** 2
        dmu_g = np.sqrt(det2) / st
        v_int = np.einsum("nij,nj->ni", pi, om)
        out["velocity_raw"].append((v_int * (grid.w * dmu_g)[:, None]).sum(axis=0))
    return {k: np.asarray(v) for k, v in out.items()}


# -- reports -------------------------------------------------------------------

@dataclass
class ChargeReport:
    radii: np.ndarray
    energy_values: np.ndarray
    momentum_values: np.ndarray
    energy: float
    momentum: np.ndarray
    mass: float
    energy_fit: PowerFit
    momentum_fits: list


@dataclass
class CenterReport:
    radii: np.ndarray
    bom_values: np.ndarray
    z_values: np.ndarray
    sum_values: np.ndarray
    bom_fits: list
    z_fits: list
    sum_fits: list

    @property
    def bom_divergent(self):
        return any(f.divergent for f in self.bom_fits)

    @property
    def sum_divergent(self):
        return any(f.divergent for f in self.sum_fits)

    @property
    def bom_limit(self):
        return np.array([f.c0 for f in self.bom_fits])

    @property
    def z_limit(self):
        return np.array([f.c0 for f in self.z_fits])

    @property
    def sum_limit(self):
        return np.array([f.c0 for f in self.sum_fits])


@dataclass
class EvolutionReport:
    radii: np.ndarray
    velocity_values: np.ndarray
    velocity: np.ndarray
    momentum_over_energy: np.ndarray
    discrepancy: float


def adm_energy(spec, radii, lmax=24, fluxes=None):
    fx = fluxes if fluxes is not None else sphere_fluxes(spec, radii, lmax)
    radii = np.asarray(radii, dtype=float)
    efit = fit_power_tail(radii, fx["E"])
    pfits = [fit_power_tail(radii, fx["P"][:, i]) for i in range(3)]
    E = efit.c0
    P = np.array([f.c0 for f in pfits])
    m = adm_mass(E, P) if E**2 >= P @ P else float("nan")
    return ChargeReport(
        radii=radii,
        energy_values=fx["E"],
        momentum_values=fx["P"],
        energy=E,
        momentum=P,
        mass=m,
        energy_fit=efit,
        momentum_fits=pfits,
    )


def adm_mass(E, P):
    P = np.asarray(P, dtype=float).reshape(3)
    m2 = float(E) ** 2 - float(P @ P)
    if m2 < 0:
        raise SpacelikeEnergyMomentum(f"E^2 - |P|^2 = {m2:.3e} < 0")
    return math.sqrt(m2)


def stcmc_center_coordinate(spec, radii, E, lmax=24, fluxes=None):
    """Center report: the metric (Beig-O Murchadha) center, the correction Z and their sum.

    sum_values is exactly bom_values + z_values per sampled radius; its limit
    is the coordinate center of the foliation by surfaces of constant
    spacetime mean curvature.  Each column carries its own power-tail fit.
    """
    if abs(E) <= 1e-12:
        raise ZeroEnergy("center integrals are undefined at E = 0")
    fx = fluxes if fluxes is not None else sphere_fluxes(spec, radii, lmax)
    bom = fx["bom_raw"] / (16.0 * math.pi * E)
    z = fx["z_raw"] / (32.0 * math.pi * E)
    return _center_report(np.asarray(radii, dtype=float), bom, z)


def _center_report(radii, bom, z):
    """CenterReport with sum_values = bom + z and a power-tail fit per column."""
    total = bom + z
    return CenterReport(
        radii=radii,
        bom_values=bom,
        z_values=z,
        sum_values=total,
        bom_fits=[fit_power_tail(radii, bom[:, i]) for i in range(3)],
        z_fits=[fit_power_tail(radii, z[:, i]) for i in range(3)],
        sum_fits=[fit_power_tail(radii, total[:, i]) for i in range(3)],
    )


def stcmc_center_foliation(foliation):
    """Extrapolated limit of the leaf centers of a foliation."""
    leaves = list(foliation)
    if len(leaves) < 3:
        raise InsufficientLeaves("need at least three leaves to extrapolate the center")
    sigmas = np.array([leaf.sigma for leaf in leaves])
    centers = np.stack([leaf.center for leaf in leaves])
    fits = [fit_power_tail(sigmas, centers[:, i]) for i in range(3)]
    limit = np.array([f.c0 for f in fits])
    residual = float(max(f.residual for f in fits))
    converged = not any(f.divergent for f in fits)
    return limit, residual, converged, fits


def velocity_integral(spec, radii, E, lmax=24, fluxes=None):
    if abs(E) <= 1e-12:
        raise ZeroEnergy("velocity integral undefined at E = 0")
    fx = fluxes if fluxes is not None else sphere_fluxes(spec, radii, lmax)
    radii = np.asarray(radii, dtype=float)
    v = fx["velocity_raw"] / (8.0 * math.pi * E)
    vfits = [fit_power_tail(radii, v[:, i]) for i in range(3)]
    vlim = np.array([f.c0 for f in vfits])
    rep = adm_energy(spec, radii, lmax, fluxes=fx)
    poe = rep.momentum / E
    return EvolutionReport(
        radii=radii,
        velocity_values=v,
        velocity=vlim,
        momentum_over_energy=poe,
        discrepancy=float(np.linalg.norm(vlim - poe)),
    )


def matter_moment_shells(spec, radii, lmax=24):
    """Shell integrals int |mu x^i| dmu_delta over centered spheres (diagnostic, no threshold)."""
    prov = as_provider(spec)
    grid = get_grid(lmax)
    om = grid.unit_vectors()["o"]
    out = []
    for s in np.asarray(radii, dtype=float):
        x = s * om
        mu, _ = constraint_densities(prov, x)
        out.append((np.abs(mu[:, None] * x) * (grid.w * s**2)[:, None]).sum(axis=0))
    return np.asarray(out)


def euclidean_motion_transform(reports, O, T):
    """Transform charge/center reports under y = O x + T.

    Energy is invariant, momenta rotate, centers rotate and translate.
    """
    O = np.asarray(O, dtype=float).reshape(3, 3)
    T = np.asarray(T, dtype=float).reshape(3)
    if np.max(np.abs(O.T @ O - np.eye(3))) > 1e-12:
        raise NotOrthogonal("rotation matrix is not orthogonal to 1e-12")
    out = []
    for rep in reports if isinstance(reports, (list, tuple)) else [reports]:
        if isinstance(rep, ChargeReport):
            out.append(
                ChargeReport(
                    radii=rep.radii,
                    energy_values=rep.energy_values.copy(),
                    momentum_values=rep.momentum_values @ O.T,
                    energy=rep.energy,
                    momentum=O @ rep.momentum,
                    mass=rep.mass,
                    energy_fit=rep.energy_fit,
                    momentum_fits=rep.momentum_fits,
                )
            )
        elif isinstance(rep, CenterReport):
            out.append(_center_report(rep.radii, rep.bom_values @ O.T + T, rep.z_values @ O.T))
        else:
            raise ConfigError(f"cannot transform report of type {type(rep).__name__}")
    return out if isinstance(reports, (list, tuple)) else out[0]


def charges_to_csv(path, spec, radii, E=None, lmax=24):
    """Write the per-radius flux table; returns the underlying reports."""
    fx = sphere_fluxes(spec, radii, lmax)
    charge = adm_energy(spec, radii, lmax, fluxes=fx)
    E_used = E if E is not None else charge.energy
    center = stcmc_center_coordinate(spec, radii, E_used, lmax, fluxes=fx)
    evo = velocity_integral(spec, radii, E_used, lmax, fluxes=fx)
    header = (
        ["radius", "E", "P1", "P2", "P3", "CBOM1", "CBOM2", "CBOM3",
         "Z1", "Z2", "Z3", "CSTCMC1", "CSTCMC2", "CSTCMC3", "V1", "V2", "V3"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, s in enumerate(np.asarray(radii, dtype=float)):
            row = (
                [s, charge.energy_values[i]]
                + list(charge.momentum_values[i])
                + list(center.bom_values[i])
                + list(center.z_values[i])
                + list(center.sum_values[i])
                + list(evo.velocity_values[i])
            )
            writer.writerow([f"{v:.17g}" for v in row])
    return charge, center, evo
