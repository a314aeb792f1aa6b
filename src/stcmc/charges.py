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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chart import _EYE, _finite_array, conjugate_momentum
from .errors import (
    ConfigError,
    ShapeMismatch,
    SpacelikeEnergyMomentum,
    ZeroEnergy,
)
from .spectral import get_grid


# -- extrapolation ------------------------------------------------------------

# the fit's fixed columns (1, the log-periodic pair and that pair over s) must
# be independent on the radii: each column's part off the columns before it,
# |R_jj|, relative to its norm.  Sound sweeps read 1.9e-4 (log:100:200:8) to
# 0.26 (log:100:10000:16); eight radii in 100..105 read 5e-9, sixteen in
# 1000..1001 4e-15 and the radii e^(2 pi k), k = 0..5, 2e-16.
MIN_PAIR_RESOLUTION = 1e-6


@dataclass
class PowerFit:
    c0: float
    c1: float
    p: float
    residual: float
    osc_amplitude: float
    rest_rms: float
    divergent: bool


def _positive_radii(radii):
    """radii as a float array; ConfigError unless they are distinct and each is finite and positive."""
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii > 0) & (radii < np.inf)):
        raise ConfigError(f"sphere radii must be finite and positive, got {radii}")
    if np.unique(radii).size < radii.size:
        raise ConfigError(f"sphere radii must be distinct, got {radii.tolist()}")
    return radii


def _fit_columns(radii):
    """(s, osc, Q, R): the radii, the log-periodic pair on them and the QR of the fit's fixed columns.

    The rules of fit_power_tail that read only the radii, so that a sweep to
    be fitted can check its radii before any sphere is evaluated: ConfigError
    unless they are distinct, finite and positive (_positive_radii), at least
    three, and resolve the fixed columns to MIN_PAIR_RESOLUTION.
    """
    s = _positive_radii(radii)
    if s.size < 3:
        raise ConfigError("need at least three radii for extrapolation")
    osc = np.stack([np.cos(np.log(s)), np.sin(np.log(s))], axis=1)
    fixed = [np.ones_like(s)]
    if s.size >= 6:
        fixed += [osc[:, 0], osc[:, 1]]
    if s.size >= 8:
        # a decaying oscillation is not divergence; give it its own columns
        fixed += [osc[:, 0] / s, osc[:, 1] / s]
    A = np.stack(fixed, axis=1)
    Q, R = np.linalg.qr(A)
    resolution = np.min(np.abs(np.diag(R)) / np.linalg.norm(A, axis=0))
    if resolution < MIN_PAIR_RESOLUTION:
        raise ConfigError(
            f"radii do not resolve the log-periodic pair cos(ln s), sin(ln s): the fit's columns are"
            f" independent only to {resolution:.2g} (< {MIN_PAIR_RESOLUTION:g}); spread the radii in ln s"
        )
    return s, osc, Q, R


def fit_power_tail(radii, values):
    """Least-squares fit of c0 + c1 s^-p with p scanned then refined, per column.

    values has shape (n_radii,), giving one PowerFit, or (n_radii, k), giving
    a list of k PowerFits, one per column; a 1-D input is the k = 1 case of
    the same search.  With six or more radii the log-periodic pair
    cos(ln s), sin(ln s) is fitted jointly, so the power tail cannot absorb
    an oscillation; the value is flagged divergent when the oscillatory
    amplitude dominates the remaining (decaying) residual tenfold.  Radii on
    which the columns that do not depend on p are nearly dependent (a short
    range of ln s, or radii e^(2 pi) apart) raise ConfigError rather than
    give an answer (MIN_PAIR_RESOLUTION).

    The fit is one variable projection (Golub and Pereyra 1973): the columns
    that do not depend on p (1, the log-periodic pair and, from eight radii
    on, that pair over s) are factored by one QR, and for any set of
    exponents the residual is that of y and s^-p projected off them,
    r(p) = y' - v'(y'.v')/|v'|^2.  The 76-point scan is one batched call on
    all columns, each of the 40 golden-section steps one call on each
    column's two points (each column's bracket moves on its own), and the
    projection at each column's chosen p gives its fit: c1 = y'.v'/|v'|^2
    (times s_min^p, as the search takes v = (s/s_min)^-p), the fixed columns'
    coefficients from the QR's R, the residual r(p), the verdict and, below
    six radii, the log-periodic pair fitted to r(p) in one least-squares
    solve for all columns.
    """
    s, osc, Q, R = _fit_columns(radii)
    y = np.asarray(values, dtype=float)
    if y.ndim > 2 or y.shape[:1] != s.shape:
        raise ShapeMismatch(f"values of shape {y.shape} do not match {s.size} radii")
    if not np.all(np.isfinite(y)):
        raise ConfigError("values to extrapolate must be finite")
    Y = y.reshape(s.size, -1)
    with_osc = s.size >= 6
    Y_perp = (Y - Q @ (Q.T @ Y))[:, None, :]
    # r(p) ignores the scale of s^-p; equal to 1 at the smallest radius, the column cannot underflow
    s_rel = (s / s.min())[:, None, None]

    def project(p):
        """Column j at exponent p[t, j] (p[t, 0] for all j if p has one column): the coefficient
        a[t, j] of v = s_rel^-p, v, the residual vector r(p) and its norm."""
        v = s_rel ** -p
        v_perp = v - (Q @ (Q.T @ v.reshape(s.size, -1))).reshape(v.shape)
        a = (Y_perp * v_perp).sum(axis=0) / (v_perp * v_perp).sum(axis=0)
        r = Y_perp - v_perp * a
        return a, v, r, np.sqrt((r * r).sum(axis=0))

    scan = np.linspace(0.25, 4.0, 76)  # coarse exponent scan, then golden-section refinement
    best_p = scan[np.argmin(project(scan[:, None])[3], axis=0)]
    lo, hi = np.maximum(best_p - 0.25, 0.05), best_p + 0.25
    golden = np.array([[0.382], [0.618]])
    for _ in range(40):
        m = lo + golden * (hi - lo)
        r = project(m)[3]
        left = r[0] < r[1]
        hi = np.where(left, m[1], hi)
        lo = np.where(left, lo, m[0])
    best_p = 0.5 * (lo + hi)

    a, v, r, residual = (q[..., 0, :] for q in project(best_p[None, :]))
    coef = scipy.linalg.solve_triangular(R, Q.T @ (Y - v * a))
    if with_osc:
        osc_amp = np.hypot(coef[1], coef[2])
        rest = r
    else:
        ab, *_ = np.linalg.lstsq(osc, r, rcond=None)
        osc_amp = np.hypot(ab[0], ab[1])
        rest = r - osc @ ab
    rest_rms = np.sqrt(np.mean(rest**2, axis=0))
    scale = np.maximum(np.max(np.abs(Y), axis=0), 1e-300)
    # divergence requires the non-decaying oscillation to dominate the decaying
    # residual, to account for a nontrivial fraction of the observed swing, and
    # to sit above quadrature-noise level on the unit problem scale
    divergent = (
        (osc_amp > 10.0 * np.maximum(rest_rms, 1e-13 * scale))
        & (osc_amp > 0.05 * np.ptp(Y, axis=0))
        & (osc_amp > 1e-7 * np.maximum(1.0, scale))
    )
    c1 = a * s.min() ** best_p  # the coefficient of s^-p itself
    fits = [
        PowerFit(*map(float, fields), divergent=bool(flag))
        for *fields, flag in zip(coef[0], c1, best_p, residual, osc_amp, rest_rms, divergent)
    ]
    return fits[0] if y.ndim == 1 else fits


# -- raw sphere fluxes ---------------------------------------------------------

def sphere_fluxes(prov, radii, lmax=24, center=(0.0, 0.0, 0.0)):
    """All per-radius flux integrands in one sweep over coordinate spheres.

    Returns dict with per-radius arrays: E, P (n,3), bom_raw (n,3), z_raw
    (n,3) (both centers premultiplied by 16 pi E resp. 32 pi E) and
    velocity_raw (n,3).  Spheres are centered at `center`; the explicit
    position factors in the center integrands stay in global chart
    coordinates.

    Each radius makes one metric and one extrinsic jet call and one pass
    over the nodes.  The tables that do not depend on the radius are built
    once per sweep, with the powers of s taken out: the energy integrand is
    dg against a fixed (27,) coefficient per node, and the induced metric of
    the tangent frame is delta plus h = g - delta against three fixed frame
    products per node.  The metric center is formed from h: the flat part
    delta.omega - (tr delta) omega = -2 omega integrates to zero over the
    sphere, and leaving it out spares the sum a cancellation of terms of
    size s^2.  pi is symmetric, so the momentum and velocity integrands
    share pi.omega.
    """
    radii = _positive_radii(radii)
    center = _finite_array(center, (3,), "center")
    grid = get_grid(lmax)
    uv = grid.unit_vectors
    om, ot, op = uv["o"], uv["ot"], uv["op"]
    n = om.shape[0]
    # sum_ij (d_i g_ij - d_j g_ii) omega^j = dg[i, j, k] (delta_ik omega_j - delta_ij omega_k)
    e_coef = np.zeros((n, 3, 3, 3))
    for a in range(3):
        e_coef[:, a, :, a] += om
        e_coef[:, a, a, :] -= om
    e_coef = e_coef.reshape(n, 27)
    # the frame products t_a (x) t_b, (a, b) = (t, t), (t, p), (p, p): g against each is the induced metric over s^2
    frame = np.empty((n, 3, 3, 3))
    for row, (a, b) in enumerate(((ot, ot), (ot, op), (op, op))):
        frame[:, row] = a[:, :, None] * b[:, None, :]
    frame_flat = np.einsum("naii->na", frame)  # delta against each
    frame = frame.reshape(n, 3, 9)
    w_area = grid.w / np.sin(grid.mesh[0])  # the induced measure over s^2 is w_area sqrt(det)
    out = {
        "E": np.empty(radii.size),
        "P": np.empty((radii.size, 3)),
        "bom_raw": np.empty((radii.size, 3)),
        "z_raw": np.empty((radii.size, 3)),
        "velocity_raw": np.empty((radii.size, 3)),
    }
    for k, s in enumerate(radii):
        x = center + s * om
        mj = prov.metric_jet(x)
        pi = conjugate_momentum(mj, prov.extrinsic_jet(x).K)
        wq = grid.w * s**2  # euclidean measure on the sphere of radius s
        e_int = np.einsum("nk,nk->n", mj.dg.reshape(n, 27), e_coef)
        h = mj.g - _EYE
        pi_om = np.einsum("nij,nj->ni", pi, om)
        # energy: sum_ij (d_i g_ij - d_j g_ii) x^j / s; momentum: P^j = (1/8 pi) int pi_ij x^i / s
        out["E"][k] = wq @ e_int / (16.0 * math.pi)
        out["P"][k] = wq @ pi_om / (8.0 * math.pi)
        # metric-only center integrand (to be divided by 16 pi E)
        h_om = np.einsum("nij,nj->ni", h, om)
        out["bom_raw"][k] = (wq * e_int) @ x - wq @ (h_om - np.einsum("nii->n", h)[:, None] * om)
        # correction: x^i (pi_kl x^k x^l)^2 / s^3
        pixx = np.einsum("ni,ni->n", x, s * pi_om + (pi.reshape(-1, 3) @ center).reshape(n, 3))
        out["z_raw"][k] = (wq * pixx**2 / s**3) @ x
        # velocity integrand over the induced (curved) sphere measure
        g2 = frame_flat + np.einsum("nak,nk->na", frame, h.reshape(n, 9))
        out["velocity_raw"][k] = (s**2 * w_area * np.sqrt(g2[:, 0] * g2[:, 2] - g2[:, 1] ** 2)) @ pi_om
    return out


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
    def sum_limit(self):
        return np.array([f.c0 for f in self.sum_fits])


@dataclass
class EvolutionReport:
    radii: np.ndarray
    velocity_values: np.ndarray
    velocity: np.ndarray
    momentum_over_energy: np.ndarray
    discrepancy: float


def adm_energy(prov, radii, lmax=24, fluxes=None):
    fx = fluxes if fluxes is not None else sphere_fluxes(prov, radii, lmax)
    radii = np.asarray(radii, dtype=float)
    efit, *pfits = fit_power_tail(radii, np.column_stack([fx["E"], fx["P"]]))
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
    P = _finite_array(P, (3,), "momentum")
    m2 = float(E) ** 2 - float(P @ P)
    if m2 < 0:
        raise SpacelikeEnergyMomentum(f"E^2 - |P|^2 = {m2:.3e} < 0")
    return math.sqrt(m2)


def _check_energy(E, integrals):
    """Raise ZeroEnergy where |E| <= 1e-12: the center and velocity integrals divide by E."""
    if abs(E) <= 1e-12:
        raise ZeroEnergy(f"{integrals} undefined at E = 0")


def stcmc_center_coordinate(prov, radii, E, lmax=24, fluxes=None):
    """Center report: the metric (Beig-O Murchadha) center, the correction Z and their sum.

    sum_values is exactly bom_values + z_values per sampled radius; its limit
    is the coordinate center of the foliation by surfaces of constant
    spacetime mean curvature.  Each column carries its own power-tail fit.
    """
    _check_energy(E, "center integrals")
    fx = fluxes if fluxes is not None else sphere_fluxes(prov, radii, lmax)
    bom = fx["bom_raw"] / (16.0 * math.pi * E)
    z = fx["z_raw"] / (32.0 * math.pi * E)
    return _center_report(np.asarray(radii, dtype=float), bom, z)


def _center_report(radii, bom, z):
    """CenterReport with sum_values = bom + z and a power-tail fit per column, all nine in one call."""
    total = bom + z
    fits = fit_power_tail(radii, np.concatenate([bom, z, total], axis=1))
    return CenterReport(
        radii=radii,
        bom_values=bom,
        z_values=z,
        sum_values=total,
        bom_fits=fits[:3],
        z_fits=fits[3:6],
        sum_fits=fits[6:],
    )


def velocity_integral(prov, radii, E, lmax=24, fluxes=None):
    """Evolution report: the limit of the velocity integral against P/E, both fitted in one call."""
    _check_energy(E, "velocity integral")
    fx = fluxes if fluxes is not None else sphere_fluxes(prov, radii, lmax)
    radii = np.asarray(radii, dtype=float)
    v = fx["velocity_raw"] / (8.0 * math.pi * E)
    fits = fit_power_tail(radii, np.concatenate([v, fx["P"]], axis=1))
    vlim = np.array([f.c0 for f in fits[:3]])
    poe = np.array([f.c0 for f in fits[3:]]) / E
    return EvolutionReport(
        radii=radii,
        velocity_values=v,
        velocity=vlim,
        momentum_over_energy=poe,
        discrepancy=float(np.linalg.norm(vlim - poe)),
    )
