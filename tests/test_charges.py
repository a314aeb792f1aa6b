import filecmp
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc import charges
from stcmc.chart import (
    PerturbationProvider,
    RotatedProvider,
    TranslatedProvider,
    _finite_array,
    conjugate_momentum,
    orthogonal_matrix,
)
from stcmc.charges import (
    CenterReport,
    ChargeReport,
    _center_report,
    adm_energy,
    adm_mass,
    fit_power_tail,
    sphere_fluxes,
    stcmc_center_coordinate,
    velocity_integral,
)
from stcmc.cli import main
from stcmc.errors import (
    ConfigError,
    NotOrthogonal,
    ShapeMismatch,
    SpacelikeEnergyMomentum,
    ZeroEnergy,
)
from stcmc.spectral import get_grid

RADII = [50.0, 100.0, 200.0, 400.0]
ROT = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


@pytest.fixture(scope="module")
def canonical_report(schw):
    return adm_energy(schw, RADII)


@pytest.fixture(scope="module")
def s9_fluxes(graphical):
    sgrid = np.exp(np.linspace(np.log(100.0), np.log(10000.0), 16))
    return sgrid, sphere_fluxes(graphical, sgrid)


# -- energy and momentum ---------------------------------------------------------

def test_canonical_energy_closed_form(schw, canonical_report):
    # flux integral on the areal-coordinate slice evaluates to m s / (s - 2m)
    for s, val in zip(RADII, canonical_report.energy_values):
        assert abs(val - s / (s - 2.0)) < 1e-12


def test_canonical_energy_extrapolates_to_mass(canonical_report):
    assert abs(canonical_report.energy - 1.0) <= 1e-3
    assert abs(canonical_report.mass - canonical_report.energy) < 1e-12


def test_graphical_energy(graphical):
    rep = adm_energy(graphical, RADII)
    assert abs(rep.energy - 1.0) <= 1e-2
    # bounded time function means no boost: momentum decays to zero
    mags = np.linalg.norm(rep.momentum_values, axis=1)
    assert np.all(np.diff(mags) < 0)
    assert np.linalg.norm(rep.momentum) < 1e-3


def test_euclidean_energy_zero(euclid):
    rep = adm_energy(euclid, [10.0, 20.0, 40.0])
    assert abs(rep.energy) < 1e-13
    assert np.max(np.abs(rep.momentum_values)) == 0.0


@pytest.mark.parametrize("lmax", [8, 24])
def test_perturbation_energy_closed_form(lmax):
    """g_22 = 1 + c/r: on every sphere the flux (d_i h_ij - d_j h_ii) nu^j is c (1 - nu_z^2) / s^2, so E = c/6.

    A g_01 term proportional to x z is odd under y -> -y in every flux integrand, so it changes nothing.
    """
    c = 0.4
    tail = {"i": 2, "j": 2, "coeff": c, "decay": 1.0}
    odd = {"i": 0, "j": 1, "coeff": 0.3, "decay": 1.0, "angular": [1, 0, 1]}
    for terms in ([tail], [tail, odd]):
        rep = adm_energy(PerturbationProvider(terms), RADII, lmax)
        assert np.max(np.abs(rep.energy_values - c / 6.0)) < 1e-13
        assert abs(rep.energy - c / 6.0) < 1e-13


def test_momentum_zero_for_time_symmetric(schw, canonical_report):
    assert np.max(np.abs(canonical_report.momentum_values)) < 1e-15


def test_momentum_rotates(graphical):
    fx = sphere_fluxes(graphical, [100.0])
    fxr = sphere_fluxes(RotatedProvider(graphical, ROT), [100.0])
    assert np.max(np.abs(fxr["P"] - fx["P"] @ ROT.T)) < 1e-12


def _einsum_fluxes(prov, radii, lmax, center):
    """Reference of the sweep: its integrands as per-radius einsums, with the metric center formed
    from g; bom_scale is, per radius, sum_n w_n s^2 of the absolute terms that the g-based
    metric-center sum cancels."""
    grid = get_grid(lmax)
    uv = grid.unit_vectors
    om = uv["o"]
    st = np.sin(grid.mesh[0])
    out = {k: [] for k in ("E", "P", "bom_raw", "bom_scale", "z_raw", "velocity_raw")}
    for s in radii:
        x = center + s * om
        mj = prov.metric_jet(x)
        g, dg = mj.g, mj.dg
        pi = conjugate_momentum(mj, prov.extrinsic_jet(x).K)
        wq = grid.w * s**2
        lhs = np.einsum("niji->nj", dg) - np.einsum("niij->nj", dg)
        e_int = np.einsum("nj,nj->n", lhs, om)
        out["E"].append((e_int * wq).sum() / (16.0 * math.pi))
        out["P"].append((np.einsum("nij,ni->nj", pi, om) * wq[:, None]).sum(axis=0) / (8.0 * math.pi))
        terms = (e_int[:, None] * x, np.einsum("nil,ni->nl", g, om), np.einsum("nii->n", g)[:, None] * om)
        out["bom_raw"].append(((terms[0] - (terms[1] - terms[2])) * wq[:, None]).sum(axis=0))
        out["bom_scale"].append(wq @ sum(np.abs(t) for t in terms))
        pixx = np.einsum("nkl,nk,nl->n", pi, x, x)
        out["z_raw"].append((x * (pixx**2)[:, None] / s**3 * wq[:, None]).sum(axis=0))
        tang = np.stack([s * uv["ot"], s * uv["op"]], axis=1)
        g2 = tang @ g @ tang.transpose(0, 2, 1)
        dmu_g = np.sqrt(g2[:, 0, 0] * g2[:, 1, 1] - g2[:, 0, 1] ** 2) / st
        out["velocity_raw"].append((np.einsum("nij,nj->ni", pi, om) * (grid.w * dmu_g)[:, None]).sum(axis=0))
    return {k: np.asarray(v) for k, v in out.items()}


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (3.0, -2.0, 1.0)])
def test_sphere_fluxes_match_per_radius_einsum_integrands(graphical, center):
    radii = [100.0, 1000.0, 10000.0]
    fx = sphere_fluxes(graphical, radii, center=center)
    ref = _einsum_fluxes(graphical, radii, 24, np.asarray(center))
    for key in ("E", "P", "z_raw", "velocity_raw"):
        assert np.max(np.abs(fx[key] - ref[key])) <= 1e-13 * np.max(np.abs(ref[key])), key
    # g.omega - (tr g) omega holds terms of size s^2 whose flat part -2 omega integrates to
    # zero; the sweep forms the metric center from h = g - delta without that part, so the two
    # differ by the rounding of an n-term sum of the cancelled terms, which grows like sqrt(n):
    # within sqrt(n) eps of their absolute sum
    bound = math.sqrt(get_grid(24).w.size) * np.finfo(float).eps * ref["bom_scale"]
    assert np.all(np.abs(fx["bom_raw"] - ref["bom_raw"]) <= bound)


def test_adm_mass_values():
    assert adm_mass(1.0, [0, 0, 0]) == 1.0
    assert adm_mass(0.0, [0, 0, 0]) == 0.0
    assert abs(adm_mass(1.0, [0.6, 0, 0]) - 0.8) < 1e-15
    with pytest.raises(SpacelikeEnergyMomentum):
        adm_mass(0.5, [1.0, 0, 0])


# -- centers -----------------------------------------------------------------------

def test_bom_center_symmetric_slice(schw, canonical_report):
    rep = stcmc_center_coordinate(schw, RADII, canonical_report.energy)
    # zero up to quadrature roundoff accumulated over ~s^3-scaled integrands
    assert np.max(np.abs(rep.bom_values)) < 1e-11


def test_bom_center_translated(schw):
    c = np.array([0.7, -0.3, 0.2])
    prov = TranslatedProvider(schw, c)
    rep = stcmc_center_coordinate(prov, RADII, 1.0)
    assert np.max(np.abs([f.c0 for f in rep.bom_fits] - c)) < 1e-3
    assert not rep.bom_divergent


def test_bom_center_log_periodic_amplitude(graphical):
    s = float(np.exp(2 * np.pi))
    rep = stcmc_center_coordinate(graphical, [s / 1.3, s, s * 1.3], 1.0)
    # cos(ln s) = 1 at s = e^{2 pi}: first component is 1/(3m) + O(1/s)
    assert abs(rep.bom_values[1, 0] - 1.0 / 3.0) < 0.02
    assert abs(rep.z_values[1, 0] + 1.0 / 3.0) < 0.02


def test_correction_zero_without_extrinsic(schw, canonical_report):
    rep = stcmc_center_coordinate(schw, RADII, canonical_report.energy)
    assert np.max(np.abs(rep.z_values)) < 1e-15


def test_sum_identity_exact(graphical, s9_fluxes):
    sgrid, fx = s9_fluxes
    rep = stcmc_center_coordinate(graphical, sgrid, 1.0, fluxes=fx)
    assert np.array_equal(rep.sum_values, rep.bom_values + rep.z_values)


def test_divergence_verdicts(graphical, s9_fluxes):
    sgrid, fx = s9_fluxes
    rep = stcmc_center_coordinate(graphical, sgrid, 1.0, fluxes=fx)
    assert rep.bom_divergent
    assert any(f.divergent for f in rep.z_fits)
    assert not rep.sum_divergent
    assert np.linalg.norm(rep.sum_limit) < 1e-2


def test_sum_decays(graphical, s9_fluxes):
    sgrid, fx = s9_fluxes
    rep = stcmc_center_coordinate(graphical, sgrid, 1.0, fluxes=fx)
    mags = np.linalg.norm(rep.sum_values, axis=1)
    slope = np.polyfit(np.log(sgrid), np.log(mags), 1)[0]
    assert slope <= -0.8


def test_translated_graphical_center_recovers_shift(graphical):
    c = np.array([0.6, -0.4, 0.2])
    prov = TranslatedProvider(graphical, c)
    sgrid = np.exp(np.linspace(np.log(100.0), np.log(10000.0), 16))
    rep = adm_energy(prov, sgrid)
    cen = stcmc_center_coordinate(prov, sgrid, rep.energy)
    assert cen.bom_divergent
    assert not cen.sum_divergent
    assert np.linalg.norm(cen.sum_limit - c) < 5e-3


def test_zero_energy_raises(euclid):
    with pytest.raises(ZeroEnergy):
        stcmc_center_coordinate(euclid, RADII, 0.0)
    with pytest.raises(ZeroEnergy):
        velocity_integral(euclid, RADII, 0.0)


# -- foliation center ----------------------------------------------------------------

def stcmc_center_foliation(foliation):
    """Extrapolated limit of the leaf centers of a foliation (fit_power_tail needs three leaves)."""
    leaves = list(foliation)
    sigmas = np.array([leaf.sigma for leaf in leaves])
    centers = np.stack([leaf.center for leaf in leaves])
    fits = charges.fit_power_tail(sigmas, centers)  # through the module, so that a patched fit counts it
    limit = np.array([f.c0 for f in fits])
    residual = float(max(f.residual for f in fits))
    converged = not any(f.divergent for f in fits)
    return limit, residual, converged, fits


def test_foliation_center_flat(euclid):
    from stcmc.solver import SolveConfig, foliate

    fol = foliate(euclid, [6.0, 9.0, 13.0], SolveConfig(lmax=8, tol=1e-12), spectra=False)
    limit, resid, converged, _ = stcmc_center_foliation(fol)
    assert np.linalg.norm(limit) < 1e-9
    assert converged


def test_foliation_center_schwarzschild(schw):
    from stcmc.solver import SolveConfig, foliate

    fol = foliate(schw, [20.0, 40.0, 80.0], SolveConfig(lmax=8, tol=1e-11), spectra=False)
    limit, resid, converged, _ = stcmc_center_foliation(fol)
    assert np.linalg.norm(limit) < 1e-6
    assert converged


def test_foliation_center_graphical_consistent_with_flux_route(graphical):
    from stcmc.solver import SolveConfig, foliate

    fol = foliate(graphical, [60.0, 120.0, 240.0], SolveConfig(lmax=10, tol=1e-10), spectra=False)
    centers = np.stack([leaf.center for leaf in fol])
    assert np.max(np.abs(centers)) < 1.0  # bounded, no drift
    limit, _, _, _ = stcmc_center_foliation(fol)
    rep = stcmc_center_coordinate(graphical, [60.0, 120.0, 240.0, 480.0], 1.0)
    assert np.linalg.norm(limit - rep.sum_limit) < 0.2


# -- velocity -----------------------------------------------------------------------

def test_velocity_zero_when_time_symmetric(schw, canonical_report):
    rep = velocity_integral(schw, RADII, canonical_report.energy)
    assert np.max(np.abs(rep.velocity_values)) < 1e-15
    assert rep.discrepancy < 1e-14


def test_velocity_matches_momentum_over_energy(graphical):
    fx = sphere_fluxes(graphical, RADII)
    charge = adm_energy(graphical, RADII, fluxes=fx)
    rep = velocity_integral(graphical, RADII, charge.energy, fluxes=fx)
    mags = np.linalg.norm(rep.velocity_values, axis=1)
    assert np.all(np.diff(mags) < 0)
    assert rep.discrepancy <= 1e-2


# -- transforms ----------------------------------------------------------------------

def euclidean_motion_transform(rep, O, T):
    """Transform a charge or center report under y = O x + T.

    Energy is invariant, momenta rotate, centers rotate and translate.
    """
    O = orthogonal_matrix(O)
    T = _finite_array(T, (3,), "translation")
    if isinstance(rep, ChargeReport):
        return ChargeReport(
            radii=rep.radii,
            energy_values=rep.energy_values.copy(),
            momentum_values=rep.momentum_values @ O.T,
            energy=rep.energy,
            momentum=O @ rep.momentum,
            mass=rep.mass,
            energy_fit=rep.energy_fit,
            momentum_fits=rep.momentum_fits,
        )
    if isinstance(rep, CenterReport):
        return _center_report(rep.radii, rep.bom_values @ O.T + T, rep.z_values @ O.T)
    raise ConfigError(f"cannot transform report of type {type(rep).__name__}")


def test_motion_transform_identity(graphical, s9_fluxes):
    sgrid, fx = s9_fluxes
    rep = adm_energy(graphical, sgrid, fluxes=fx)
    out = euclidean_motion_transform(rep, np.eye(3), [0.0, 0.0, 0.0])
    assert np.array_equal(out.momentum, rep.momentum)
    assert out.energy == rep.energy


def test_motion_transform_translation(schw, canonical_report, graphical, s9_fluxes):
    cen = stcmc_center_coordinate(schw, RADII, canonical_report.energy)
    out = euclidean_motion_transform(cen, np.eye(3), [1.0, 2.0, 3.0])
    assert np.max(np.abs([f.c0 for f in out.bom_fits] - np.array([1.0, 2.0, 3.0]))) < 1e-10
    assert out.bom_values.shape == cen.bom_values.shape
    # the graphical slice has a nonzero correction Z, so the sum is a real sum
    sgrid, fx = s9_fluxes
    E = adm_energy(graphical, sgrid, fluxes=fx).energy
    moved = euclidean_motion_transform(
        stcmc_center_coordinate(graphical, sgrid, E, fluxes=fx), ROT, [1.0, 2.0, 3.0]
    )
    assert np.array_equal(moved.sum_values, moved.bom_values + moved.z_values)


def test_motion_transform_rotation(graphical):
    fx = sphere_fluxes(graphical, [100.0, 200.0, 400.0])
    rep = adm_energy(graphical, [100.0, 200.0, 400.0], fluxes=fx)
    out = euclidean_motion_transform(rep, ROT, [0.0, 0.0, 0.0])
    assert np.max(np.abs(out.momentum - ROT @ rep.momentum)) < 1e-15
    # matches direct evaluation in rotated data per radius
    fxr = sphere_fluxes(RotatedProvider(graphical, ROT), [100.0, 200.0, 400.0])
    assert np.max(np.abs(out.momentum_values - fxr["P"])) < 1e-10


def test_motion_transform_validation(canonical_report):
    with pytest.raises(NotOrthogonal):
        euclidean_motion_transform(canonical_report, np.eye(3) * 1.1, [0, 0, 0])
    with pytest.raises(ConfigError):
        euclidean_motion_transform("junk", np.eye(3), [0, 0, 0])


# -- hawking mass approaches energy ---------------------------------------------------

def test_hawking_mass_tends_to_energy(graphical):
    from stcmc.solver import SolveConfig, foliate

    fol = foliate(graphical, [60.0, 120.0, 240.0], SolveConfig(lmax=10, tol=1e-10), spectra=False)
    rep = adm_energy(graphical, RADII)
    gaps = [abs(leaf.hawking_mass - rep.energy) for leaf in fol]
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))


# -- extrapolation -----------------------------------------------------------------------

@given(
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(0.6, 2.5),
)
def test_power_fit_recovers_clean_tail(c0, c1, p):
    s = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
    y = c0 + c1 * s**-p
    fit = fit_power_tail(s, y)
    assert abs(fit.c0 - c0) < 1e-6 + 1e-4 * abs(c1)
    assert not fit.divergent


def test_power_fit_flags_log_periodic():
    s = np.exp(np.linspace(np.log(100), np.log(10000), 16))
    y = 0.4 * np.cos(np.log(s)) + 1.5 / s
    fit = fit_power_tail(s, y)
    assert fit.divergent
    assert abs(fit.osc_amplitude - 0.4) < 1e-6


def _solve_for(s, y, p):
    """Residual norm and coefficients of the power-tail fit at one exponent, by one least-squares solve.

    The tail column is (s / s_min)^-p, which spans the same space as s^-p
    without its scale of s_min^-p, so the solve stays well conditioned at large p.
    """
    cols = [np.ones_like(s), (s / s.min()) ** -p]
    if s.size >= 6:
        cols += [np.cos(np.log(s)), np.sin(np.log(s))]
    if s.size >= 8:
        cols += [np.cos(np.log(s)) / s, np.sin(np.log(s)) / s]
    A = np.stack(cols, axis=1)
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = A @ c - y
    return float(np.sqrt(r @ r)), c


def _reference_fit(radii, values, p=None):
    """The power-tail fit by one least-squares solve per trial exponent (157 solves).

    Given p, the search is skipped and the fit is the one solve at that exponent.
    """
    s = np.asarray(radii, dtype=float)
    y = np.asarray(values, dtype=float)
    with_osc = s.size >= 6
    damped_osc = s.size >= 8
    osc = np.stack([np.cos(np.log(s)), np.sin(np.log(s))], axis=1)

    best_p = p
    if best_p is None:
        scan = np.linspace(0.25, 4.0, 76)
        best_p, best_r = scan[0], _solve_for(s, y, scan[0])[0]
        for trial in scan[1:]:
            r = _solve_for(s, y, trial)[0]
            if r < best_r:
                best_p, best_r = trial, r
        lo, hi = max(best_p - 0.25, 0.05), best_p + 0.25
        for _ in range(40):
            m1 = lo + 0.382 * (hi - lo)
            m2 = lo + 0.618 * (hi - lo)
            if _solve_for(s, y, m1)[0] < _solve_for(s, y, m2)[0]:
                hi = m2
            else:
                lo = m1
        best_p = 0.5 * (lo + hi)
    best_r, best_c = _solve_for(s, y, best_p)

    if with_osc:
        osc_amp = float(np.hypot(best_c[2], best_c[3]))
        model = best_c[0] + best_c[1] * (s / s.min()) ** -best_p + osc @ best_c[2:4]
        if damped_osc:
            model = model + (osc / s[:, None]) @ best_c[4:6]
        rest = y - model
    else:
        resid = y - best_c[0] - best_c[1] * (s / s.min()) ** -best_p
        ab, *_ = np.linalg.lstsq(osc, resid, rcond=None)
        osc_amp = float(np.hypot(*ab))
        rest = resid - osc @ ab
    rest_rms = float(np.sqrt(np.mean(rest**2)))
    scale = max(np.max(np.abs(y)), 1e-300)
    divergent = (
        osc_amp > 10.0 * max(rest_rms, 1e-13 * scale)
        and osc_amp > 0.05 * float(np.ptp(y))
        and osc_amp > 1e-7 * max(1.0, scale)
    )
    return best_c[0], best_p, best_r, bool(divergent), osc_amp, rest_rms


def _fit_columns(s9_fluxes):
    """Fixed flat, decaying, log-periodic and damped-oscillation data at 5, 7 and 16 radii, and the s9 flux columns."""
    columns = []
    for s in (
        np.array([50.0, 100.0, 200.0, 400.0, 800.0]),
        np.exp(np.linspace(np.log(20.0), np.log(2000.0), 7)),
        np.exp(np.linspace(np.log(100.0), np.log(10000.0), 16)),
    ):
        ln = np.log(s)
        columns += [
            (s, np.full_like(s, 0.7)),
            (s, 1.0 - 2.0 / s),
            (s, -0.3 + 5.0 * s**-1.37),
            (s, 0.4 * np.cos(ln) + 1.5 / s),
            (s, 0.2 + 0.25 * np.sin(ln + 0.3) - 3.0 * s**-0.8),
            (s, 0.1 + (2.0 * np.cos(ln) - np.sin(ln)) / s + 4.0 * s**-2.0),
        ]
    sgrid, fx = s9_fluxes
    columns.append((sgrid, fx["E"]))
    for key in ("P", "bom_raw", "z_raw", "velocity_raw"):
        columns += [(sgrid, fx[key][:, i]) for i in range(3)]
    return columns


def test_power_fit_matches_one_solve_per_exponent(s9_fluxes):
    for s, y in _fit_columns(s9_fluxes):
        fit = fit_power_tail(s, y)
        c0, p, residual, divergent, *_ = _reference_fit(s, y)
        scale = np.max(np.abs(y))
        assert fit.divergent == divergent
        assert abs(fit.c0 - c0) <= 1e-6 * scale
        assert abs(fit.residual - residual) <= 1e-9 * scale
        # the amplitudes follow p, which a flat landscape leaves loose: compare them at the fit's own p
        *_, osc_amplitude, rest_rms = _reference_fit(s, y, fit.p)
        assert abs(fit.osc_amplitude - osc_amplitude) <= 1e-9 * scale
        assert abs(fit.rest_rms - rest_rms) <= 1e-9 * scale
        # the landscape is sharp where a step of 1e-6 in p moves the residual above its roundoff
        rise = max(abs(_solve_for(s, y, p + h)[0] - residual) for h in (-1e-6, 1e-6))
        if rise > 1e-12 * scale:
            assert abs(fit.p - p) <= 1e-6


def test_power_fit_columns_match_one_call_per_column(s9_fluxes):
    grids = {}
    for s, y in _fit_columns(s9_fluxes):
        grids.setdefault(s.tobytes(), (s, []))[1].append(y)
    for s, ys in grids.values():
        fits = fit_power_tail(s, np.stack(ys, axis=1))
        assert len(fits) == len(ys)
        for y, fit in zip(ys, fits):
            one = fit_power_tail(s, y)
            scale = np.max(np.abs(y))
            assert fit.divergent == one.divergent
            assert abs(fit.c0 - one.c0) <= 1e-6 * scale
            assert abs(fit.residual - one.residual) <= 1e-9 * scale
            residual = _solve_for(s, y, one.p)[0]
            rise = max(abs(_solve_for(s, y, one.p + h)[0] - residual) for h in (-1e-6, 1e-6))
            if rise > 1e-12 * scale:
                assert abs(fit.p - one.p) <= 1e-6
        # a 1-D column is the one-column case of the same search
        assert fit_power_tail(s, ys[0][:, None]) == [fit_power_tail(s, ys[0])]


@pytest.mark.parametrize(("n_radii", "solves"), [(16, 0), (4, 1)])
@pytest.mark.parametrize("n_columns", [1, 9])
def test_power_fit_makes_one_least_squares_solve_below_six_radii(monkeypatch, n_radii, solves, n_columns):
    # the exponent search's projection gives every field; only the log-periodic
    # pair below six radii, where it is not a fixed column, takes one solve for all columns
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(args) or lstsq(*args, **kw))
    s = np.exp(np.linspace(np.log(100.0), np.log(10000.0), n_radii))
    y = np.stack([0.3 * k + np.cos(np.log(s)) / k - 2.0 * s ** -(0.5 + 0.2 * k) for k in range(1, n_columns + 1)], axis=1)
    fits = fit_power_tail(s, y)
    assert len(fits) == n_columns and len(calls) == solves


def test_each_report_makes_one_fit_call(graphical, s9_fluxes, monkeypatch):
    sgrid, fx = s9_fluxes
    shapes = []
    fit = charges.fit_power_tail

    def counted(radii, values):
        shapes.append(np.shape(values))
        return fit(radii, values)

    def no_energy_report(*args, **kwargs):
        raise AssertionError("velocity_integral formed an energy report")

    monkeypatch.setattr(charges, "fit_power_tail", counted)
    energy = adm_energy(graphical, sgrid, fluxes=fx).energy
    monkeypatch.setattr(charges, "adm_energy", no_energy_report)
    stcmc_center_coordinate(graphical, sgrid, energy, fluxes=fx)
    velocity_integral(graphical, sgrid, energy, fluxes=fx)
    assert shapes == [(16, 4), (16, 9), (16, 6)]
    leaves = [SimpleNamespace(sigma=s, center=np.array([1.0, 2.0, 3.0]) + 5.0 / s) for s in (20.0, 40.0, 80.0)]
    stcmc_center_foliation(leaves)
    assert shapes[3:] == [(3, 3)]


def test_power_fit_rejects_non_finite_values():
    with pytest.raises(ConfigError, match="values to extrapolate must be finite"):
        fit_power_tail([10.0, 20.0, 40.0], [1.0, np.nan, 3.0])
    values = np.ones((3, 3))
    values[:, 1] = [1.0, np.nan, 3.0]
    with pytest.raises(ConfigError, match="values to extrapolate must be finite"):
        fit_power_tail([10.0, 20.0, 40.0], values)


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], np.ones((3, 4)), np.ones((4, 2, 2)), 1.0])
def test_power_fit_rejects_values_that_do_not_match_the_radii(values):
    with pytest.raises(ShapeMismatch):
        fit_power_tail([10.0, 20.0, 40.0, 80.0], values)


def test_power_fit_needs_three_radii():
    with pytest.raises(ConfigError):
        fit_power_tail([10.0, 20.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [-20.0, np.inf])
def test_power_fit_rejects_a_radius_that_is_not_finite_and_positive(bad):
    with pytest.raises(ConfigError, match="sphere radii must be finite and positive"):
        fit_power_tail([10.0, bad, 40.0], [1.0, 2.0, 3.0])


def test_power_fit_needs_distinct_radii():
    # three copies of one sphere are one sample, not a tail
    with pytest.raises(ConfigError, match="distinct"):
        fit_power_tail([100.0, 100.0, 100.0], [1.02, 1.02, 1.02])
    with pytest.raises(ConfigError, match="distinct"):
        fit_power_tail([10.0, 20.0, 40.0, 40.0, 80.0, 160.0], np.ones(6))


UNRESOLVED_RADII = {
    "8-in-100..105": np.linspace(100.0, 105.0, 8),
    "16-in-1000..1001": np.linspace(1000.0, 1001.0, 16),
    "e^(2 pi k)": np.exp(2.0 * np.pi * np.arange(6)),
}


@pytest.mark.parametrize("radii", UNRESOLVED_RADII.values(), ids=UNRESOLVED_RADII.keys())
def test_power_fit_rejects_radii_that_do_not_resolve_the_log_periodic_pair(radii):
    # a smooth tail on these radii was fitted to c0 = -3.25, 8.7e5 and -1.4e11
    with pytest.raises(ConfigError, match="radii do not resolve the log-periodic pair"):
        fit_power_tail(radii, 1.0 - 2.0 / radii)


@pytest.mark.parametrize("radii", [np.geomspace(100.0, 200.0, 8), np.arange(100.0, 106.0)], ids=["log:100:200:8", "100..105"])
def test_power_fit_resolves_a_short_sweep(radii):
    fit = fit_power_tail(radii, 1.0 - 2.0 / radii)
    assert abs(fit.c0 - 1.0) < 1e-6 and not fit.divergent


# -- csv -----------------------------------------------------------------------------------

def test_charges_csv_deterministic(tmp_path):
    """The charges CSV, written by the CLI's one CSV writer, reruns byte-identically."""
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        assert main([
            "charges", "--data", "schwarzschild_graphical", "--mass", "1", "--u", "1,0,0",
            "--radii", "100,200,400", "--lmax", "12", "--out", str(p),
        ]) == 0
    assert filecmp.cmp(p1, p2, shallow=False)
    header = p1.read_text().splitlines()[0].split(",")
    assert header[:5] == ["radius", "E", "P1", "P2", "P3"]
    assert header[-1] == "V3"
