"""Acceptance suite: one runner per criterion, shared by pytest and the CLI.

Each check returns its pass flag and the measured numbers; the _criterion
decorator registers it in ALL_CRITERIA and turns it into a runner that times
it and returns a CriterionResult, so failures are diagnosable from the
printed line alone.  Criteria 1 and 4 carry runtime budgets (10 s and 60 s)
that the runner gates on.  Heavy artifacts (foliations, charge sweeps) are
memoized per process.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .chart import (
    GraphicalSchwarzschildProvider,
    RotatedProvider,
    SchwarzschildProvider,
    TranslatedProvider,
    EuclideanProvider,
    constraint_densities,
)
from .charges import (
    adm_energy,
    sphere_fluxes,
    stcmc_center_coordinate,
    velocity_integral,
)
from .solver import (
    SolveConfig,
    curvature_residual,
    foliate,
    graph_jacobian,
    newton_solve,
    uniqueness_cross_check,
)
from .spectral import lm_arrays, n_coeffs
from .surfaces import (
    GraphSurface,
    get_grid,
    nodal_radius,
    rebase,
    solve_graph_residual,
    surface_frames,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        items = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] criterion {self.index}: {self.name} ({self.elapsed:.1f}s) {items}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, np.ndarray):
        return "[" + " ".join(f"{x:.4g}" for x in v) + "]"
    return str(v)


ALL_CRITERIA = []


def _criterion(index, name, budget_s=None):
    """Register a check returning (passed, details) as criterion `index` of ALL_CRITERIA.

    The registered runner times the check and returns its CriterionResult;
    with a runtime budget, a check that takes budget_s or longer fails, and
    its runtime is reported last, as runtime_s.
    """
    def register(check):
        @functools.wraps(check)
        def run():
            t0 = time.time()
            passed, details = check()
            elapsed = time.time() - t0
            if budget_s is not None:
                passed = passed and elapsed < budget_s
                details["runtime_s"] = elapsed
            return CriterionResult(index, name, passed, details, elapsed)

        ALL_CRITERIA.append(run)
        return run

    return register


_RADII = (50.0, 100.0, 200.0, 400.0)  # the charge sweeps of criteria 1, 8 and 9


@functools.cache
def _slice_sweep(graphical):
    """(provider, sphere_fluxes at _RADII) of the graphical or the canonical Schwarzschild slice."""
    prov = GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]) if graphical else SchwarzschildProvider(1.0)
    return prov, sphere_fluxes(prov, _RADII)


@functools.cache
def _canonical_energy():
    prov, fx = _slice_sweep(graphical=False)
    return adm_energy(prov, _RADII, fluxes=fx)


@functools.cache
def _schwarzschild_foliation():
    return foliate(SchwarzschildProvider(1.0), [40.0, 80.0, 160.0], SolveConfig(lmax=12, tol=1e-11))


@_criterion(1, "ADM energy of both slices extrapolates to m", budget_s=10.0)
def criterion_1_adm_energy():
    rep_c = _canonical_energy()
    prov9, fx9 = _slice_sweep(graphical=True)
    rep_g = adm_energy(prov9, _RADII, fluxes=fx9)
    err_c = abs(rep_c.energy - 1.0)
    err_g = abs(rep_g.energy - 1.0)
    return err_c <= 1e-3 and err_g <= 1e-2, {"err_canonical": err_c, "err_graphical": err_g}


@_criterion(2, "graphical slice is vacuum at r = 20")
def criterion_2_vacuum_constraints():
    grid = get_grid(24)
    x = 20.0 * grid.unit_vectors()["o"]
    mu, J = constraint_densities(GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]), x)
    mu_max = float(np.max(np.abs(mu)))
    j_max = float(np.max(np.linalg.norm(J, axis=1)))
    return mu_max <= 1e-8 and j_max <= 1e-8, {"max_mu": mu_max, "max_J": j_max}


@_criterion(3, "sigma=20 leaf matches the cubic-root sphere")
def criterion_3_schwarzschild_solve():
    # independent root oracle for (2/r) sqrt(1 - 2m/r) = 2/sigma at sigma = 20
    roots = np.roots([1.0, 0.0, -400.0, 800.0])
    r_star = float(np.sort(roots[np.abs(roots.imag) < 1e-12].real)[-1])
    res = newton_solve(
        SchwarzschildProvider(1.0),
        20.0,
        GraphSurface.round([0.0, 0.0, 0.0], 20.0, 8),
        SolveConfig(lmax=8, tol=1e-11),
    )
    rho_mean = res.surface.r0 + res.surface.coeffs[0] / np.sqrt(4.0 * np.pi)
    r_err = abs(rho_mean - r_star)
    center_off = float(np.linalg.norm(res.surface.center))
    passed = r_err <= 1e-8 and res.residual_sup <= 1e-10 and res.iterations <= 8
    return passed, {
        "r_star": r_star,
        "radius_err": r_err,
        "residual": res.residual_sup,
        "iterations": res.iterations,
        "center_offset": center_off,
    }


@_criterion(4, "log-periodic center terms cancel", budget_s=60.0)
def criterion_4_cancellation():
    prov = GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0])
    sgrid = np.exp(np.linspace(np.log(100.0), np.log(10000.0), 16))
    cen = stcmc_center_coordinate(prov, sgrid, 1.0)
    basis = np.stack(
        [np.cos(np.log(sgrid)), np.sin(np.log(sgrid)), np.ones_like(sgrid), 1.0 / sgrid],
        axis=1,
    )
    amp_b = float(np.linalg.lstsq(basis, cen.bom_values[:, 0], rcond=None)[0][0])
    amp_z = float(np.linalg.lstsq(basis, cen.z_values[:, 0], rcond=None)[0][0])
    cen200 = stcmc_center_coordinate(prov, [150.0, 200.0, 266.0], 1.0)
    sum200 = float(np.linalg.norm(cen200.sum_values[1]))
    mags = np.linalg.norm(cen.sum_values, axis=1)
    slope = float(np.polyfit(np.log(sgrid), np.log(mags), 1)[0])
    passed = (
        abs(amp_b - 1.0 / 3.0) <= 0.05 / 3.0
        and abs(amp_z + 1.0 / 3.0) <= 0.05 / 3.0
        and sum200 <= 0.05
        and slope <= -0.8
        and cen.bom_divergent
        and not cen.sum_divergent
    )
    return passed, {
        "bom_amplitude": amp_b,
        "z_amplitude": amp_z,
        "sum_at_200": sum200,
        "decay_exponent": slope,
        "bom_divergent": cen.bom_divergent,
        "sum_divergent": cen.sum_divergent,
    }


@_criterion(5, "translational eigenvalue law (mass + curvature term)")
def criterion_5_eigenvalue_law():
    fol = _schwarzschild_foliation()
    rel_errors = []
    literal = []
    lam4_ok = True
    for leaf in fol:
        rep = leaf.spectrum
        ratio = (rep.eigenvalues[1:4] - 2.0 / rep.sigma**2 - rep.ricci_integrals) * rep.sigma**3 / 6.0
        rel_errors.append(float(np.max(np.abs(ratio / rep.hawking_mass - 1.0))))
        literal.append(float(np.mean((rep.eigenvalues[1:4] - 2.0 / rep.sigma**2) * rep.sigma**3 / 6.0)))
        if not rep.eigenvalues[4] > 5.0 / rep.sigma**2:
            lam4_ok = False
    monotone = all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
    return rel_errors[-1] <= 0.10 and monotone and lam4_ok, {
        "rel_errors": np.asarray(rel_errors),
        "lambda4_above_floor": lam4_ok,
        "monotone": monotone,
        "uncorrected_ratio": np.asarray(literal),
    }


@_criterion(6, "linearization matches finite differences (100 directions)")
def criterion_6_linearization_suite():
    rng = np.random.default_rng(20240317)
    cases = [
        (EuclideanProvider(), GraphSurface([0.0, 0.0, 0.0], 10.0, _rand_coeffs(rng, 10, 0.1), 10), 34),
        (SchwarzschildProvider(1.0), GraphSurface([0.2, -0.1, 0.05], 12.0, _rand_coeffs(rng, 10, 0.08), 10), 33),
        (
            GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]),
            GraphSurface([0.0, 0.3, -0.2], 30.0, _rand_coeffs(rng, 10, 0.15), 10),
            33,
        ),
    ]
    worst = 0.0
    h = 1e-5
    for prov, S, ndir in cases:
        sigma = S.r0
        _, _, fr = curvature_residual(prov, S, sigma)
        J = graph_jacobian(fr)
        for _ in range(ndir):
            v = rng.normal(size=n_coeffs(S.lmax))
            v /= np.linalg.norm(v)
            Sp = GraphSurface(S.center, S.r0, S.coeffs + h * v, S.lmax)
            Sm = GraphSurface(S.center, S.r0, S.coeffs - h * v, S.lmax)
            _, pp, _ = curvature_residual(prov, Sp, sigma)
            _, pm, _ = curvature_residual(prov, Sm, sigma)
            fd = (pp - pm) / (2.0 * h)
            err = np.linalg.norm(J @ v - fd) / max(np.linalg.norm(fd), 1e-300)
            worst = max(worst, float(err))
    return worst <= 1e-5, {"max_rel_err": worst}


def _rand_coeffs(rng, lmax, amplitude):
    c = rng.normal(size=n_coeffs(lmax))
    return amplitude * c * np.exp(-0.5 * lm_arrays(lmax)[0])


@_criterion(7, "invertibility floor and mass-energy gap")
def criterion_7_operator_floor():
    fol = _schwarzschild_foliation()
    rep_c = _canonical_energy()
    E = rep_c.energy
    ratios = []
    gaps = []
    for leaf in fol:
        ratios.append(leaf.sigma_min_L / leaf.spectrum.invertibility_bound)
        gaps.append(abs(E - leaf.hawking_mass))
    floor_ok = all(r >= 0.9 for r in ratios)
    decreasing = all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    return floor_ok and decreasing, {"sigma_min_over_bound": np.asarray(ratios), "E_minus_mH": np.asarray(gaps)}


@_criterion(8, "uniqueness across seeds; motion equivariance")
def criterion_8_uniqueness_equivariance():
    # multi-seed convergence
    seeds_e = [GraphSurface.round([0.0, 0.0, 0.0], r0, 8) for r0 in (8.0, 10.0, 12.0)]
    dist_e, _ = uniqueness_cross_check(EuclideanProvider(), 10.0, seeds_e, SolveConfig(lmax=8, tol=1e-12))
    rng = np.random.default_rng(5)
    seeds_s = []
    for _ in range(3):
        c = np.zeros(n_coeffs(8))
        c[1:9] = 0.05 * 20.0 * rng.uniform(-1, 1, 8) / np.sqrt(4 * np.pi)
        seeds_s.append(GraphSurface([0.0, 0.0, 0.0], 20.0, c, 8))
    dist_s, _ = uniqueness_cross_check(SchwarzschildProvider(1.0), 20.0, seeds_s, SolveConfig(lmax=8, tol=1e-12))
    prov9, fx9 = _slice_sweep(graphical=True)
    seeds_9 = [
        GraphSurface.round([0.5, 0.0, 0.0], 60.0, 10),
        GraphSurface.round([-0.5, 0.0, 0.0], 60.0, 10),
    ]
    dist_9, _ = uniqueness_cross_check(prov9, 60.0, seeds_9, SolveConfig(lmax=10, tol=1e-12))

    # rotation equivariance of a leaf
    th = 0.7
    O = np.array(
        [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
    )
    base = newton_solve(prov9, 60.0, GraphSurface.round([0.0, 0.0, 0.0], 60.0, 10), SolveConfig(lmax=10, tol=1e-12))
    rot_prov = RotatedProvider(prov9, O)
    rot = newton_solve(rot_prov, 60.0, GraphSurface.round([0.0, 0.0, 0.0], 60.0, 10), SolveConfig(lmax=10, tol=1e-12))
    # compare the rotated base leaf with the leaf of the rotated data
    grid = get_grid(10)
    om = grid.unit_vectors()["o"]
    om_back = om @ O  # O^T applied to each direction
    thb = np.arccos(np.clip(om_back[:, 2], -1, 1))
    phb = np.mod(np.arctan2(om_back[:, 1], om_back[:, 0]), 2 * np.pi)
    reb = rebase(base.surface, O.T @ rot.surface.center)
    rho_base = reb.radius_at(thb, phb)
    rho_rot = nodal_radius(rot.surface, rot.surface.center)
    leaf_equiv = float(np.max(np.abs(rho_base - rho_rot)))

    # translation covariance of leaves: shifted data yields the shifted leaf
    c_vec = np.array([0.7, -0.3, 0.2])
    prov_t9 = TranslatedProvider(prov9, c_vec)
    tr = newton_solve(
        prov_t9, 60.0, GraphSurface.round(c_vec, 60.0, 10), SolveConfig(lmax=10, tol=1e-12)
    )
    common = base.surface.center + c_vec
    rho_t = nodal_radius(tr.surface, common)
    leaf_translate = float(np.max(np.abs(rho_t - nodal_radius(base.surface.translated(c_vec), common))))

    # rotation equivariance of per-radius charge integrals (center scale)
    fx9r = sphere_fluxes(RotatedProvider(prov9, O), _RADII)
    rot_p = float(np.max(np.abs(fx9r["P"] - fx9["P"] @ O.T)))
    rot_b = float(np.max(np.abs(fx9r["bom_raw"] - fx9["bom_raw"] @ O.T))) / (16.0 * np.pi)
    rot_z = float(np.max(np.abs(fx9r["z_raw"] - fx9["z_raw"] @ O.T))) / (32.0 * np.pi)
    # translation identity: integrals on spheres following the shift pick up
    # exactly c * (energy flux) in the metric-center integrand
    fx_t = sphere_fluxes(prov_t9, _RADII, center=c_vec)
    ident_e = float(np.max(np.abs(fx_t["E"] - fx9["E"])))
    ident_p = float(np.max(np.abs(fx_t["P"] - fx9["P"])))
    shift = 16.0 * np.pi * np.asarray(fx9["E"])[:, None] * c_vec[None, :]
    ident_b = float(np.max(np.abs(fx_t["bom_raw"] - shift - fx9["bom_raw"]))) / (16.0 * np.pi)
    charge_equiv = max(rot_p, rot_b, rot_z, ident_e, ident_p, ident_b)

    passed = (
        max(dist_e, dist_s, dist_9) <= 1e-8
        and max(leaf_equiv, leaf_translate) <= 1e-9
        and charge_equiv <= 1e-9
    )
    return passed, {
        "seed_distance_flat": dist_e,
        "seed_distance_schw": dist_s,
        "seed_distance_graphical": dist_9,
        "leaf_equivariance": max(leaf_equiv, leaf_translate),
        "charge_equivariance": charge_equiv,
    }


@_criterion(9, "velocity integral matches P/E; center sum identity exact")
def criterion_9_evolution_law():
    translated = TranslatedProvider(GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]), [0.4, 0.1, -0.2])
    worst = 0.0
    identity_exact = True
    for prov, fx in (
        _slice_sweep(graphical=False),
        _slice_sweep(graphical=True),
        (translated, sphere_fluxes(translated, _RADII)),
    ):
        rep = adm_energy(prov, _RADII, fluxes=fx)
        evo = velocity_integral(prov, _RADII, rep.energy, fluxes=fx)
        worst = max(worst, evo.discrepancy)
        cen = stcmc_center_coordinate(prov, _RADII, rep.energy, fluxes=fx)
        if not np.array_equal(cen.sum_values, cen.bom_values + cen.z_values):
            identity_exact = False
    return worst <= 1e-2 and identity_exact, {"max_discrepancy": worst, "sum_identity_exact": identity_exact}


@_criterion(10, "graph-equation roots carry constant curvature (dual route)")
def criterion_10_graph_equation_oracle():
    rng = np.random.default_rng(99)
    sigma, lmax = 7.0, 10
    worst = 0.0
    for _ in range(20):
        # band-limited seed (content up to l = 5), root resolved at lmax = 10
        f0 = np.zeros(n_coeffs(lmax))
        f0[: n_coeffs(5)] = _rand_coeffs(rng, 5, 0.12)
        f0[0] = 0.0
        froot = solve_graph_residual(sigma, f0, lmax, tol=1e-13)
        S = GraphSurface(np.zeros(3), sigma, froot, lmax)
        fr = surface_frames(EuclideanProvider(), S)
        worst = max(worst, float(np.max(np.abs(fr.stcmc - 2.0 / sigma))))
    return worst <= 1e-10, {"max_curvature_defect": worst}



def run_all(verbose=True):
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
