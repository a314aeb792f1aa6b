import csv
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc.chart import (
    EuclideanProvider,
    MetricJet,
    PerturbationProvider,
    RotatedProvider,
    SchwarzschildProvider,
    TranslatedProvider,
)
from stcmc.errors import (
    BandLimitTooSmall,
    ConfigError,
    DegenerateInducedMetric,
    FoliationNotSupported,
    MaxIterations,
    NewtonDiverged,
    ShapeMismatch,
    TrappedRegion,
)
from stcmc.spectral import coeff_index, dealias_lmax, n_coeffs, pad_coeffs, real_sph_basis, truncate_coeffs
from stcmc.solver import _OperatorFields
from stcmc.surfaces import (
    GraphSurface,
    _embedding,
    _euclidean_density,
    _inverse_2x2,
    appendix_graph_residual,
    get_grid,
    nodal_radius,
    rebase,
    solve_graph_residual,
    surface_frames,
    surface_to_csv,
)

from conftest import apriori_class_check, parametrized_area_and_center

ROT = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


def random_surface(rng, lmax=8, r0=10.0, amp=0.1, center=(0.0, 0.0, 0.0)):
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(lmax + 1)])
    coeffs = amp * rng.normal(size=n_coeffs(lmax)) * np.exp(-0.4 * ls)
    return GraphSurface(np.asarray(center, dtype=float), r0, coeffs, lmax)


def _relative_gap(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def _second_fundamental_form(fr):
    """A_ab = -g(nu, D_ab) from the frames' ambient Hessian and normal, and the induced metric g(X_a, X_b)."""
    g = fr.metric_jet.g
    A = -np.einsum("ni,nij,nabj->nab", fr.nu, g, fr.hess)
    return A, np.einsum("nai,nij,nbj->nab", fr.tang, g, fr.tang)


def test_frame_products_match_einsum(graphical):
    S = random_surface(np.random.default_rng(21), lmax=10, r0=25.0, amp=0.3, center=(0.5, -0.3, 0.2))
    fr = surface_frames(graphical, S)
    mj, ej = fr.metric_jet, fr.extrinsic_jet
    _, _, tang, sec = _embedding(S)
    # the multi-operand einsums the batched products replace
    g2 = np.einsum("nai,nij,nbj->nab", tang, mj.g, tang)
    g2inv = np.linalg.inv(g2)
    hess = sec + np.einsum("nkij,nai,nbj->nabk", mj.Gam, tang, tang)
    A = -np.einsum("ni,nij,nabj->nab", fr.nu, mj.g, hess)
    H = np.einsum("nab,nab->n", g2inv, A)
    Aring = A - 0.5 * H[:, None, None] * g2
    A2 = np.einsum("nac,nbd,nab,ncd->n", g2inv, g2inv, Aring, Aring) + 0.5 * H**2
    P = np.einsum("nab,nai,nbj,nij->n", g2inv, tang, tang, ej.K)
    for got, ref in ((fr.g2inv, g2inv), (fr.hess, hess), (fr.H, H), (fr.A2, A2), (fr.P, P)):
        assert _relative_gap(got, ref) <= 1e-14
    assert np.max(np.abs(fr.P)) > 1e-4  # the graphical slice has a nonzero expansion trace
    fields = _OperatorFields(fr)
    kv = np.einsum("nab,nai,nj,nij->nb", fr.g2inv, tang, fr.nu, ej.K)
    Dtr = np.einsum("nab,nabi->ni", fr.g2inv, fr.hess)
    cgam = np.einsum("ngd,ndi,nij,nj->ng", fr.g2inv, tang, mj.g, Dtr)
    for got, ref in ((fields.kv, kv), (fields.cgam, cgam)):
        assert _relative_gap(got, ref) <= 1e-14


@pytest.mark.parametrize("lmax", [-1, 0, 2, 3])
def test_surface_below_the_minimum_band_is_rejected(lmax):
    # rebase and the foliation's lapse annotation need a grid at the surface's own band
    with pytest.raises(BandLimitTooSmall, match=f"^surface band limit {lmax} < 4$"):
        GraphSurface.round([0, 0, 0], 10.0, lmax)


def test_round_sphere_flat(euclid):
    S = GraphSurface.round([0, 0, 0], 5.0, 8)
    fr = surface_frames(euclid, S)
    assert np.max(np.abs(fr.H - 0.4)) < 1e-13
    assert np.max(np.abs(fr.P)) == 0.0
    assert np.max(np.abs(fr.stcmc - 0.4)) < 1e-13
    A, g2 = _second_fundamental_form(fr)
    Aring = A - 0.5 * fr.H[:, None, None] * g2
    assert np.max(np.abs(np.einsum("nac,nbd,nab,ncd->n", fr.g2inv, fr.g2inv, Aring, Aring))) < 1e-26


def test_schwarzschild_sphere_mean_curvature(schw):
    S = GraphSurface.round([0, 0, 0], 10.0, 8)
    fr = surface_frames(schw, S)
    assert np.max(np.abs(fr.H - 0.2 * np.sqrt(0.8))) < 1e-10


def test_graphical_sphere_has_expansion(graphical):
    S = GraphSurface.round([0, 0, 0], 50.0, 8)
    fr = surface_frames(graphical, S)
    assert np.max(np.abs(fr.P)) > 1e-5
    assert np.max(np.abs(fr.P)) < 10.0 / 50.0**2


def test_normal_is_unit(graphical):
    rng = np.random.default_rng(2)
    S = random_surface(rng, r0=30.0, amp=0.3)
    fr = surface_frames(graphical, S)
    norms = np.einsum("ni,nij,nj->n", fr.nu, fr.metric_jet.g, fr.nu)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_curvature_identity(seed):
    rng = np.random.default_rng(seed)
    prov = SchwarzschildProvider(1.0)
    S = random_surface(rng, r0=rng.uniform(8, 20), amp=0.2)
    fr = surface_frames(prov, S)
    assert np.max(np.abs(fr.stcmc**2 + fr.P**2 - fr.H**2)) < 1e-12


def _geroch_mass(fr):
    """sqrt(|S|/16 pi) (1 - int H^2 dmu / 16 pi)."""
    return np.sqrt(fr.area / (16.0 * np.pi)) * (1.0 - fr.integrate(fr.H**2) / (16.0 * np.pi))


def test_surface_scalars_schwarzschild(schw):
    for r0 in (5.0, 10.0, 40.0):
        fr = surface_frames(schw, GraphSurface.round([0, 0, 0], r0, 8))
        assert abs(fr.hawking_mass - 1.0) < 1e-10
        assert abs(_geroch_mass(fr) - 1.0) < 1e-10


def test_surface_scalars_flat(euclid):
    fr = surface_frames(euclid, GraphSurface.round([0, 0, 0], 7.0, 8))
    assert abs(fr.hawking_mass) < 1e-12
    assert abs(_geroch_mass(fr)) < 1e-12
    assert abs(fr.area - 4 * np.pi * 49) < 1e-10
    assert abs(fr.integrate(fr.H**2) - 16.0 * np.pi) < 1e-9


def test_center_shifts_with_translation(schw):
    rng = np.random.default_rng(4)
    S = random_surface(rng, r0=12.0, amp=0.2)
    c = np.array([0.8, -0.5, 0.3])
    fr0 = surface_frames(schw, S)
    fr1 = surface_frames(TranslatedProvider(schw, c), S.translated(c))
    assert np.max(np.abs(fr1.center - fr0.center - c)) < 1e-12
    assert abs(fr1.area - fr0.area) < 1e-10 * fr0.area


def test_masses_ordered(graphical):
    rng = np.random.default_rng(6)
    S = random_surface(rng, r0=40.0, amp=0.4)
    fr = surface_frames(graphical, S)
    assert fr.hawking_mass >= _geroch_mass(fr)
    # equality when K = 0
    fr0 = surface_frames(SchwarzschildProvider(1.0), S)
    assert abs(fr0.hawking_mass - _geroch_mass(fr0)) < 1e-12


def test_spherical_symmetry_constant_H(schw):
    S = GraphSurface.round([0, 0, 0], 25.0, 12)
    fr = surface_frames(schw, S)
    assert fr.H.max() - fr.H.min() < 1e-10


def test_first_variation_of_area(schw):
    rng = np.random.default_rng(8)
    S = random_surface(rng, r0=12.0, amp=0.05)
    fr = surface_frames(schw, S)
    u = fr.grid.synthesize(
        np.concatenate([rng.normal(size=n_coeffs(4)), np.zeros(fr.grid.nbasis - n_coeffs(4))])
    )
    h = 1e-5 * S.r0
    areas = []
    for s in (h, -h):
        X = fr.X + s * u[:, None] * fr.nu
        area, _ = parametrized_area_and_center(fr.grid, X, metric_of=schw)
        areas.append(area)
    fd = (areas[0] - areas[1]) / (2 * h)
    formula = fr.integrate(fr.H * u)
    assert abs(fd - formula) / abs(formula) < 1e-6


def test_apriori_class_check(schw, euclid):
    chk = apriori_class_check(surface_frames(schw, GraphSurface.round([0, 0, 0], 100.0, 8)), 0.0, 10.0, 0.5, 0.5)
    assert chk.center_ok and chk.radius_ok and chk.willmore_ok
    # |z| = 2r fails the centering inequality with a = b = 0
    off = GraphSurface.round([200.0, 0.0, 0.0], 100.0, 8)
    chk2 = apriori_class_check(surface_frames(euclid, off), 0.0, 0.0, 0.5, 0.5)
    assert not chk2.center_ok
    chk3 = apriori_class_check(surface_frames(euclid, GraphSurface.round([0, 0, 0], 10.0, 8)), 0.0, 0.0, 0.5, 0.5)
    assert chk3.willmore_ok  # zero deficit passes for any b >= 0


@pytest.mark.parametrize("lmax", [8, 24])
@pytest.mark.parametrize("r", [1.0, 10.0, 1000.0])
def test_apriori_class_roundoff_allowance(euclid, r, lmax):
    # equality cases: a flat round sphere has zero Willmore deficit and |z| = |c|
    chk = apriori_class_check(surface_frames(euclid, GraphSurface.round([0, 0, 0], r, lmax)), 0.0, 0.0, 0.5, 0.5)
    assert chk.willmore_ok and chk.center_ok
    off_fr = surface_frames(euclid, GraphSurface.round([3.0 * r, 0, 0], r, lmax))
    off = apriori_class_check(off_fr, 3.0, 0.0, 0.5, 0.5)
    assert off.center_ok
    # the allowance never absorbs a real deficit (~2.4e-7 for this l=2 bump)
    coeffs = np.zeros(n_coeffs(lmax))
    coeffs[coeff_index(2, 0)] = 1e-3 * r / 10.0
    bump = apriori_class_check(surface_frames(euclid, GraphSurface(np.zeros(3), r, coeffs, lmax)), 0.0, 0.0, 0.5, 0.5)
    assert 1e-7 < -bump.willmore_slack < 1e-6
    assert not bump.willmore_ok


def euclidean_comparison(prov, surface: GraphSurface):
    """Sup norms of the flat-vs-curved frame differences; reads the surface's parametrization, not only its frames."""
    fr = surface_frames(prov, surface)
    _, _, tang, sec = _embedding(surface)
    ncross = np.cross(tang[:, 0], tang[:, 1])
    nu_delta = ncross / np.linalg.norm(ncross, axis=1)[:, None]
    delta2inv, _ = _inverse_2x2(np.einsum("nai,nbi->nab", tang, tang))
    A_delta = -np.einsum("ni,nabi->nab", nu_delta, sec)
    H_delta = np.einsum("nab,nab->n", delta2inv, A_delta)
    dnu = np.linalg.norm(fr.nu - nu_delta, axis=1).max()
    dA = _second_fundamental_form(fr)[0] - A_delta
    dA_norm = np.sqrt(np.einsum("nac,nbd,nab,ncd->n", delta2inv, delta2inv, dA, dA))
    dH = np.abs(fr.H - H_delta).max()
    rel_dmu = np.abs(fr.dmu / _euclidean_density(fr.grid, tang) - 1.0).max()
    return {
        "nu": float(dnu),
        "A": float(dA_norm.max()),
        "H": float(dH),
        "dmu_rel": float(rel_dmu),
    }


def test_euclidean_comparison_flat(euclid):
    rng = np.random.default_rng(9)
    S = random_surface(rng, r0=9.0, amp=0.2)
    cmp = euclidean_comparison(euclid, S)
    assert max(cmp.values()) < 1e-12


def test_euclidean_comparison_decay(schw):
    vals = []
    radii = [25.0, 50.0, 100.0]
    for r0 in radii:
        vals.append(euclidean_comparison(schw, GraphSurface.round([0, 0, 0], r0, 8))["H"])
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert -2.1 < slope < -0.95


def test_euclidean_comparison_rotation_invariant(graphical):
    rng = np.random.default_rng(10)
    S = random_surface(rng, r0=30.0, amp=0.3)
    # rotate data and surface together: center rotates, heights permute; for a
    # centered surface with rotation-symmetric sampling use a centered one
    S0 = GraphSurface(np.zeros(3), S.r0, S.coeffs, S.lmax)
    cmp1 = euclidean_comparison(RotatedProvider(graphical, ROT), _rotated_surface(S0))
    cmp0 = euclidean_comparison(graphical, S0)
    # sup norms over a rotated sampling agree to grid-sampling accuracy
    for key in cmp0:
        assert abs(cmp0[key] - cmp1[key]) < 5e-2 * max(cmp0[key], 1e-12)


def _rotated_surface(S):
    grid = get_grid(S.lmax)
    th, ph = grid.mesh
    om = grid.unit_vectors["o"]
    om_back = om @ ROT  # ROT^T row-applied
    thb = np.arccos(np.clip(om_back[:, 2], -1, 1))
    phb = np.mod(np.arctan2(om_back[:, 1], om_back[:, 0]), 2 * np.pi)
    rho = S.radius_at(thb, phb)
    return GraphSurface(ROT @ S.center, S.r0, grid.analyze(rho - S.r0), S.lmax)


def test_trapped_region_raises():
    # large K makes H^2 < P^2 on a big sphere in otherwise flat data
    terms = [{"target": "K", "i": i, "j": i, "coeff": 2.0, "decay": 0.5} for i in range(3)]
    prov = PerturbationProvider(terms)
    with pytest.raises(TrappedRegion):
        surface_frames(prov, GraphSurface.round([0, 0, 0], 50.0, 8))


def test_radius_at_matches_dense_basis():
    rng = np.random.default_rng(21)
    S = random_surface(rng, lmax=24, r0=7.0, amp=0.2)
    th = np.arccos(rng.uniform(-1.0, 1.0, 500))
    ph = rng.uniform(0.0, 2 * np.pi, 500)
    Y, _ = real_sph_basis(24, th, ph)
    ref = S.r0 + Y @ S.coeffs
    assert np.max(np.abs(S.radius_at(th, ph) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_radius_at_poles_is_the_zonal_sum():
    rng = np.random.default_rng(22)
    S = random_surface(rng, lmax=10, r0=3.0, amp=0.3)
    l = np.arange(11)
    zonal = S.coeffs[l * l + l] * np.sqrt((2 * l + 1) / (4 * np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = S.radius_at(np.array([0.0, np.pi]), np.array([0.7, 2.0]))
    assert np.allclose(rho, [S.r0 + zonal.sum(), S.r0 + (zonal * (-1.0) ** l).sum()], rtol=0, atol=1e-14)


def test_nodal_radius_matches_radius_at_the_nodes():
    rng = np.random.default_rng(23)
    S = random_surface(rng, lmax=24, r0=7.0, amp=0.2, center=(0.4, -0.3, 0.2))
    th, ph = get_grid(24).mesh
    assert np.max(np.abs(nodal_radius(S, S.center.copy()) - S.radius_at(th, ph))) <= 1e-13 * S.r0
    c = np.array([-0.1, 0.25, 0.3])
    ref = rebase(S, c).radius_at(th, ph)
    assert np.max(np.abs(nodal_radius(S, c) - ref)) <= 1e-13 * S.r0


def test_rebase_preserves_surface(euclid):
    rng = np.random.default_rng(12)
    S = random_surface(rng, lmax=8, r0=6.0, amp=0.05)
    S16 = GraphSurface(S.center, S.r0, pad_coeffs(S.coeffs, S.lmax, 16), 16)
    S2 = rebase(S16, [0.1, -0.05, 0.08])
    grid = get_grid(16)
    th, ph = grid.mesh
    om = grid.unit_vectors["o"]
    pts = S2.center + S2.radius_at(th, ph)[:, None] * om
    # verify the points lie on the original graph: radius from old center
    rel = pts - S.center
    rr = np.linalg.norm(rel, axis=1)
    tho = np.arccos(np.clip(rel[:, 2] / rr, -1, 1))
    pho = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
    assert np.max(np.abs(rr - S.radius_at(tho, pho))) < 1e-6


def test_rebase_near_the_surface_converges():
    # the new center 0.01 inside the unit sphere; the 6e-3 distance left is the
    # lmax-8 truncation of a sphere seen from near its edge, not the iteration
    S2 = rebase(GraphSurface.round([0, 0, 0], 1.0, 8), [0.99, 0.0, 0.0])
    grid = get_grid(8)
    th, ph = grid.mesh
    pts = S2.center + S2.radius_at(th, ph)[:, None] * grid.unit_vectors["o"]
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-2


def test_rebase_outside_the_surface_raises():
    with pytest.raises(MaxIterations, match="1.5"):
        rebase(GraphSurface.round([0, 0, 0], 1.0, 8), [1.5, 0.0, 0.0])


@pytest.mark.parametrize("center", [0.0, [1.0, 2.0], np.zeros((2, 3))])
def test_center_must_be_a_3_vector(center):
    with pytest.raises(ConfigError):
        GraphSurface.round(center, 25.0, 8)
    with pytest.raises(ConfigError):
        rebase(GraphSurface.round([0, 0, 0], 25.0, 8), center)


# -- flat-foliation graph equation ----------------------------------------------

def appendix_graph_coefficients(sigma, f_coeffs, lmax, prov=None):
    """Coefficient fields of the graph equation, stacked from its pointwise part.

    Returns a dict with the dealiased `grid` and the nodal fields `a`
    (..., nnodes, 2, 2), `b` (..., nnodes, 2), `F` and the expansion trace
    `P` (..., nnodes).
    """
    import stcmc.surfaces as surfaces

    grid, jets = surfaces._height_jets(f_coeffs, lmax)
    W, (G00, G01, G11), b, F, P = surfaces._graph_fields(sigma, grid, jets, prov)
    a = np.stack([np.stack([G00, G01], axis=-1), np.stack([G01, G11], axis=-1)], axis=-2) / W[..., None, None]
    return {"grid": grid, "a": a, "b": np.stack(b, axis=-1), "F": F, "P": P}


def test_graph_equation_round_sphere_is_root():
    res = appendix_graph_residual(7.0, np.zeros(n_coeffs(8)), 8)
    assert np.max(np.abs(res)) == 0.0


def test_graph_equation_equals_embedding_defect(euclid):
    rng = np.random.default_rng(14)
    f = 0.3 * rng.normal(size=n_coeffs(8)) * np.exp(-0.4 * np.arange(n_coeffs(8)))
    res = appendix_graph_residual(9.0, f, 8)
    fr = surface_frames(euclid, GraphSurface(np.zeros(3), 9.0, f, 8))
    assert np.max(np.abs(res - (2.0 / 9.0 - fr.H))) < 1e-12


def test_graph_equation_coefficients_at_critical_points():
    # constant height: df = 0 everywhere, so a^{ab} = (g_t)^{ab}
    f = np.zeros(n_coeffs(8))
    f[0] = 0.3
    c = appendix_graph_coefficients(6.0, f, 8)
    grid = c["grid"]
    th, _ = grid.mesh
    rho = 6.0 + 0.3 / np.sqrt(4 * np.pi)
    assert np.max(np.abs(c["a"][:, 0, 0] - 1.0 / rho**2)) < 1e-14
    assert np.max(np.abs(c["a"][:, 1, 1] - 1.0 / (rho * np.sin(th)) ** 2)) < 1e-9
    assert np.max(np.abs(c["a"][:, 0, 1])) < 1e-14


def test_graph_equation_root_matches_embedding(euclid):
    rng = np.random.default_rng(15)
    f0 = np.zeros(n_coeffs(10))
    f0[1 : n_coeffs(4)] = 0.1 * rng.normal(size=n_coeffs(4) - 1)
    froot = solve_graph_residual(7.0, f0, 10)
    fr = surface_frames(euclid, GraphSurface(np.zeros(3), 7.0, froot, 10))
    assert np.max(np.abs(fr.stcmc - 2.0 / 7.0)) < 1e-10


def test_graph_equation_with_extrinsic_data():
    # the foliation-frame expansion trace and residual agree pointwise with
    # the embedding-based frames when the metric is flat and K is nonzero
    terms = [
        {"target": "K", "i": 0, "j": 1, "coeff": 0.05, "decay": 2.0, "angular": [1, 0, 0]},
        {"target": "K", "i": 2, "j": 2, "coeff": 0.03, "decay": 2.0},
    ]
    prov = PerturbationProvider(terms)
    rng = np.random.default_rng(16)
    f0 = np.zeros(n_coeffs(8))
    f0[1:9] = 0.05 * rng.normal(size=8)
    co = appendix_graph_coefficients(7.0, f0, 8, prov)
    fr = surface_frames(prov, GraphSurface(np.zeros(3), 7.0, f0, 8))
    assert np.max(np.abs(co["P"] - fr.P)) < 1e-12
    res = appendix_graph_residual(7.0, f0, 8, prov)
    assert np.max(np.abs(res - (np.sqrt(fr.P**2 + 4.0 / 49.0) - fr.H))) < 1e-12
    assert np.max(np.abs(fr.P)) > 1e-5


def test_graph_equation_rejects_curved_background(schw):
    with pytest.raises(FoliationNotSupported):
        appendix_graph_residual(10.0, np.zeros(n_coeffs(8)), 8, schw)


class _NonFlatMetricProvider(EuclideanProvider):
    """Flat data except g: a broadcast constant g0, or a dense identity with g0 at the last point."""

    def __init__(self, g0, dense):
        self.g0, self.dense = np.asarray(g0, dtype=float), dense

    def metric_jet(self, x):
        n = x.shape[0]
        if self.dense:
            g = np.tile(np.eye(3), (n, 1, 1))
            g[-1] = self.g0
        else:
            g = np.broadcast_to(self.g0, (n, 3, 3))
        return MetricJet(g, np.broadcast_to(0.0, (n, 3, 3, 3)), lambda: np.broadcast_to(0.0, (n, 3, 3, 3, 3)))


@pytest.mark.parametrize("dense", [False, True], ids=["broadcast", "dense"])
def test_graph_equation_rejects_a_metric_off_the_identity(dense):
    g0 = np.eye(3)
    g0[0, 1] = g0[1, 0] = 1e-9
    with pytest.raises(FoliationNotSupported):
        appendix_graph_residual(10.0, np.zeros((2, n_coeffs(8))), 8, _NonFlatMetricProvider(g0, dense))


def test_graph_residual_batch_rows_match_single_calls():
    rng = np.random.default_rng(17)
    lmax = 10
    F = 0.1 * rng.normal(size=(2, 3, n_coeffs(lmax))) * np.exp(-0.4 * np.sqrt(np.arange(n_coeffs(lmax))))
    res = appendix_graph_residual(7.0, F, lmax)
    nnodes = get_grid(dealias_lmax(lmax)).nnodes
    assert res.shape == (2, 3, nnodes)
    rows = appendix_graph_residual(7.0, F.reshape(6, -1), lmax)
    assert rows.shape == (6, nnodes)
    for f, r in zip(F.reshape(6, -1), rows):
        assert np.max(np.abs(r - appendix_graph_residual(7.0, f, lmax))) <= 1e-14


def test_graph_residual_batch_rejects_curved_background(schw):
    with pytest.raises(FoliationNotSupported):
        appendix_graph_residual(10.0, np.zeros((3, n_coeffs(8))), 8, schw)


def test_graph_residual_batch_row_reaching_origin_raises():
    F = np.zeros((3, n_coeffs(8)))
    F[1, 0] = -1.1 * 7.0 * np.sqrt(4.0 * np.pi)  # constant height -1.1 sigma
    with pytest.raises(DegenerateInducedMetric):
        appendix_graph_residual(7.0, F, 8)


def _stacked_graph_reference(sigma, f_coeffs, lmax, prov):
    """The graph-equation fields in stacked 2x2 tensors, with P from the
    orthonormal-direction frame: the formulas the component code replaced."""
    grid = get_grid(dealias_lmax(lmax))
    th, _ = grid.mesh
    st, ct = np.sin(th), np.cos(th)
    jets = grid.synth_jet(pad_coeffs(f_coeffs, lmax, grid.lmax))
    uv = grid.unit_vectors
    rho = sigma + jets["f"]
    X = rho[..., None] * uv["o"]
    ghat_inv = np.zeros((grid.nnodes, 2, 2))
    ghat_inv[:, 0, 0] = 1.0
    ghat_inv[:, 1, 1] = 1.0 / st**2
    gt_inv = ghat_inv / rho[..., None, None] ** 2
    df = np.stack([jets["ft"], jets["fp"]], axis=-1)
    df_up = np.einsum("...ab,...b->...a", gt_inv, df)
    W2 = 1.0 + np.einsum("...a,...a->...", df, df_up)
    W = np.sqrt(W2)
    G = gt_inv - df_up[..., :, None] * df_up[..., None, :] / W2[..., None, None]
    a = G / W[..., None, None]
    b = np.stack([-G[..., 1, 1] * (-st * ct) / W, -2.0 * G[..., 0, 1] * (ct / st) / W], axis=-1)
    At = rho[..., None, None] * np.stack(
        [np.stack([np.ones_like(st), np.zeros_like(st)], axis=1),
         np.stack([np.zeros_like(st), st**2], axis=1)], axis=1)
    quad = 2.0 * df[..., :, None] * df[..., None, :] / rho[..., None, None]
    curv = np.einsum("...ab,...ab->...", G, At + quad) / W
    K = prov.extrinsic_jet(X.reshape(-1, 3)).K.reshape(X.shape + (3,))
    frame = np.stack([rho[..., None] * uv["ot"], rho[..., None] * uv["op"]], axis=-2)
    K_ab = np.einsum("...ai,...ij,...bj->...ab", frame, K, frame)
    K_ta = np.einsum("...i,...ij,...aj->...a", uv["o"], K, frame)
    K_tt = np.einsum("...i,...ij,...j->...", uv["o"], K, uv["o"])
    P = np.einsum(
        "...ab,...ab->...",
        G,
        K_ab + 2.0 * df[..., :, None] * K_ta[..., None, :] + df[..., :, None] * df[..., None, :] * K_tt[..., None, None],
    )
    F = curv - np.sqrt(P**2 + 4.0 / sigma**2)
    hess = np.stack(
        [np.stack([jets["ftt"], jets["ftp"]], axis=-1), np.stack([jets["ftp"], jets["fpp"]], axis=-1)], axis=-2)
    res = np.einsum("...ab,...ab->...", a, hess) + np.einsum("...a,...a->...", b, df) - F
    return {"a": a, "b": b, "F": F, "P": P, "res": res}


K_TERMS = [
    {"target": "K", "i": 0, "j": 2, "coeff": 0.04, "decay": 2.0, "angular": [0, 1, 0]},
    {"target": "K", "i": 1, "j": 1, "coeff": 0.02, "decay": 2.0},
]


@pytest.mark.parametrize("lmax", [8, 10])
@pytest.mark.parametrize("data", ["flat", "extrinsic"])
@pytest.mark.parametrize("batch", [(), (2, 3)])
def test_graph_equation_components_match_stacked_reference(lmax, data, batch):
    prov = EuclideanProvider() if data == "flat" else PerturbationProvider(K_TERMS)
    rng = np.random.default_rng(18)
    F = 0.1 * rng.normal(size=batch + (n_coeffs(lmax),)) * np.exp(-0.4 * np.sqrt(np.arange(n_coeffs(lmax))))
    ref = _stacked_graph_reference(7.0, F, lmax, prov)
    c = appendix_graph_coefficients(7.0, F, lmax, prov)
    res = appendix_graph_residual(7.0, F, lmax, prov)
    assert c["a"].shape == ref["a"].shape and c["b"].shape == ref["b"].shape
    for key in ("a", "b", "F", "P"):
        assert np.max(np.abs(c[key] - ref[key])) <= 1e-14, key
    assert np.max(np.abs(res - ref["res"])) <= 1e-14
    if data == "extrinsic":
        assert np.max(np.abs(ref["P"])) > 1e-5


def _criterion_10_like_seed(lmax=10):
    rng = np.random.default_rng(99)
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(6)])
    f0 = np.zeros(n_coeffs(lmax))
    f0[: n_coeffs(5)] = 0.12 * rng.normal(size=n_coeffs(5)) * np.exp(-0.5 * ls)
    f0[0] = 0.0
    return f0


def test_graph_newton_iteration_limit_raises_max_iterations(monkeypatch):
    import stcmc.surfaces as surfaces

    monkeypatch.setattr(surfaces, "GRAPH_MAX_ITER", 1)
    with pytest.raises(MaxIterations, match="sigma 7, iteration 1"):
        solve_graph_residual(7.0, _criterion_10_like_seed(), 10, tol=1e-13)


def test_graph_newton_stall_raises_newton_diverged(monkeypatch):
    import stcmc.surfaces as surfaces

    calls = []
    true_residual = surfaces.appendix_graph_residual

    def never_decreasing(sigma, f_coeffs, lmax, prov=None):
        # the first call (the initial residual) is exact; every trial step
        # returns a larger residual
        r = true_residual(sigma, f_coeffs, lmax, prov)
        calls.append(np.ndim(f_coeffs))
        return r if len(calls) == 1 else 10.0 * r + 1.0

    monkeypatch.setattr(surfaces, "appendix_graph_residual", never_decreasing)
    with pytest.raises(NewtonDiverged, match="sigma 7"):
        solve_graph_residual(7.0, _criterion_10_like_seed(8), 8)


def test_graph_newton_failures_carry_their_context(monkeypatch):
    import stcmc.surfaces as surfaces

    monkeypatch.setattr(surfaces, "GRAPH_MAX_ITER", 1)
    with pytest.raises(MaxIterations) as stopped:
        solve_graph_residual(7.0, _criterion_10_like_seed(), 10, tol=1e-13)
    err = stopped.value
    assert (err.sigma, err.iteration) == (7.0, 1) and err.residual_sup > 1e-13
    assert f"residual sup {err.residual_sup:.3e}" in str(err)
    monkeypatch.setattr(surfaces, "GRAPH_MAX_ITER", 40)
    true_residual = surfaces.appendix_graph_residual
    # the initial residual is exact; every trial step is worse
    trials = []

    def never_decreasing(sigma, f_coeffs, lmax, prov=None):
        r = true_residual(sigma, f_coeffs, lmax, prov)
        trials.append(np.ndim(f_coeffs))
        return 10.0 * r + 1.0 if len(trials) > 1 else r

    monkeypatch.setattr(surfaces, "appendix_graph_residual", never_decreasing)
    with pytest.raises(NewtonDiverged) as diverged:
        solve_graph_residual(7.0, _criterion_10_like_seed(8), 8)
    err = diverged.value
    assert (err.sigma, err.iteration) == (7.0, 0) and err.residual_sup > 0
    assert f"graph-equation residual sup {err.residual_sup:.3e} not lowered" in str(err)


def test_rebase_failure_has_no_leaf_context():
    with pytest.raises(MaxIterations) as stopped:
        rebase(GraphSurface.round([0, 0, 0], 1.0, 8), [1.5, 0.0, 0.0])
    assert (stopped.value.sigma, stopped.value.iteration, stopped.value.residual_sup) == (None, None, None)


def test_graph_newton_steps_reaching_origin_raise_degenerate(monkeypatch):
    import stcmc.surfaces as surfaces

    true_residual = surfaces.appendix_graph_residual
    calls = []

    def trial_steps_degenerate(sigma, f_coeffs, lmax, prov=None):
        calls.append(np.ndim(f_coeffs))
        if len(calls) > 1:
            raise DegenerateInducedMetric("graph reaches the origin")
        return true_residual(sigma, f_coeffs, lmax, prov)

    monkeypatch.setattr(surfaces, "appendix_graph_residual", trial_steps_degenerate)
    with pytest.raises(DegenerateInducedMetric, match="sigma 7"):
        solve_graph_residual(7.0, _criterion_10_like_seed(8), 8)


def _graph_newton_calls(monkeypatch, sabotage=None):
    """Record each residual evaluation ("R") and Jacobian build ("J") of the graph Newton with a copy of its height.

    sabotage(k, r) may replace the nodal residual r of the k-th residual evaluation (k from 1).
    """
    import stcmc.surfaces as surfaces

    calls = []
    true_residual, true_jacobian = surfaces.appendix_graph_residual, surfaces._graph_jacobian

    def residual(sigma, f_coeffs, lmax, prov=None):
        r = true_residual(sigma, f_coeffs, lmax, prov)
        calls.append(("R", np.array(f_coeffs)))
        if sabotage is not None:
            r = sabotage(sum(kind == "R" for kind, _ in calls), r)
        return r

    def jacobian(sigma, f_coeffs, lmax, prov):
        calls.append(("J", np.array(f_coeffs)))
        return true_jacobian(sigma, f_coeffs, lmax, prov)

    monkeypatch.setattr(surfaces, "appendix_graph_residual", residual)
    monkeypatch.setattr(surfaces, "_graph_jacobian", jacobian)
    return calls


def test_graph_newton_takes_fewer_jacobians_than_steps(monkeypatch):
    import stcmc.surfaces as surfaces

    calls = _graph_newton_calls(monkeypatch)
    f0 = _criterion_10_like_seed()
    solve_graph_residual(7.0, f0, 10, tol=1e-13)
    jacobians = sum(kind == "J" for kind, _ in calls)
    assert jacobians >= 1
    # a solve of k steps converges in iteration k, so with GRAPH_MAX_ITER =
    # jacobians + 1 it stops short exactly when it takes more steps than Jacobians
    monkeypatch.setattr(surfaces, "GRAPH_MAX_ITER", jacobians + 1)
    with pytest.raises(MaxIterations):
        solve_graph_residual(7.0, f0, 10, tol=1e-13)


@pytest.mark.parametrize("chord_trial", ["contracts_too_little", "reaches_origin"])
def test_graph_newton_rebuilds_the_jacobian_when_a_chord_step_fails(monkeypatch, chord_trial):
    import stcmc.surfaces as surfaces

    single = []

    def sabotage(k, r):
        # residual evaluations: 1 the seed, 2 the full step of iteration 0, 3 the chord trial of iteration 1
        single.append(r)
        if k != 3:
            return r
        if chord_trial == "reaches_origin":
            raise DegenerateInducedMetric("graph reaches the origin")
        return single[1] / (0.9 * surfaces.CHORD_CONTRACTION)

    calls = _graph_newton_calls(monkeypatch, sabotage)
    monkeypatch.setattr(surfaces, "GRAPH_MAX_ITER", 2)
    with pytest.raises(MaxIterations, match="iteration 2"):
        solve_graph_residual(7.0, _criterion_10_like_seed(), 10, tol=1e-13)
    # the rejected chord trial is followed, within iteration 1, by a fresh
    # Jacobian and its full damped-Newton step
    assert [kind for kind, _ in calls] == ["R", "J", "R", "R", "J", "R"]
    # that Jacobian is taken at the iterate the chord trial started from
    assert np.array_equal(calls[4][1], calls[2][1])


def _coefficient_wise_jacobian(sigma, f, lmax, prov):
    """Central differences f +- h e_j of the projected residual, one perturbed height per coefficient."""
    nb, grid = n_coeffs(lmax), get_grid(dealias_lmax(lmax))
    h = 1e-7 * max(1.0, sigma)
    rows = np.concatenate([f + h * np.eye(nb), f - h * np.eye(nb)])
    R = truncate_coeffs(grid.analyze(appendix_graph_residual(sigma, rows, lmax, prov)), lmax)
    return ((R[:nb] - R[nb:]) / (2.0 * h)).T


@pytest.mark.parametrize("data", ["flat", "extrinsic"])
def test_graph_jet_jacobian_matches_coefficient_wise_differences(data):
    import stcmc.surfaces as surfaces

    prov = EuclideanProvider() if data == "flat" else PerturbationProvider(K_TERMS)
    f0 = _criterion_10_like_seed()
    J = surfaces._graph_jacobian(7.0, f0, 10, prov)
    ref = _coefficient_wise_jacobian(7.0, f0, 10, prov)
    assert J.shape == ref.shape == (n_coeffs(10), n_coeffs(10))
    assert _relative_gap(J, ref) <= 1e-8


def test_graph_newton_evaluates_one_height_per_residual(monkeypatch):
    calls = _graph_newton_calls(monkeypatch)
    solve_graph_residual(7.0, _criterion_10_like_seed(), 10, tol=1e-13)
    residuals = [f for kind, f in calls if kind == "R"]
    assert len(residuals) > 1 and all(f.shape == (n_coeffs(10),) for f in residuals)


@pytest.mark.parametrize("sigma", [0.0, -7.0, np.nan, np.inf])
def test_graph_equation_rejects_a_bad_sigma(monkeypatch, sigma):
    calls = _graph_newton_calls(monkeypatch)
    with pytest.raises(ConfigError, match="sigma must be finite and positive"):
        solve_graph_residual(sigma, _criterion_10_like_seed(), 10)
    assert calls == []
    with pytest.raises(ConfigError, match="sigma must be finite and positive"):
        appendix_graph_residual(sigma, _criterion_10_like_seed(), 10)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_graph_equation_rejects_a_bad_tol(monkeypatch, tol):
    calls = _graph_newton_calls(monkeypatch)
    with pytest.raises(ConfigError, match="tolerance must be finite and positive"):
        solve_graph_residual(7.0, _criterion_10_like_seed(), 10, tol=tol)
    assert calls == []


@pytest.mark.parametrize("shape", [(100,), (n_coeffs(10) + 1,), (1,), (2, n_coeffs(10))])
def test_graph_newton_rejects_a_seed_of_the_wrong_shape(monkeypatch, shape):
    calls = _graph_newton_calls(monkeypatch)
    with pytest.raises(ShapeMismatch, match="121"):
        solve_graph_residual(7.0, np.zeros(shape), 10)
    assert calls == []


@pytest.mark.parametrize("shape", [(100,), (1,), (3, n_coeffs(10) - 1)])
def test_graph_residual_rejects_heights_of_the_wrong_length(shape):
    with pytest.raises(ShapeMismatch, match="121"):
        appendix_graph_residual(7.0, np.zeros(shape), 10)


def test_surface_csv(tmp_path, schw):
    S = GraphSurface.round([0.5, 0.0, 0.0], 10.0, 8)
    path = tmp_path / "snap.csv"
    surface_to_csv(surface_frames(schw, S), S, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# center = 0.5")
    header = lines[1].split(",")
    assert header == ["theta", "phi", "f", "H", "P", "stcmc"]
    row = next(csv.reader([lines[2]]))
    assert len(row) == 6
    with pytest.raises(ConfigError):
        surface_to_csv(surface_frames(schw, GraphSurface.round([0.5, 0.0, 0.0], 10.0, 6)), S, path)
