import csv
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc.chart import PerturbationProvider, RotatedProvider, SchwarzschildProvider, TranslatedProvider
from stcmc.errors import ConfigError, DegenerateInducedMetric, FoliationNotSupported, MaxIterations, TrappedRegion
from stcmc.spectral import coeff_index, dealias_lmax, n_coeffs, real_sph_basis
from stcmc.surfaces import (
    GraphSurface,
    appendix_graph_coefficients,
    appendix_graph_residual,
    apriori_class_check,
    euclidean_comparison,
    get_grid,
    parametrized_area_and_center,
    rebase,
    solve_graph_residual,
    surface_frames,
    surface_scalars,
    surface_to_csv,
)

ROT = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


def random_surface(rng, lmax=8, r0=10.0, amp=0.1, center=(0.0, 0.0, 0.0)):
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(lmax + 1)])
    coeffs = amp * rng.normal(size=n_coeffs(lmax)) * np.exp(-0.4 * ls)
    return GraphSurface(np.asarray(center, dtype=float), r0, coeffs, lmax)


def test_round_sphere_flat(euclid):
    S = GraphSurface.round([0, 0, 0], 5.0, 8)
    fr = surface_frames(euclid, S)
    assert np.max(np.abs(fr.H - 0.4)) < 1e-13
    assert np.max(np.abs(fr.P)) == 0.0
    assert np.max(np.abs(fr.stcmc - 0.4)) < 1e-13
    assert np.max(np.abs(fr.Aring2)) < 1e-26


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
    assert np.max(np.abs(np.linalg.norm(fr.nu_delta, axis=1) - 1.0)) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_curvature_identity(seed):
    rng = np.random.default_rng(seed)
    prov = SchwarzschildProvider(1.0)
    S = random_surface(rng, r0=rng.uniform(8, 20), amp=0.2)
    fr = surface_frames(prov, S)
    assert np.max(np.abs(fr.stcmc**2 + fr.P**2 - fr.H**2)) < 1e-12


def test_surface_scalars_schwarzschild(schw):
    for r0 in (5.0, 10.0, 40.0):
        sc = surface_scalars(schw, GraphSurface.round([0, 0, 0], r0, 8))
        assert abs(sc.hawking_mass - 1.0) < 1e-10
        assert abs(sc.geroch_mass - 1.0) < 1e-10


def test_surface_scalars_flat(euclid):
    sc = surface_scalars(euclid, GraphSurface.round([0, 0, 0], 7.0, 8))
    assert abs(sc.hawking_mass) < 1e-12
    assert abs(sc.geroch_mass) < 1e-12
    assert abs(sc.area_g - 4 * np.pi * 49) < 1e-10
    assert abs(sc.willmore_deficit) < 1e-9


def test_center_shifts_with_translation(schw):
    rng = np.random.default_rng(4)
    S = random_surface(rng, r0=12.0, amp=0.2)
    c = np.array([0.8, -0.5, 0.3])
    sc0 = surface_scalars(schw, S)
    sc1 = surface_scalars(TranslatedProvider(schw, c), S.translated(c))
    assert np.max(np.abs(sc1.center - sc0.center - c)) < 1e-12
    assert abs(sc1.area_g - sc0.area_g) < 1e-10 * sc0.area_g


def test_masses_ordered(graphical):
    rng = np.random.default_rng(6)
    S = random_surface(rng, r0=40.0, amp=0.4)
    sc = surface_scalars(graphical, S)
    assert sc.hawking_mass >= sc.geroch_mass
    # equality when K = 0
    sc0 = surface_scalars(SchwarzschildProvider(1.0), S)
    assert abs(sc0.hawking_mass - sc0.geroch_mass) < 1e-12


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
    chk = apriori_class_check(schw, GraphSurface.round([0, 0, 0], 100.0, 8), 0.0, 10.0, 0.5, 0.5)
    assert chk.all_ok
    # |z| = 2r fails the centering inequality with a = b = 0
    off = GraphSurface.round([200.0, 0.0, 0.0], 100.0, 8)
    chk2 = apriori_class_check(euclid, off, 0.0, 0.0, 0.5, 0.5)
    assert not chk2.center_ok
    chk3 = apriori_class_check(euclid, GraphSurface.round([0, 0, 0], 10.0, 8), 0.0, 0.0, 0.5, 0.5)
    assert chk3.willmore_ok  # zero deficit passes for any b >= 0


@pytest.mark.parametrize("lmax", [8, 24])
@pytest.mark.parametrize("r", [1.0, 10.0, 1000.0])
def test_apriori_class_roundoff_allowance(euclid, r, lmax):
    # equality cases: a flat round sphere has zero Willmore deficit and |z| = |c|
    chk = apriori_class_check(euclid, GraphSurface.round([0, 0, 0], r, lmax), 0.0, 0.0, 0.5, 0.5)
    assert chk.willmore_ok and chk.center_ok
    off = apriori_class_check(euclid, GraphSurface.round([3.0 * r, 0, 0], r, lmax), 3.0, 0.0, 0.5, 0.5)
    assert off.center_ok
    # the allowance never absorbs a real deficit (~2.4e-7 for this l=2 bump)
    coeffs = np.zeros(n_coeffs(lmax))
    coeffs[coeff_index(2, 0)] = 1e-3 * r / 10.0
    bump = apriori_class_check(euclid, GraphSurface(np.zeros(3), r, coeffs, lmax), 0.0, 0.0, 0.5, 0.5)
    assert 1e-7 < -bump.willmore_slack < 1e-6
    assert not bump.willmore_ok


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
    cmp0 = euclidean_comparison(graphical, S)
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
    th, ph = grid.mesh()
    om = grid.unit_vectors()["o"]
    om_back = om @ ROT  # ROT^T row-applied
    thb = np.arccos(np.clip(om_back[:, 2], -1, 1))
    phb = np.mod(np.arctan2(om_back[:, 1], om_back[:, 0]), 2 * np.pi)
    rho = S.radius_at(thb, phb)
    return GraphSurface.from_nodal(grid, ROT @ S.center, S.r0, rho - S.r0)


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


def test_rebase_preserves_surface(euclid):
    rng = np.random.default_rng(12)
    S = random_surface(rng, lmax=8, r0=6.0, amp=0.05)
    S2 = rebase(S, [0.1, -0.05, 0.08], lmax=16)
    grid = get_grid(16)
    th, ph = grid.mesh()
    om = grid.unit_vectors()["o"]
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
    th, ph = grid.mesh()
    pts = S2.center + S2.radius_at(th, ph)[:, None] * grid.unit_vectors()["o"]
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
    th, _ = grid.mesh()
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


def test_surface_csv(tmp_path, schw):
    S = GraphSurface.round([0.5, 0.0, 0.0], 10.0, 8)
    path = tmp_path / "snap.csv"
    surface_to_csv(schw, S, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# center = 0.5")
    header = lines[1].split(",")
    assert header == ["theta", "phi", "f", "H", "P", "stcmc"]
    row = next(csv.reader([lines[2]]))
    assert len(row) == 6
