import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc.chart import (
    DataProvider,
    EuclideanProvider,
    ExtrinsicJet,
    GraphicalSchwarzschildProvider,
    MetricJet,
    PerturbationProvider,
    RotatedProvider,
    SchwarzschildProvider,
    TranslatedProvider,
    _normal_contractions,
    _points_first,
    _sym_ik,
    build_provider,
    christoffel,
    conjugate_momentum,
    constraint_densities,
    covariant_derivative,
    ricci_scalar_curvature,
    trace_derivative,
)
from stcmc.errors import (
    ConfigError,
    HorizonReached,
    NotOrthogonal,
    PointInsideCore,
    SingularMetric,
    SliceNotSpacelike,
)
from stcmc.charges import adm_mass, sphere_fluxes
from stcmc.solver import curvature_residual, graph_jacobian
from stcmc.spectral import get_grid
from stcmc.surfaces import GraphSurface, rebase, surface_frames

from conftest import ScaledExtrinsicProvider

_EYE = np.eye(3)
ROT = np.array(
    [
        [0.36, 0.48, -0.8],
        [-0.8, 0.6, 0.0],
        [0.48, 0.64, 0.6],
    ]
)  # exactly orthogonal


def fd_metric_derivative(prov, pts, h):
    out = np.zeros(pts.shape[:1] + (3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[..., k] = (prov.metric_jet(pts + e).g - prov.metric_jet(pts - e).g) / (2 * h)
    return out


# -- catalog values -----------------------------------------------------------

def test_euclidean_is_flat(euclid, sample_points):
    jet = euclid.metric_jet(sample_points)
    assert np.array_equal(jet.g, np.broadcast_to(np.eye(3), jet.g.shape))
    assert not jet.dg.any() and not jet.ddg.any()
    ext = euclid.extrinsic_jet(sample_points)
    assert not ext.K.any() and not ext.dK.any()


def test_euclidean_zero_jets_are_read_only(euclid, sample_points):
    jet, ext = euclid.metric_jet(sample_points), euclid.extrinsic_jet(sample_points)
    for arr in (jet.g, jet.dg, jet.ddg, ext.K, ext.dK):
        with pytest.raises(ValueError):
            arr[0] += 1.0


def test_schwarzschild_extrinsic_jet_is_a_read_only_zero_broadcast(schw, sample_points):
    ext = schw.extrinsic_jet(sample_points)
    for arr in (ext.K, ext.dK):
        assert arr.strides[0] == 0 and not np.any(arr)
        with pytest.raises(ValueError):
            arr[0] += 1.0


def test_christoffel_zero_metric_raises():
    jet = MetricJet(np.zeros((2, 3, 3)), np.zeros((2, 3, 3, 3)), lambda: np.zeros((2, 3, 3, 3, 3)))
    with pytest.raises(SingularMetric):
        christoffel(jet)


_CATALOG_CONFIGS = {
    "euclidean": {"kind": "euclidean"},
    "schwarzschild_canonical": {"kind": "schwarzschild_canonical", "mass": 1.0},
    "schwarzschild_graphical": {"kind": "schwarzschild_graphical", "mass": 1.0, "u": [1.0, 0.0, 0.0]},
    "translated": {"kind": "translated", "center": [1.0, -2.0, 0.5], "inner": {"kind": "schwarzschild_canonical", "mass": 2.0}},
    "rotated": {"kind": "rotated", "rotation": ROT.tolist(), "inner": {"kind": "schwarzschild_graphical", "mass": 1.5, "u": [0.2, 0.3, 0.4]}},
    "custom_perturbation": {
        "kind": "custom_perturbation",
        "perturbation_terms": [
            {"target": "g", "i": 0, "j": 1, "coeff": 0.3, "decay": 1.0, "angular": [1, 0, 1]},
            {"target": "g", "i": 2, "j": 2, "coeff": -0.4, "decay": 0.5},
        ],
    },
}


@pytest.mark.parametrize("kind", sorted(_CATALOG_CONFIGS))
def test_cofactor_inverse_matches_lapack(kind, sample_points):
    jet = build_provider(_CATALOG_CONFIGS[kind]).metric_jet(sample_points)
    ref = np.linalg.inv(jet.g)
    assert np.max(np.abs(jet.ginv - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the cofactors of an exactly symmetric metric are symmetric term by term
    # (a rotated metric is symmetric only to roundoff)
    if np.array_equal(jet.g, jet.g.transpose(0, 2, 1)):
        assert np.array_equal(jet.ginv, jet.ginv.transpose(0, 2, 1))


_RANK_2 = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) + np.outer([0.0, 1.0, -1.0], [0.0, 1.0, -1.0])


@pytest.mark.parametrize("g", [np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]), _RANK_2], ids=["zero", "rank2-diagonal", "rank2"])
def test_singular_metric_raises(g):
    stack = np.stack([np.eye(3), g])
    jet = MetricJet(stack, np.zeros((2, 3, 3, 3)), None)
    with pytest.raises(SingularMetric):
        jet.ginv


def test_schwarzschild_radial_component(schw):
    g = schw.metric_jet(np.array([[10.0, 0.0, 0.0]])).g[0]
    assert abs(g[0, 0] - 1.25) < 1e-14
    # tangential directions carry the flat r^2 dOmega^2 scaling
    assert abs(g[1, 1] - 1.0) < 1e-14
    assert abs(g[2, 2] - 1.0) < 1e-14


def test_schwarzschild_time_symmetric(schw, sample_points):
    ext = schw.extrinsic_jet(sample_points)
    assert not ext.K.any()


def test_negative_mass_has_no_horizon():
    prov = SchwarzschildProvider(-1.0)
    jet = prov.metric_jet(np.array([[1.0, 0.0, 0.0]]))
    assert np.isfinite(jet.g[0]).all()
    assert prov.inner_radius == 0.0


def test_translated_matches_shifted_evaluation(schw, sample_points):
    c = np.array([1.0, -2.0, 0.5])
    prov = TranslatedProvider(schw, c)
    a = prov.metric_jet(sample_points)
    b = schw.metric_jet(sample_points - c)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.dg, b.dg)


def _conjugated(a):
    """The one-einsum reference O_ia O_jb .. a[n, a, b, ..] of a rotated tensor of any rank.

    It sums in np.longdouble, so where the platform has extended precision
    the reference's own roundoff (up to ~9e-16 of the largest entry of a
    rotated ddg in double) does not count against the rotation under test.
    """
    rank = a.ndim - 1
    subs = ",".join(i + c for i, c in zip("ijkl", "abcd"[:rank]))
    O = ROT.astype(np.longdouble)
    return np.einsum(f"{subs},n{'abcd'[:rank]}->n{'ijkl'[:rank]}", *[O] * rank, a.astype(np.longdouble))


@pytest.mark.parametrize("name", ["g", "dg", "ddg", "K", "dK"])
def test_rotated_jets_are_conjugated(name, graphical, sample_points):
    jet = "extrinsic_jet" if name in ("K", "dK") else "metric_jet"
    a = getattr(getattr(RotatedProvider(graphical, ROT), jet)(sample_points), name)
    expected = _conjugated(getattr(getattr(graphical, jet)(sample_points @ ROT), name))
    # the rotation under test sums in double, one index at a time
    assert np.max(np.abs(a - expected)) <= 1e-15 * np.max(np.abs(expected))


# -- jets against finite differences ------------------------------------------

def _fd_provider(name, schw, graphical):
    """The providers whose jets are checked against finite differences of their lower orders."""
    if name == "perturbed":
        return PerturbationProvider(
            [
                {"target": "g", "i": 0, "j": 1, "coeff": 0.3, "decay": 1.0, "angular": [1, 0, 1]},
                {"target": "K", "i": 2, "j": 2, "coeff": 0.1, "decay": 2.0, "angular": [0, 1, 0]},
            ]
        )
    if name == "translated":
        return TranslatedProvider(graphical, [1.0, -2.0, 0.5])
    if name == "rotated":
        return RotatedProvider(graphical, ROT)
    return {"schw": schw, "graphical": graphical}[name]


@pytest.mark.parametrize("name", ["schw", "graphical", "perturbed"])
def test_first_derivatives_match_finite_differences(name, schw, graphical, sample_points):
    prov = _fd_provider(name, schw, graphical)
    jet = prov.metric_jet(sample_points)
    r = np.linalg.norm(sample_points, axis=1).min()
    fd = fd_metric_derivative(prov, sample_points, 1e-4 * r)
    assert np.max(np.abs(fd - jet.dg)) < 1e-6
    ext = prov.extrinsic_jet(sample_points)
    h = 1e-5 * r
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fdk = (prov.extrinsic_jet(sample_points + e).K - prov.extrinsic_jet(sample_points - e).K) / (2 * h)
        assert np.max(np.abs(fdk - ext.dK[..., k])) < 1e-7


@pytest.mark.parametrize("name", ["schw", "graphical", "perturbed", "translated", "rotated"])
def test_second_derivatives_match_finite_differences(name, schw, graphical, sample_points):
    prov = _fd_provider(name, schw, graphical)
    jet = prov.metric_jet(sample_points)
    assert np.any(jet.ddg)
    h = 1e-4 * np.linalg.norm(sample_points, axis=1).min()
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (prov.metric_jet(sample_points + e).dg - prov.metric_jet(sample_points - e).dg) / (2 * h)
        assert np.max(np.abs(fd - jet.ddg[..., k])) < 1e-6


@given(st.integers(0, 2**32 - 1))
def test_jet_symmetries(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=3)
    p *= rng.uniform(10, 50) / np.linalg.norm(p)
    prov = GraphicalSchwarzschildProvider(1.0, [0.3, -1.0, 0.2])
    jet = prov.metric_jet(p[None])
    g, dg, ddg = jet.g[0], jet.dg[0], jet.ddg[0]
    assert np.max(np.abs(g - g.T)) == 0.0
    assert np.max(np.abs(dg - dg.transpose(1, 0, 2))) < 1e-15
    assert np.max(np.abs(ddg - ddg.transpose(1, 0, 2, 3))) < 1e-15
    assert np.max(np.abs(ddg - ddg.transpose(0, 1, 3, 2))) < 1e-12
    K = prov.extrinsic_jet(p[None]).K[0]
    assert np.max(np.abs(K - K.T)) < 1e-16


# -- curvature operations ------------------------------------------------------

def test_christoffel_flat_is_zero(euclid, sample_points):
    jet = euclid.metric_jet(sample_points)
    assert np.max(np.abs(christoffel(jet))) == 0.0


def conformal_provider(a=0.5):
    """g = (1 + a/r)^4 delta, represented exactly by power-law terms."""
    terms = []
    coef = {1: 4 * a, 2: 6 * a**2, 3: 4 * a**3, 4: a**4}
    for i in range(3):
        for decay, c in coef.items():
            terms.append({"target": "g", "i": i, "j": i, "coeff": c, "decay": float(decay)})
    return PerturbationProvider(terms)


def conformal_oracle(a, p):
    """Closed-form Christoffels/Ricci of g = exp(2w) delta with w = 2 ln(1 + a/r).

    Independent route: the conformal transformation law in three dimensions.
    """
    r = np.linalg.norm(p)
    n = p / r
    phi = 1 + a / r
    dw = (-2 * a / (r**2 * phi)) * n  # gradient of w
    # second derivatives of w(r): w' = -2a/(r^2 phi); w'' = d/dr of that
    wp = -2 * a / (r**2 * phi)
    wpp = 2 * a * (2 * r + a) / (r**2 * phi) ** 2
    hess = wpp * np.outer(n, n) + wp / r * (np.eye(3) - np.outer(n, n))
    gam = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                gam[i, j, k] = (
                    (i == j) * dw[k] + (i == k) * dw[j] - (j == k) * dw[i]
                )
    lap = np.trace(hess)
    ric = -hess + np.outer(dw, dw) - (lap + dw @ dw) * np.eye(3)
    scal = np.exp(-4 * np.log(phi)) * (-4 * lap - 2 * dw @ dw)
    return gam, ric, scal


def test_christoffel_conformal_closed_form():
    prov = conformal_provider(0.5)
    p = np.array([3.0, -4.0, 12.0])
    jet = prov.metric_jet(p[None])
    gam = christoffel(jet)[0]
    gam_exact, ric_exact, scal_exact = conformal_oracle(0.5, p)
    assert np.max(np.abs(gam - gam_exact)) < 1e-12
    ric, scal = ricci_scalar_curvature(jet)
    assert np.max(np.abs(ric[0] - ric_exact)) < 1e-12
    assert abs(scal[0] - scal_exact) < 1e-12


def test_christoffel_definition_identity(graphical, sample_points):
    jet = graphical.metric_jet(sample_points)
    gam = christoffel(jet)
    lowered = np.einsum("nil,nljk->nijk", jet.g, gam)
    expected = 0.5 * (
        np.einsum("nikj->nijk", jet.dg)
        + np.einsum("nijk->nijk", jet.dg)
        - np.einsum("njki->nijk", jet.dg)
    )
    assert np.max(np.abs(lowered - expected)) < 1e-14


def test_christoffel_symmetry(graphical, sample_points):
    gam = christoffel(graphical.metric_jet(sample_points))
    assert np.max(np.abs(gam - gam.transpose(0, 1, 3, 2))) < 1e-14


def test_ricci_flat(euclid, sample_points):
    ric, scal = ricci_scalar_curvature(euclid.metric_jet(sample_points))
    assert np.max(np.abs(ric)) == 0.0 and np.max(np.abs(scal)) == 0.0


def test_schwarzschild_scalar_curvature_vanishes(schw, sample_points):
    _, scal = ricci_scalar_curvature(schw.metric_jet(sample_points))
    assert np.max(np.abs(scal)) < 1e-10


def _relative_gap(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def _einsum_curvature(jet):
    """Gam, d_e Gam and Ricci by the multi-operand einsums the batched products replace."""
    dg, ddg = jet.dg, jet.ddg
    bracket = np.einsum("ndcb->ndbc", dg) + dg - np.einsum("nbcd->ndbc", dg)
    dbracket = np.einsum("ndcbe->ndbce", ddg) + ddg - np.einsum("nbcde->ndbce", ddg)
    Gam = 0.5 * np.einsum("nad,ndbc->nabc", jet.ginv, bracket)
    dGam = 0.5 * (np.einsum("nade,ndbc->nabce", jet.dginv, bracket) + np.einsum("nad,ndbce->nabce", jet.ginv, dbracket))
    ric = (
        np.einsum("nkijk->nij", dGam)
        - np.einsum("nkkji->nij", dGam)
        + np.einsum("nkkl,nlij->nij", Gam, Gam)
        - np.einsum("nkil,nlkj->nij", Gam, Gam)
    )
    return Gam, dGam, ric


def test_curvature_products_match_einsum(graphical):
    x = surface_frames(graphical, GraphSurface.round([0.5, -0.3, 0.2], 25.0, 8)).X
    jet = graphical.metric_jet(x)
    Gam, dGam, ric = _einsum_curvature(jet)
    got_Gam, got_dGam = christoffel(jet, derivative=True)
    got_ric, _ = ricci_scalar_curvature(jet)
    for got, ref in ((got_Gam, Gam), (got_dGam, dGam), (got_ric, ric)):
        assert _relative_gap(got, ref) <= 1e-14


def _leaf_points(prov):
    """The dealiased lmax-8 nodes of an off-center sphere of radius 25."""
    x = surface_frames(prov, GraphSurface.round([0.5, -0.3, 0.2], 25.0, 8)).X
    return x, np.linalg.norm(x, axis=1)


def test_schwarzschild_ddg_matches_broadcast_form(schw):
    x, r = _leaf_points(schw)
    nvec = x / r[:, None]
    psi, dpsi, _ = schw._psi(r)
    u = r - 2.0 * schw.mass
    ddpsi = 2.0 * schw.mass * (6.0 / (r**4 * u) + 4.0 / (r**3 * u**2) + 2.0 / (r**2 * u**3))
    xx = x[:, :, None] * x[:, None, :]
    sym_ik = _EYE[None, :, None, :] * x[:, None, :, None] + _EYE[None, None, :, :] * x[:, :, None, None]
    nn = nvec[:, :, None] * nvec[:, None, :]
    ref = (
        ddpsi[:, None, None, None, None] * nn[:, None, None, :, :] * xx[:, :, :, None, None]
        + (dpsi / r)[:, None, None, None, None] * (_EYE - nn)[:, None, None, :, :] * xx[:, :, :, None, None]
        + dpsi[:, None, None, None, None]
        * (nvec[:, None, None, :, None] * sym_ik[:, :, :, None, :] + nvec[:, None, None, None, :] * sym_ik[:, :, :, :, None])
        + psi[:, None, None, None, None]
        * (_EYE[None, :, None, :, None] * _EYE[None, None, :, None, :] + _EYE[None, None, :, :, None] * _EYE[None, :, None, None, :])
    )
    assert _relative_gap(schw.metric_jet(x).ddg, ref) <= 1e-14


def test_schwarzschild_dg_matches_broadcast_form(schw):
    x, r = _leaf_points(schw)
    nvec = x / r[:, None]
    psi, dpsi, _ = schw._psi(r)
    xx = x[:, :, None] * x[:, None, :]
    sym_ik = _EYE[None, :, None, :] * x[:, None, :, None] + _EYE[None, None, :, :] * x[:, :, None, None]
    ref = dpsi[:, None, None, None] * nvec[:, None, None, :] * xx[:, :, :, None] + psi[:, None, None, None] * sym_ik
    assert np.array_equal(schw.metric_jet(x).dg, ref)


def _schwarzschild_jets_with_psi2_in_psi(m, x):
    """g, dg and ddg as formed when _psi also returned psi'' on every first-order call (the reference)."""
    r = np.linalg.norm(x, axis=1)
    u = r - 2.0 * m
    psi = 2.0 * m / (r**2 * u)
    dpsi = 2.0 * m * (-2.0 / (r**3 * u) - 1.0 / (r**2 * u**2))
    ddpsi = 2.0 * m * (6.0 / (r**4 * u) + 4.0 / (r**3 * u**2) + 2.0 / (r**2 * u**3))
    xs = np.ascontiguousarray(x.T)
    xx = xs[:, None] * xs[None]
    g = _EYE[:, :, None] + psi * xx
    dg = xx[:, :, None] * (dpsi * (xs / r)) + _sym_ik(psi * xs)
    nvec = xs / r
    ddg = ((ddpsi - dpsi / r) * xx)[:, :, None, None] * (nvec[:, None] * nvec[None])
    xxr = (dpsi / r) * xx
    xn = dpsi * xs[:, None] * nvec[None]
    for a in range(3):
        ddg[:, :, a, a] += xxr
        ddg[a, :, :, a] += xn
        ddg[:, a, :, a] += xn
        ddg[a, :, a, :] += xn
        ddg[:, a, a, :] += xn
        for b in range(3):
            ddg[a, b, a, b] += psi
            ddg[a, b, b, a] += psi
    return _points_first(g), _points_first(dg), _points_first(ddg)


@pytest.mark.parametrize("m", [1.0, -1.0])
def test_schwarzschild_jets_unchanged_by_deferring_psi2(m):
    prov = SchwarzschildProvider(m)
    for radius in (5.0, 300.0, 5000.0):
        x = radius * get_grid(8).unit_vectors["o"]
        jet = prov.metric_jet(x)
        for got, ref in zip((jet.g, jet.dg, jet.ddg), _schwarzschild_jets_with_psi2_in_psi(m, x), strict=True):
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def _schwarzschild_closed_forms(m, x):
    """g^-1 = delta - (2m/r) n n and Gamma^k_ij = N^2 x_k (psi'/r x_i x_j + 2 psi delta_ij) / 2."""
    r = np.linalg.norm(x, axis=1)
    nvec = x / r[:, None]
    psi, dpsi, _ = SchwarzschildProvider(m)._psi(r)
    ginv = _EYE - (2.0 * m / r)[:, None, None] * nvec[:, :, None] * nvec[:, None, :]
    inner = (dpsi / r)[:, None, None] * x[:, :, None] * x[:, None, :] + 2.0 * psi[:, None, None] * _EYE
    Gam = 0.5 * (1.0 - 2.0 * m / r)[:, None, None, None] * x[:, :, None, None] * inner[:, None, :, :]
    return ginv, Gam


@pytest.mark.parametrize("m", [1.0, -1.0])
def test_schwarzschild_geometry_matches_closed_forms(m):
    prov = SchwarzschildProvider(m)
    for radius in (2.2, 5.0, 300.0, 5000.0):
        x = radius * get_grid(8).unit_vectors["o"]
        jet = prov.metric_jet(x)
        ginv, Gam = _schwarzschild_closed_forms(m, x)
        assert _relative_gap(jet.ginv, ginv) <= 1e-14
        assert _relative_gap(jet.Gam, Gam) <= 1e-14


def test_graphical_extrinsic_curvature_matches_generic_route(graphical):
    """K from the closed forms against the base jet's cofactor inverse, Gam and an einsum Hessian."""
    for radius in (2.2, 5.0, 300.0, 5000.0):
        x = radius * get_grid(24).unit_vectors["o"]
        r = np.linalg.norm(x, axis=1)
        base = graphical.base.metric_jet(x)
        dT, ddT = map(_points_first, graphical._T_jets(x, r)[:2])
        N, dN, _ = graphical._N_jets(x, r)
        dN = _points_first(dN)
        hessT = ddT - np.einsum("nkij,nk->nij", base.Gam, dT)
        gradT = np.einsum("nab,nb->na", base.ginv, dT)
        W = np.sqrt(1.0 - N**2 * np.einsum("na,na->n", dT, gradT))
        c1 = np.einsum("na,na->n", dN, gradT)
        D = (
            np.einsum("ni,nj->nij", dT, dN)
            + np.einsum("nj,ni->nij", dT, dN)
            + N[:, None, None] * hessT
            - (N**2 * c1)[:, None, None] * np.einsum("ni,nj->nij", dT, dT)
        )
        assert _relative_gap(graphical.extrinsic_jet(x).K, D / W[:, None, None]) <= 1e-14


def test_sym_ik_matches_broadcast_form(schw):
    x, _ = _leaf_points(schw)
    ref = _EYE[None, :, None, :] * x[:, None, :, None] + _EYE[None, None, :, :] * x[:, :, None, None]
    assert np.array_equal(_points_first(_sym_ik(x.T)), ref)


def _radial(r, nvec, d1, d2, d3):
    """grad, Hessian and third derivative of a radial function with derivatives d1, d2, d3."""
    nn = nvec[:, :, None] * nvec[:, None, :]
    nnn = nn[:, :, :, None] * nvec[:, None, None, :]
    sym = (
        _EYE[None, :, :, None] * nvec[:, None, None, :]
        + _EYE[None, :, None, :] * nvec[:, None, :, None]
        + _EYE[None, None, :, :] * nvec[:, :, None, None]
    )
    return (
        d1[:, None] * nvec,
        d2[:, None, None] * nn + (d1 / r)[:, None, None] * (_EYE - nn),
        d3[:, None, None, None] * nnn
        + (d2 / r)[:, None, None, None] * (sym - 3.0 * nnn)
        + (d1 / r**2)[:, None, None, None] * (3.0 * nnn - sym),
    )


def test_time_function_jets_match_separate_radial_parts():
    prov = GraphicalSchwarzschildProvider(1.0, [0.6, -0.3, 0.8])
    x, r = _leaf_points(prov)
    u = prov.u
    lr = np.log(r)
    s, c = np.sin(lr), np.cos(lr)
    nvec = x / r[:, None]
    gS, hS, tS = _radial(r, nvec, c / r, -(s + c) / r**2, (3.0 * s + c) / r**3)
    gR, hR, tR = _radial(r, nvec, -1.0 / r**2, 2.0 / r**3, -6.0 / r**4)
    ux = x @ u
    ref = (
        gS + u[None, :] / r[:, None] + ux[:, None] * gR,
        hS + u[None, :, None] * gR[:, None, :] + u[None, None, :] * gR[:, :, None] + ux[:, None, None] * hR,
        tS
        + u[None, :, None, None] * hR[:, None, :, :]
        + u[None, None, :, None] * hR[:, :, None, :]
        + u[None, None, None, :] * hR[:, :, :, None]
        + ux[:, None, None, None] * tR,
    )
    for got, want in zip(map(_points_first, prov._T_jets(x, r, third=True)), ref):
        assert _relative_gap(got, want) <= 1e-14
    first = prov._T_jets(x, r)
    assert first[2] is None
    for got, want in zip(map(_points_first, first[:2]), ref[:2]):
        assert _relative_gap(got, want) <= 1e-14


def _generic_dk(prov, x):
    """dK of the graphical slice by the generic route: the base jet's cofactor inverse, Gam, dGam and einsums."""
    r = np.linalg.norm(x, axis=1)
    base = prov.base.metric_jet(x)
    ginv, dginv = base.ginv, base.dginv
    Gam, dGam = christoffel(base, derivative=True)
    dT, ddT, dddT = map(_points_first, prov._T_jets(x, r, third=True))
    N, dN, ddN = prov._N_jets(x, r, second=True)
    dN, ddN = _points_first(dN), _points_first(ddN)
    hessT = ddT - np.einsum("nkij,nk->nij", Gam, dT)
    gradT = np.einsum("nab,nb->na", ginv, dT)
    dT2 = np.einsum("na,na->n", dT, gradT)
    W = np.sqrt(1.0 - N**2 * dT2)
    c1 = np.einsum("na,na->n", dN, gradT)
    N2 = N**2
    TT = dT[:, :, None] * dT[:, None, :]
    dTT = ddT[:, :, None, :] * dT[:, None, :, None] + dT[:, :, None, None] * ddT[:, None, :, :]
    D = dT[:, :, None] * dN[:, None, :] + dT[:, None, :] * dN[:, :, None] + N[:, None, None] * hessT - (N2 * c1)[:, None, None] * TT
    dhessT = dddT - np.einsum("nkijl,nk->nijl", dGam, dT) - np.einsum("nkij,nkl->nijl", Gam, ddT)
    dN2 = (2.0 * prov.mass / r**2)[:, None] * x / r[:, None]
    dc1 = (
        np.einsum("nak,nab,nb->nk", ddN, ginv, dT)
        + np.einsum("na,nabk,nb->nk", dN, dginv, dT)
        + np.einsum("na,nab,nbk->nk", dN, ginv, ddT)
    )
    dD = (
        ddT[:, :, None, :] * dN[:, None, :, None]
        + dT[:, :, None, None] * ddN[:, None, :, :]
        + ddT[:, None, :, :] * dN[:, :, None, None]
        + dT[:, None, :, None] * ddN[:, :, None, :]
        + dN[:, None, None, :] * hessT[:, :, :, None]
        + N[:, None, None, None] * dhessT
        - (dN2 * c1[:, None] + N2[:, None] * dc1)[:, None, None, :] * TT[:, :, :, None]
        - (N2 * c1)[:, None, None, None] * dTT
    )
    ddT2 = np.einsum("nabk,na,nb->nk", dginv, dT, dT) + 2.0 * np.einsum("nab,nak,nb->nk", ginv, ddT, dT)
    dW = -(dN2 * dT2[:, None] + N2[:, None] * ddT2) / (2.0 * W[:, None])
    return dD / W[:, None, None, None] - D[:, :, :, None] * dW[:, None, None, :] / (W**2)[:, None, None, None]


def test_graphical_dk_contractions_match_einsum(graphical):
    """dK from the closed forms' product rule against the generic route, near the horizon and far out."""
    for prov in (graphical, GraphicalSchwarzschildProvider(-0.5, [0.6, -0.3, 0.8])):
        for radius in (2.2, 5.0, 300.0, 5000.0):
            x = radius * get_grid(24).unit_vectors["o"]
            assert _relative_gap(prov.extrinsic_jet(x).dK, _generic_dk(prov, x)) <= 1e-14


# the catalog, with an extrinsic term in the perturbation
_NORMAL_CONFIGS = dict(
    _CATALOG_CONFIGS,
    custom_perturbation={
        "kind": "custom_perturbation",
        "perturbation_terms": _CATALOG_CONFIGS["custom_perturbation"]["perturbation_terms"]
        + [{"target": "K", "i": 0, "j": 1, "coeff": 0.5, "decay": 2.0, "angular": [1, 0, 0]}],
    },
)


@pytest.mark.parametrize("kind", sorted(_NORMAL_CONFIGS))
def test_normal_contractions_match_the_full_tensors(kind):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 3))
    x *= rng.uniform(15.0, 40.0, size=(200, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    prov = build_provider(_NORMAL_CONFIGS[kind])
    mj, ej = prov.metric_jet(x), prov.extrinsic_jet(x)
    nu = rng.normal(size=(200, 3))
    nu /= np.sqrt(np.einsum("ni,nij,nj->n", nu, mj.g, nu))[:, None]  # g-unit
    ricnn, kscal = _normal_contractions(mj, ej, nu)
    ric, _ = ricci_scalar_curvature(mj)
    ref_ric = np.einsum("nij,ni,nj->n", ric, nu, nu)
    covK = np.einsum("nk,ni,nj,nijk->n", nu, nu, nu, covariant_derivative(mj, ej))
    ref_k = np.einsum("nk,nk->n", nu, trace_derivative(mj, ej)) - covK
    for got, ref in ((ricnn, ref_ric), (kscal, ref_k)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    if kind not in ("euclidean", "schwarzschild_canonical", "translated"):
        assert np.max(np.abs(ref_k)) > 0  # the extrinsic terms are exercised


def test_scalar_is_trace_of_ricci(graphical, sample_points):
    jet = graphical.metric_jet(sample_points)
    ric, scal = ricci_scalar_curvature(jet)
    tr = np.einsum("nij,nij->n", np.linalg.inv(jet.g), ric)
    assert np.max(np.abs(tr - scal)) < 1e-15


def test_conjugate_momentum_identities(graphical, sample_points):
    jet = graphical.metric_jet(sample_points)
    g = jet.g
    K0 = np.zeros_like(g)
    assert not conjugate_momentum(jet, K0).any()
    pi = conjugate_momentum(jet, g)
    assert np.max(np.abs(pi - 2 * g)) < 1e-13
    K = graphical.extrinsic_jet(sample_points).K
    ginv = jet.ginv
    trK = np.einsum("nij,nij->n", ginv, K)
    assert np.max(np.abs(conjugate_momentum(jet, K) - (trK[:, None, None] * g - K))) == 0.0
    # trace identity: tr pi = 2 tr K
    trpi = np.einsum("nij,nij->n", ginv, conjugate_momentum(jet, K))
    assert np.max(np.abs(trpi - 2 * trK)) < 1e-13


def test_constraints_euclidean(euclid, sample_points):
    mu, J = constraint_densities(euclid, sample_points)
    assert np.max(np.abs(mu)) == 0.0 and np.max(np.abs(J)) == 0.0


def test_constraints_vacuum_graphical(graphical):
    x = 20.0 * get_grid(16).unit_vectors["o"]
    mu, J = constraint_densities(graphical, x)
    assert np.max(np.abs(mu)) < 1e-8
    assert np.max(np.linalg.norm(J, axis=1)) < 1e-8


def test_constraints_perturbation_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    term = {"target": "g", "i": 0, "j": 0, "coeff": 0.2, "decay": 1.0, "angular": [0, 0, 1]}
    prov = PerturbationProvider([term])
    x, y, z = sympy.symbols("x y z", real=True, positive=False)
    r = sympy.sqrt(x * x + y * y + z * z)
    g = sympy.eye(3)
    g[0, 0] = 1 + sympy.Rational(1, 5) * (z / r) / r
    X = [x, y, z]
    ginv = g.inv()
    gam = [[[sum(ginv[a, d] * (sympy.diff(g[d, b], X[c]) + sympy.diff(g[d, c], X[b]) - sympy.diff(g[b, c], X[d])) for d in range(3)) / 2 for c in range(3)] for b in range(3)] for a in range(3)]
    ric = sympy.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            expr = 0
            for k in range(3):
                expr += sympy.diff(gam[k][i][j], X[k]) - sympy.diff(gam[k][k][j], X[i])
                for l in range(3):
                    expr += gam[k][k][l] * gam[l][i][j] - gam[k][i][l] * gam[l][k][j]
            ric[i, j] = expr
    scal = sum(ginv[i, j] * ric[i, j] for i in range(3) for j in range(3))
    pt = {x: 3.0, y: -2.0, z: 5.0}
    mu_exact = float(scal.subs(pt)) / 2.0
    mu, J = constraint_densities(prov, np.array([[3.0, -2.0, 5.0]]))
    assert abs(mu[0] - mu_exact) < 1e-10


def test_mixed_partial_consistency(graphical, sample_points):
    # analytic dg vs central difference at step 1e-4 scaled by r
    jet = graphical.metric_jet(sample_points)
    r = np.linalg.norm(sample_points, axis=1).min()
    fd = fd_metric_derivative(graphical, sample_points, 1e-4 * r)
    assert np.max(np.abs(fd - jet.dg)) < 1e-6


# -- graphical slice against the 4-geometry oracle ----------------------------

def second_fundamental_form_4d_oracle(mass, u, pts):
    """K of the graph t = T(x) via finite-differenced 4-metric Christoffels."""
    m = mass
    u = np.asarray(u, dtype=float)

    def four_metric(x):
        r = np.linalg.norm(x, axis=-1)
        psi = 2 * m / (r**2 * (r - 2 * m))
        g4 = np.zeros(x.shape[:-1] + (4, 4))
        g4[..., 0, 0] = -(1 - 2 * m / r)
        g4[..., 1:, 1:] = np.eye(3) + psi[..., None, None] * x[..., :, None] * x[..., None, :]
        return g4

    def T(x):
        r = np.linalg.norm(x, axis=-1)
        return np.sin(np.log(r)) + (x @ u) / r

    h = 1e-4 * np.linalg.norm(pts, axis=1).min()
    n = pts.shape[0]
    g4 = four_metric(pts)
    dg4 = np.zeros((n, 4, 4, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dg4[..., k] = (four_metric(pts + e) - four_metric(pts - e)) / (2 * h)
    # static metric: time derivatives vanish; spacetime Christoffels
    dg4_full = np.zeros((n, 4, 4, 4))
    dg4_full[..., 1:] = dg4
    ginv4 = np.linalg.inv(g4)
    gam4 = 0.5 * np.einsum(
        "nad,ndbc->nabc",
        ginv4,
        np.einsum("ndcb->ndbc", dg4_full) + dg4_full - np.einsum("nbcd->ndbc", dg4_full),
    )
    dT = np.zeros((n, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dT[:, k] = (T(pts + e) - T(pts - e)) / (2 * h)
    # conormal n = dt - dT, future unit normal eta = -ginv n / |n|
    nvec = np.concatenate([np.ones((n, 1)), -dT], axis=1)
    nn = -np.einsum("nab,na,nb->n", ginv4, nvec, nvec)  # = 1/N^2 - |dT|^2 > 0
    eta = -np.einsum("nab,nb->na", ginv4, nvec) / np.sqrt(nn)[:, None]
    # tangents e_i = d_i + T_,i d_t; K_ij = g4(nabla_{e_i} eta, e_j)
    # FD of eta along chart directions (eta is a field of x only)
    deta = np.zeros((n, 4, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h

        def eta_at(q):
            g4q = four_metric(q)
            ginvq = np.linalg.inv(g4q)
            dTq = np.zeros((n, 3))
            for kk in range(3):
                ee = np.zeros(3)
                ee[kk] = h
                dTq[:, kk] = (T(q + ee) - T(q - ee)) / (2 * h)
            nv = np.concatenate([np.ones((n, 1)), -dTq], axis=1)
            no = -np.einsum("nab,na,nb->n", ginvq, nv, nv)
            return -np.einsum("nab,nb->na", ginvq, nv) / np.sqrt(no)[:, None]

        deta[..., k] = (eta_at(pts + e) - eta_at(pts - e)) / (2 * h)
    tangents = np.zeros((n, 3, 4))
    tangents[:, :, 0] = dT
    for i in range(3):
        tangents[:, i, 1 + i] = 1.0
    K = np.zeros((n, 3, 3))
    for i in range(3):
        for j in range(3):
            # directional derivative of eta along e_i (only spatial part varies)
            de = deta[:, :, i]
            cov = de + np.einsum("nabc,nb,nc->na", gam4, tangents[:, i], eta)
            K[:, i, j] = np.einsum("nab,na,nb->n", g4, cov, tangents[:, j])
    return K


def test_graphical_extrinsic_matches_4d_embedding_oracle(graphical):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(3, 3))
    pts = 25.0 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    K_oracle = second_fundamental_form_4d_oracle(1.0, [1.0, 0.0, 0.0], pts)
    K = graphical.extrinsic_jet(pts).K
    assert np.max(np.abs(K - K_oracle)) < 1e-6


# -- one ambient-geometry pass per point set -------------------------------------

class _FixedJets(DataProvider):
    """One point set's jets, handed out as fresh MetricJets with nothing derived yet.

    The inner jets' second order is formed here, so that the counts of a
    consumer do not include the provider's own work.
    """

    def __init__(self, prov, x):
        self.mj, self.ej = prov.metric_jet(x), prov.extrinsic_jet(x)
        self.mj.ddg, self.ej.dK

    def metric_jet(self, x):
        return MetricJet(self.mj.g, self.mj.dg, lambda: self.mj.ddg)

    def extrinsic_jet(self, x):
        return self.ej


@pytest.fixture
def formations(monkeypatch):
    """Counts formations of each jet's ginv (as `inv`), ddg, dginv, Gam and dK."""
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # a cached_property calls its func once per instance, on the first read
    for cls, name, key in (
        (MetricJet, "ginv", "inv"),
        (MetricJet, "ddg", "ddg"),
        (MetricJet, "dginv", "dginv"),
        (MetricJet, "Gam", "Gam"),
        (ExtrinsicJet, "dK", "dK"),
    ):
        prop = cls.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(key, prop.func))
    return counts


def test_jet_geometry_is_formed_once_and_read_only(graphical, sample_points, formations):
    jet, ext = graphical.metric_jet(sample_points), graphical.extrinsic_jet(sample_points)
    # the first order reads the base slice's closed forms and inverts nothing
    assert formations == Counter()
    for owner, name in ((jet, "ddg"), (jet, "ginv"), (jet, "dginv"), (jet, "Gam"), (ext, "dK")):
        arr = getattr(owner, name)
        assert getattr(owner, name) is arr
        with pytest.raises(ValueError):
            arr[0] += 1.0
    # the slice metric's own geometry; dK forms no base slice jet (see the next tests)
    assert formations == Counter(ddg=1, inv=1, dginv=1, Gam=1, dK=1)
    # once formed, a jet keeps nothing of what formed its second order
    assert jet.second is None and ext.second is None
    assert christoffel(jet) is jet.Gam


def test_constraint_densities_invert_once(graphical, sample_points, formations):
    prov = _FixedJets(graphical, sample_points)
    formations.clear()
    constraint_densities(prov, sample_points)
    assert formations == Counter(ddg=1, inv=1, dginv=1, Gam=1)


def test_graphical_extrinsic_jet_forms_no_base_geometry(graphical, sample_points, formations):
    ext = graphical.extrinsic_jet(sample_points)
    ext.K
    assert formations == Counter()
    # dK differentiates the closed forms: no base slice jet, inverse or Christoffel symbols
    ext.dK
    assert formations == Counter(dK=1)


def _holds_only_the_points(second, points):
    """Assert that a jet's deferred second order holds its form and (a copy of the points, r, True) only."""
    form, *held = second.args
    assert callable(form) and not second.keywords
    assert not any(isinstance(a, (MetricJet, ExtrinsicJet)) for a in held)
    x, r, flag = held
    assert flag is True
    assert x is not points and np.array_equal(x, points)
    assert np.array_equal(r, np.linalg.norm(points, axis=1))


def test_graphical_dk_holds_only_the_points(graphical, sample_points):
    _holds_only_the_points(graphical.extrinsic_jet(sample_points).second, sample_points)


@pytest.mark.parametrize("name", ["schw", "graphical"])
def test_slice_ddg_holds_only_the_points(name, schw, graphical, sample_points):
    prov = {"schw": schw, "graphical": graphical}[name]
    _holds_only_the_points(prov.metric_jet(sample_points).second, sample_points)


def test_first_order_consumers_form_no_second_order(graphical, formations):
    sphere_fluxes(graphical, [50.0, 100.0], 8)
    # per radius one inverse, the slice metric's own (for pi); K reads the closed forms
    assert formations == Counter(inv=2)
    curvature_residual(graphical, GraphSurface.round([0.5, 0.0, 0.0], 30.0, 6), 30.0)
    assert formations["ddg"] == 0 and formations["dK"] == 0


def test_graph_jacobian_reuses_frame_geometry(schw, graphical, formations):
    S = GraphSurface.round([0.5, 0.0, 0.0], 30.0, 6)
    # from the provider call on: the frames read the slice metric's inverse and
    # Gam; a Jacobian adds its ddg and the extrinsic jet's dK, and no dginv:
    # its normal contractions read d g^-1 as -g^-1 dg g^-1
    for prov in (schw, graphical):
        formations.clear()
        fr = surface_frames(prov, S)
        graph_jacobian(fr)
        once = Counter(formations)
        graph_jacobian(fr)
        assert formations == once == Counter(inv=1, Gam=1, ddg=1, dK=1)


# -- wrappers pass the second order through ----------------------------------------

_WRAPPERS = {
    "rotated": lambda inner: RotatedProvider(inner, ROT),
    "translated": lambda inner: TranslatedProvider(inner, [1.0, -2.0, 0.5]),
    "scaled": lambda inner: ScaledExtrinsicProvider(inner, 0.3),
}


def _inner_jets(kind, inner, x):
    """The inner jets a wrapper reads at x, and its map of ddg and of dK."""
    if kind == "rotated":
        return inner.metric_jet(x @ ROT), inner.extrinsic_jet(x @ ROT), _conjugated, _conjugated
    if kind == "translated":
        c = np.array([1.0, -2.0, 0.5])
        return inner.metric_jet(x - c), inner.extrinsic_jet(x - c), lambda ddg: ddg, lambda dK: dK
    return inner.metric_jet(x), inner.extrinsic_jet(x), lambda ddg: ddg, lambda dK: 0.3 * dK


@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_wrappers_defer_the_inner_second_order(kind, graphical, sample_points, formations):
    prov = _WRAPPERS[kind](graphical)
    jet, ext = prov.metric_jet(sample_points), prov.extrinsic_jet(sample_points)
    jet.g, jet.dg, ext.K
    assert formations["ddg"] == 0 and formations["dK"] == 0
    mj, ej, rot_ddg, rot_dK = _inner_jets(kind, graphical, sample_points)
    for a, expected in ((jet.ddg, rot_ddg(mj.ddg)), (ext.dK, rot_dK(ej.dK))):
        if kind == "rotated":  # the rotation sums in double, one index at a time
            assert np.max(np.abs(a - expected)) <= 1e-15 * np.max(np.abs(expected))
        else:
            assert np.array_equal(a, expected)


@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_wrapper_jets_do_not_depend_on_read_order(kind, graphical, sample_points):
    prov = _WRAPPERS[kind](graphical)
    first = prov.metric_jet(sample_points), prov.extrinsic_jet(sample_points)
    second = prov.metric_jet(sample_points), prov.extrinsic_jet(sample_points)
    second_order = second[0].ddg, second[1].dK
    for name in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(first[0], name), getattr(second[0], name))
    assert np.array_equal(first[1].K, second[1].K)
    assert np.array_equal(first[1].dK, second_order[1])


# -- fall-off of the provider jets ---------------------------------------------

def test_decay_euclidean_all_zero(euclid, sample_points):
    for x in (sample_points, -sample_points):
        mj, ej = euclid.metric_jet(x), euclid.extrinsic_jet(x)
        for a in (mj.g - _EYE, mj.dg, mj.ddg, ej.K, ej.dK, *constraint_densities(euclid, x)):
            assert not np.any(a)


def test_decay_schwarzschild(schw, sample_points):
    # g - delta is even and falls off like 1/r along fixed directions
    om = sample_points / np.linalg.norm(sample_points, axis=1)[:, None]
    radii = np.array([20.0, 40.0, 80.0, 160.0])
    sups = []
    for r in radii:
        g, g_minus = schw.metric_jet(r * om).g, schw.metric_jet(-r * om).g
        assert np.max(np.abs(g - g_minus)) < 1e-15
        sups.append(np.max(np.abs(g - _EYE)))
    assert abs(np.polyfit(np.log(radii), np.log(sups), 1)[0] + 1.0) < 0.1


# -- provider configs, validation -----------------------------------------------

def test_build_provider_reads_a_nested_json_config(sample_points):
    text = json.dumps({
        "kind": "rotated",
        "rotation": ROT.tolist(),
        "inner": {
            "kind": "translated",
            "center": [1.0, 2.0, 3.0],
            "inner": {"kind": "schwarzschild_graphical", "mass": 1.0, "u": [1.0, 0.0, 0.0]},
        },
    })
    built = build_provider(json.loads(text))
    composed = RotatedProvider(
        TranslatedProvider(GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]), [1.0, 2.0, 3.0]), ROT
    )
    assert isinstance(built, RotatedProvider) and isinstance(built.inner, TranslatedProvider)
    assert isinstance(built.inner.inner, GraphicalSchwarzschildProvider)
    mb, mc = built.metric_jet(sample_points), composed.metric_jet(sample_points)
    eb, ec = built.extrinsic_jet(sample_points), composed.extrinsic_jet(sample_points)
    for a, b in ((mb.g, mc.g), (mb.dg, mc.dg), (mb.ddg, mc.ddg), (eb.K, ec.K), (eb.dK, ec.dK)):
        assert np.array_equal(a, b)
    # u defaults to (1, 0, 0)
    default_u = build_provider({"kind": "schwarzschild_graphical", "mass": 1.0})
    assert np.array_equal(default_u.u, [1.0, 0.0, 0.0])


MALFORMED_CONFIGS = {
    "no-kind": {},
    "unknown-kind": {"kind": "nonsense"},
    "unknown-key": {"kind": "euclidean", "centre": [1, 2, 3]},
    "unread-key": {"kind": "euclidean", "mass": 5.0},
    "unread-u": {"kind": "schwarzschild_canonical", "mass": 1.0, "u": [1.0, 0.0, 0.0]},
    "kind-list": {"kind": ["euclidean"]},
    "no-mass": {"kind": "schwarzschild_canonical"},
    "mass-string": {"kind": "schwarzschild_canonical", "mass": "abc"},
    "mass-bool": {"kind": "schwarzschild_canonical", "mass": True},
    "mass-list": {"kind": "schwarzschild_canonical", "mass": [1.0]},
    "u-2": {"kind": "schwarzschild_graphical", "mass": 1.0, "u": [1.0, 0.0]},
    "u-nan": {"kind": "schwarzschild_graphical", "mass": 1.0, "u": [1.0, float("nan"), 0.0]},
    "no-inner": {"kind": "translated", "center": [1.0, 2.0, 3.0]},
    "center-2": {"kind": "translated", "center": [1.0, 2.0], "inner": {"kind": "euclidean"}},
    "rotation-2x2": {"kind": "rotated", "rotation": [[1.0, 0.0], [0.0, 1.0]], "inner": {"kind": "euclidean"}},
    "rotation-ragged": {"kind": "rotated", "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0]], "inner": {"kind": "euclidean"}},
    "rotation-not-orthogonal": {"kind": "rotated", "rotation": (2.0 * np.eye(3)).tolist(), "inner": {"kind": "euclidean"}},
    "inner-unknown": {"kind": "rotated", "rotation": np.eye(3).tolist(), "inner": {"kind": "nonsense"}},
    "term-no-j": {"kind": "custom_perturbation", "perturbation_terms": [{"i": 0, "coeff": 1.0, "decay": 1.0}]},
    "term-string": {"kind": "custom_perturbation", "perturbation_terms": ["g"]},
    "term-index-negative": {
        "kind": "custom_perturbation",
        "perturbation_terms": [{"i": -1, "j": 0, "coeff": 1.0, "decay": 1.0}],
    },
    **{
        f"term-{name}": {
            "kind": "custom_perturbation",
            "perturbation_terms": [{"i": 0, "j": 1, "coeff": 1.0, "decay": 1.0, "angular": [0, 0, 1], **change}],
        }
        for name, change in {
            "coeff-nan": {"coeff": float("nan")},
            "decay-nan": {"decay": float("nan")},
            "coeff-string": {"coeff": "1.0"},
            "j-fractional": {"j": 1.7},
            "i-bool": {"i": True},
            "j-3": {"j": 3},
            "angular-negative": {"angular": [0, -1, 1]},
            "angular-4": {"angular": [0, 0, 1, 0]},
            "angular-fractional": {"angular": [0, 0.5, 1]},
            "unknown-key": {"angualr": [1, 0, 0]},
            "unknown-target": {"target": "h"},
        }.items()
    },
    "terms-not-a-list": {"kind": "custom_perturbation", "perturbation_terms": 5},
    "terms-empty-mapping": {"kind": "custom_perturbation", "perturbation_terms": {}},
    "terms-null": {"kind": "custom_perturbation", "perturbation_terms": None},
    "not-a-mapping": [],
}


@pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_build_provider_rejects_malformed_configs(config):
    with pytest.raises(ConfigError):
        build_provider(config)


@pytest.mark.parametrize("mass", [float("nan"), float("inf")])
def test_providers_reject_a_nonfinite_mass(mass):
    with pytest.raises(ConfigError):
        SchwarzschildProvider(mass)
    with pytest.raises(ConfigError):
        GraphicalSchwarzschildProvider(mass, [1.0, 0.0, 0.0])


NAN_ROTATION = np.eye(3)
NAN_ROTATION[0, 0] = np.nan
NOT_FINITE_VECTORS = {
    "graphical-u-nan": (lambda: GraphicalSchwarzschildProvider(1.0, [np.nan, 0.0, 0.0]), "u"),
    "translated-inf": (lambda: TranslatedProvider(EuclideanProvider(), [np.inf, 0.0, 0.0]), "center"),
    "translated-2": (lambda: TranslatedProvider(EuclideanProvider(), [1.0, 2.0]), "center"),
    "rotated-nan": (lambda: RotatedProvider(EuclideanProvider(), NAN_ROTATION), "rotation"),
    "fluxes-center-2": (lambda: sphere_fluxes(EuclideanProvider(), [10.0, 20.0, 40.0], 8, center=(1.0, 2.0)), "center"),
    "surface-nan": (lambda: GraphSurface.round([np.nan, 0.0, 0.0], 10.0, 8), "center"),
    "rebase-nan": (lambda: rebase(GraphSurface.round([0.0, 0.0, 0.0], 10.0, 8), [0.0, np.nan, 0.0]), "center"),
    "shift-2": (lambda: GraphSurface.round([0.0, 0.0, 0.0], 10.0, 8).translated([1.0, 2.0]), "shift"),
    "momentum-2": (lambda: adm_mass(1.0, [0.1, 0.2]), "momentum"),
}


@pytest.mark.parametrize(("make", "what"), NOT_FINITE_VECTORS.values(), ids=NOT_FINITE_VECTORS.keys())
def test_vectors_must_hold_finite_numbers_of_their_shape(make, what):
    with pytest.raises(ConfigError, match=f"^{what} must hold finite numbers of shape"):
        make()


def test_perturbation_terms_are_filed_once_per_component(sample_points):
    """An off-diagonal term is filed under (i, j) and (j, i); a diagonal term is added once."""
    off = {"i": 0, "j": 1, "coeff": 0.3, "decay": 1.5, "angular": [1, 0, 1]}
    diag = {"i": 2, "j": 2, "coeff": 0.4, "decay": 1.0}
    for target, jet in (("g", lambda p: p.metric_jet(sample_points).g), ("K", lambda p: p.extrinsic_jet(sample_points).K)):
        a = jet(PerturbationProvider([{**off, "target": target}]))
        assert np.array_equal(a[:, 0, 1], a[:, 1, 0]) and np.any(a[:, 0, 1])
        b = jet(PerturbationProvider([{**diag, "target": target}]))
        r = np.linalg.norm(sample_points, axis=1)
        assert np.allclose(b[:, 2, 2], (target == "g") + 0.4 / r, rtol=1e-15, atol=0.0)
    metric = PerturbationProvider([off, diag]).metric_jet(sample_points)
    assert np.array_equal(metric.dg[:, 0, 1], metric.dg[:, 1, 0])
    assert np.array_equal(metric.ddg[:, 0, 1], metric.ddg[:, 1, 0])


def test_validation_errors():
    with pytest.raises(ConfigError):
        SchwarzschildProvider(0.0)
    with pytest.raises(ConfigError):
        PerturbationProvider([{"target": "g", "i": 0, "j": 0, "coeff": 1.0, "decay": 0.4}])
    with pytest.raises(NotOrthogonal):
        RotatedProvider(EuclideanProvider(), np.eye(3) + 1e-6)
    with pytest.raises(ConfigError):
        SchwarzschildProvider(1.0).metric_jet(np.array([10.0, 0.0, 0.0]))


SHIFT = np.array([1.0, -2.0, 0.5])
DOMAIN_PROVIDERS = {
    "canonical": (lambda: SchwarzschildProvider(1.0), np.zeros(3)),
    "graphical": (lambda: GraphicalSchwarzschildProvider(1.0, [1.0, 0.0, 0.0]), np.zeros(3)),
    "translated": (lambda: TranslatedProvider(SchwarzschildProvider(1.0), SHIFT), SHIFT),
}
DOMAIN_ERRORS = {
    "horizon": (1.9, HorizonReached, "r <= 2m = 2"),
    "core": (2.05, PointInsideCore, "point with |x| = 2.05 inside core radius 2.1"),
}


@pytest.mark.parametrize(("make", "shift"), DOMAIN_PROVIDERS.values(), ids=DOMAIN_PROVIDERS.keys())
@pytest.mark.parametrize(("radius", "error", "message"), DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS.keys())
@pytest.mark.parametrize("method", ["metric_jet", "extrinsic_jet"])
def test_domain_errors(make, shift, radius, error, message, method):
    """One domain check: each provider of the slice raises the same error for the same point of the data."""
    x = np.array([[radius, 0.0, 0.0], [30.0, 0.0, 0.0]]) + shift
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        getattr(make(), method)(x)


def test_slice_not_spacelike():
    # a steep graph: |dT| ~ |u|/r exceeds 1/N away from the u-axis
    prov = GraphicalSchwarzschildProvider(1.0, [80.0, 0.0, 0.0])
    with pytest.raises(SliceNotSpacelike):
        prov.metric_jet(np.array([[0.0, 30.0, 0.0]]))
