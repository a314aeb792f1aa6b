from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc.chart import (
    DataProvider,
    DataProviderSpec,
    EuclideanProvider,
    GraphicalSchwarzschildProvider,
    MetricJet,
    PerturbationProvider,
    RotatedProvider,
    SchwarzschildProvider,
    TranslatedProvider,
    build_provider,
    christoffel,
    conjugate_momentum,
    constraint_densities,
    as_provider,
    decay_check,
    ricci_scalar_curvature,
)
from stcmc.errors import (
    ConfigError,
    HorizonReached,
    NotOrthogonal,
    PointInsideCore,
    SingularMetric,
    SliceNotSpacelike,
)
from stcmc.solver import graph_jacobian
from stcmc.surfaces import GraphSurface, surface_frames

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
    for arr in (jet.dg, jet.ddg, ext.K, ext.dK):
        with pytest.raises(ValueError):
            arr[0] += 1.0


def test_christoffel_zero_metric_raises():
    jet = MetricJet(np.zeros((2, 3, 3)), np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3, 3)))
    with pytest.raises(SingularMetric):
        christoffel(jet)


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


def test_rotated_extrinsic_is_conjugated(graphical, sample_points):
    prov = RotatedProvider(graphical, ROT)
    a = prov.extrinsic_jet(sample_points)
    inner = graphical.extrinsic_jet(sample_points @ ROT)
    expected = np.einsum("ia,jb,nab->nij", ROT, ROT, inner.K)
    assert np.max(np.abs(a.K - expected)) < 1e-15


# -- jets against finite differences ------------------------------------------

@pytest.mark.parametrize("name", ["schw", "graphical", "perturbed"])
def test_first_derivatives_match_finite_differences(name, schw, graphical, sample_points):
    prov = {
        "schw": schw,
        "graphical": graphical,
        "perturbed": PerturbationProvider(
            [
                {"target": "g", "i": 0, "j": 1, "coeff": 0.3, "decay": 1.0, "angular": [1, 0, 1]},
                {"target": "K", "i": 2, "j": 2, "coeff": 0.1, "decay": 2.0, "angular": [0, 1, 0]},
            ]
        ),
    }[name]
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


def test_second_derivatives_match_finite_differences(graphical, sample_points):
    jet = graphical.metric_jet(sample_points)
    h = 1e-4 * np.linalg.norm(sample_points, axis=1).min()
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (graphical.metric_jet(sample_points + e).dg - graphical.metric_jet(sample_points - e).dg) / (2 * h)
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
    ginv = np.linalg.inv(g)
    trK = np.einsum("nij,nij->n", ginv, K)
    assert np.max(np.abs(conjugate_momentum(jet, K) - (trK[:, None, None] * g - K))) == 0.0
    # trace identity: tr pi = 2 tr K
    trpi = np.einsum("nij,nij->n", ginv, conjugate_momentum(jet, K))
    assert np.max(np.abs(trpi - 2 * trK)) < 1e-13


def test_constraints_euclidean(euclid, sample_points):
    mu, J = constraint_densities(euclid, sample_points)
    assert np.max(np.abs(mu)) == 0.0 and np.max(np.abs(J)) == 0.0


def test_constraints_vacuum_graphical(graphical):
    from stcmc.surfaces import get_grid

    x = 20.0 * get_grid(16).unit_vectors()["o"]
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
    """One point set's jets, handed out as fresh MetricJets with nothing derived yet."""

    def __init__(self, prov, x):
        self.mj, self.ej = prov.metric_jet(x), prov.extrinsic_jet(x)

    def metric_jet(self, x):
        return MetricJet(self.mj.g, self.mj.dg, self.mj.ddg)

    def extrinsic_jet(self, x):
        return self.ej


@pytest.fixture
def formations(monkeypatch):
    """Counts metric inversions and formations of each jet's dginv and Gam."""
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    # a cached_property calls its func once per instance, on the first read
    for name in ("dginv", "Gam"):
        prop = MetricJet.__dict__[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    return counts


def test_jet_geometry_is_formed_once_and_read_only(graphical, sample_points, formations):
    jet = graphical.metric_jet(sample_points)
    formations.clear()
    for name in ("ginv", "dginv", "Gam"):
        arr = getattr(jet, name)
        assert getattr(jet, name) is arr
        with pytest.raises(ValueError):
            arr[0] += 1.0
    assert formations == Counter(inv=1, dginv=1, Gam=1)
    assert christoffel(jet) is jet.Gam


def test_constraint_densities_invert_once(graphical, sample_points, formations):
    prov = _FixedJets(graphical, sample_points)
    formations.clear()
    constraint_densities(prov, sample_points)
    assert formations == Counter(inv=1, dginv=1, Gam=1)


def test_graphical_extrinsic_jet_forms_base_geometry_once(graphical, sample_points, formations):
    graphical.extrinsic_jet(sample_points)
    assert formations == Counter(inv=1, dginv=1, Gam=1)


def test_graph_jacobian_reuses_frame_geometry(graphical, formations):
    S = GraphSurface.round([0.5, 0.0, 0.0], 30.0, 6)
    fr = surface_frames(graphical, S)
    formations.clear()
    graph_jacobian(graphical, S, frames=fr)
    assert formations["inv"] == 0 and formations["Gam"] == 0


# -- decay diagnostics ---------------------------------------------------------

def test_decay_euclidean_all_zero(euclid):
    rep = decay_check(euclid, [10.0, 20.0, 40.0], 0.5, lmax=8)
    assert np.max(rep.ratio_metric) == 0.0
    assert np.max(rep.ratio_extrinsic) == 0.0
    assert np.max(rep.ratio_constraints) == 0.0


def test_decay_schwarzschild(schw):
    rep = decay_check(schw, [20.0, 40.0, 80.0, 160.0], 0.5, lmax=8)
    assert np.all(np.isfinite(rep.ratio_metric))
    assert rep.ratio_metric.max() < 20.0  # bounded sup ratios
    assert abs(rep.fitted_exponents["g_minus_delta"] - 1.0) < 0.1
    assert rep.sup_g_odd.max() < 1e-15  # even metric


def test_decay_requires_increasing_radii(schw):
    with pytest.raises(ConfigError):
        decay_check(schw, [40.0, 20.0], 0.5)


# -- specs, serialization, validation -------------------------------------------

def test_spec_round_trip():
    spec = DataProviderSpec(
        kind="rotated",
        rotation=tuple(tuple(row) for row in ROT),
        inner=DataProviderSpec(
            kind="translated",
            center=(1.0, 2.0, 3.0),
            inner=DataProviderSpec(kind="schwarzschild_graphical", mass=1.0, u=(1.0, 0.0, 0.0)),
        ),
    )
    text = spec.to_json()
    back = DataProviderSpec.from_json(text)
    assert back == spec
    build_provider(back)


def test_evaluate_helpers_accept_specs():
    spec = DataProviderSpec(kind="schwarzschild_canonical", mass=1.0)
    jet = as_provider(spec).metric_jet(np.array([[10.0, 0.0, 0.0]]))
    assert abs(jet.g[0, 0, 0] - 1.25) < 1e-14
    ext = as_provider(spec).extrinsic_jet(np.array([[10.0, 0.0, 0.0]]))
    assert not ext.K[0].any()


def test_validation_errors():
    with pytest.raises(ConfigError):
        build_provider(DataProviderSpec(kind="nonsense"))
    with pytest.raises(ConfigError):
        DataProviderSpec.from_dict({"kind": "nonsense"})
    with pytest.raises(ConfigError):
        SchwarzschildProvider(0.0)
    with pytest.raises(ConfigError):
        PerturbationProvider([{"target": "g", "i": 0, "j": 0, "coeff": 1.0, "decay": 0.4}])
    with pytest.raises(NotOrthogonal):
        RotatedProvider(EuclideanProvider(), np.eye(3) + 1e-6)
    with pytest.raises(PointInsideCore):
        SchwarzschildProvider(1.0).metric_jet(np.array([[2.05, 0.0, 0.0]]))
    with pytest.raises(HorizonReached):
        SchwarzschildProvider(1.0).metric_jet(np.array([[1.9, 0.0, 0.0]]))
    with pytest.raises(ConfigError):
        SchwarzschildProvider(1.0).metric_jet(np.array([10.0, 0.0, 0.0]))


def test_slice_not_spacelike():
    # a steep graph: |dT| ~ |u|/r exceeds 1/N away from the u-axis
    prov = GraphicalSchwarzschildProvider(1.0, [80.0, 0.0, 0.0])
    with pytest.raises(SliceNotSpacelike):
        prov.metric_jet(np.array([[0.0, 30.0, 0.0]]))
