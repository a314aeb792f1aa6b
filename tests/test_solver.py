import numpy as np
import pytest

from stcmc.chart import (
    EuclideanProvider,
    GraphicalSchwarzschildProvider,
    PerturbationProvider,
    RotatedProvider,
    SchwarzschildProvider,
)
import stcmc.solver as sv
from stcmc.errors import (
    ConfigError,
    ContinuationStalled,
    DegenerateInducedMetric,
    EigenSolverFailure,
    MaxIterations,
    NewtonDiverged,
    TrappedRegion,
)
from stcmc.solver import (
    OPERATOR_TAGS,
    RCOND,
    ScaledExtrinsicProvider,
    SolveConfig,
    assemble_linearization,
    center_variation_check,
    continuation_in_tau,
    curvature_residual,
    foliate,
    graph_jacobian,
    laplace_spectrum,
    newton_solve,
    operator_bound_check,
    uniqueness_cross_check,
)
from stcmc.spectral import coeff_index, n_coeffs, truncate_coeffs
from stcmc.surfaces import GraphSurface, apriori_class_check, embedding_nodes, surface_frames

R_STAR_SIGMA20 = 18.912985478471837  # largest root of r^3 - 400 r + 800 (np.roots oracle)


@pytest.fixture(scope="module")
def schw_leaf20(schw):
    return newton_solve(
        schw, 20.0, GraphSurface.round([0, 0, 0], 20.0, 8), SolveConfig(lmax=8, tol=1e-11)
    )


@pytest.fixture(scope="module")
def graphical_leaf60(graphical):
    return newton_solve(
        graphical, 60.0, GraphSurface.round([0, 0, 0], 60.0, 10), SolveConfig(lmax=10, tol=1e-11)
    )


def random_surface(rng, lmax=8, r0=10.0, amp=0.1, center=(0.0, 0.0, 0.0)):
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(lmax + 1)])
    coeffs = amp * rng.normal(size=n_coeffs(lmax)) * np.exp(-0.5 * ls)
    return GraphSurface(np.asarray(center, dtype=float), r0, coeffs, lmax)


# -- operator assembly ----------------------------------------------------------

def test_operator_on_constants_flat(euclid):
    S = GraphSurface.round([0, 0, 0], 5.0, 8)
    L = assemble_linearization(euclid, S, "L_H")
    e0 = np.zeros(L.shape[0])
    e0[0] = 1.0
    act = L @ e0
    assert abs(act[0] + 2.0 / 25.0) < 1e-13
    assert np.max(np.abs(act[1:])) < 1e-13


def test_operators_coincide_without_extrinsic_curvature(schw):
    rng = np.random.default_rng(0)
    S = random_surface(rng, r0=12.0, amp=0.1)
    fr = surface_frames(schw, S)
    mats = {
        tag: assemble_linearization(schw, S, tag, frames=fr)
        for tag in ("L_H", "L_script", "expansion_plus", "expansion_minus")
    }
    for tag in ("L_script", "expansion_plus", "expansion_minus"):
        assert np.max(np.abs(mats[tag] - mats["L_H"])) < 1e-12
    # and they all equal the classical stability operator -Lap - |A|^2 - Ric
    lap = assemble_linearization(schw, S, "laplacian", frames=fr)
    fields = sv._OperatorFields(fr)
    grid = fr.grid
    nb = n_coeffs(S.lmax)
    U = grid.base_basis(S.lmax)[0].T
    pot = grid.analyze(((fields.A2 + fields.ricnn)[:, None] * U.T).T)[:, :nb]
    classical = lap - pot.T
    assert np.max(np.abs(mats["L_H"] - classical)) < 1e-12


def _product_rule_reference(fr, lmax):
    """Every operator tag and the graph Jacobian, assembled term by term.

    The operators act on the synth_jet of identity coefficient rows; the
    Jacobian takes the jets of c v by the product rule; each nodal action is
    analysed onto the full grid band and truncated.
    """
    grid = fr.grid
    f = sv._OperatorFields(fr)
    B = {key: jet.T for key, jet in grid.synth_jet(np.eye(n_coeffs(lmax), grid.nbasis)).items()}

    def apply(tag, U):
        gi = f.g2inv
        lap = (
            gi[:, 0, 0, None] * U["ftt"]
            + 2.0 * gi[:, 0, 1, None] * U["ftp"]
            + gi[:, 1, 1, None] * U["fpp"]
            - f.cgam[:, 0, None] * U["ft"]
            - f.cgam[:, 1, None] * U["fp"]
        )
        if tag == "laplacian":
            return -lap
        core = -lap - (f.A2 + f.ricnn)[:, None] * U["f"]
        kterm = f.kscal[:, None] * U["f"] + 2.0 * (f.kv[:, 0, None] * U["ft"] + f.kv[:, 1, None] * U["fp"])
        return {
            "L_H": lambda: (f.H[:, None] * core - f.P[:, None] * kterm) / f.stcmc[:, None],
            "L_script": lambda: core - (f.P / f.H)[:, None] * kterm,
            "expansion_plus": lambda: core + kterm,
            "expansion_minus": lambda: core - kterm,
        }[tag]()

    def project(out):
        return truncate_coeffs(grid.analyze(out.T), lmax).T

    mats = {tag: project(apply(tag, B)) for tag in OPERATOR_TAGS}
    g = fr.metric_jet.g
    c = np.einsum("ni,nij,nj->n", fr.omega, g, fr.nu)
    cj = {key: val[:, None] for key, val in grid.synth_jet(grid.analyze(c)).items()}
    c = c[:, None]
    U = {
        "f": c * B["f"],
        "ft": cj["ft"] * B["f"] + c * B["ft"],
        "fp": cj["fp"] * B["f"] + c * B["fp"],
        "ftt": cj["ftt"] * B["f"] + 2.0 * cj["ft"] * B["ft"] + c * B["ftt"],
        "ftp": cj["ftp"] * B["f"] + cj["ft"] * B["fp"] + cj["fp"] * B["ft"] + c * B["ftp"],
        "fpp": cj["fpp"] * B["f"] + 2.0 * cj["fp"] * B["fp"] + c * B["fpp"],
    }
    hjet = grid.synth_jet(grid.analyze(fr.stcmc))
    gom = np.einsum("ni,nij,naj->na", fr.omega, g, np.stack(fr.tangents, axis=1))
    tfield = np.einsum("nab,na->nb", fr.g2inv, gom)
    transport = tfield[:, 0] * hjet["ft"] + tfield[:, 1] * hjet["fp"]
    mats["jacobian"] = project(apply("L_H", U) + transport[:, None] * B["f"])
    return mats


@pytest.mark.parametrize("lmax", [8, 24])
@pytest.mark.parametrize("case", ["schw", "graphical", "perturbed"])
def test_fused_assembly_matches_product_rule(case, lmax, schw, graphical):
    prov = {
        "schw": schw,
        "graphical": graphical,
        "perturbed": PerturbationProvider(
            [
                {"target": "K", "i": 0, "j": 1, "coeff": 0.3, "decay": 1.5, "angular": (1, 0, 0)},
                {"target": "K", "i": 2, "j": 2, "coeff": 0.2, "decay": 1.0},
                {"target": "g", "i": 1, "j": 2, "coeff": 0.2, "decay": 1.0, "angular": (0, 0, 1)},
            ]
        ),
    }[case]
    rng = np.random.default_rng(lmax)
    S = random_surface(rng, lmax=lmax, r0=12.0, amp=0.05, center=(0.3, -0.2, 0.1))
    fr = surface_frames(prov, S)
    if case == "perturbed":
        assert np.max(np.abs(fr.P)) > 1e-3  # the K couplings are exercised
    ref = _product_rule_reference(fr, lmax)
    got = {tag: assemble_linearization(prov, S, tag, frames=fr) for tag in OPERATOR_TAGS}
    got["jacobian"] = graph_jacobian(prov, S, frames=fr)
    for key, mat in got.items():
        assert mat.shape == (n_coeffs(lmax), n_coeffs(lmax))
        assert np.max(np.abs(mat - ref[key])) <= 1e-13 * np.max(np.abs(ref[key])), key


def _induced_christoffel_reference(fr, surface):
    """g2inv^{ab} GammaS^g_ab from d_g g2_ab, differentiated through the ambient dg."""
    _, _, (Xtt, Xtp, Xpp), _, _ = embedding_nodes(surface, fr.grid)
    sec = np.stack([np.stack([Xtt, Xtp], axis=1), np.stack([Xtp, Xpp], axis=1)], axis=1)
    tang = np.stack(fr.tangents, axis=1)
    g, dg = fr.metric_jet.g, fr.metric_jet.dg
    dg2 = (
        np.einsum("nijk,ngk,nai,nbj->ngab", dg, tang, tang, tang)
        + np.einsum("nij,ngai,nbj->ngab", g, sec.transpose(0, 2, 1, 3), tang)
        + np.einsum("nij,nai,ngbj->ngab", g, tang, sec.transpose(0, 2, 1, 3))
    )
    gamS = 0.5 * np.einsum(
        "ngd,nadb->ngab",
        fr.g2inv,
        dg2 + dg2.transpose(0, 3, 2, 1) - dg2.transpose(0, 2, 1, 3),
    )
    return np.einsum("nab,ngab->ng", fr.g2inv, gamS)


@pytest.mark.parametrize("lmax", [8, 24])
def test_gauss_formula_induced_christoffels(graphical, lmax):
    rng = np.random.default_rng(lmax)
    S = random_surface(rng, lmax=lmax, r0=30.0, amp=0.3, center=(0.5, -0.2, 0.1))
    fr = surface_frames(graphical, S)
    ref = _induced_christoffel_reference(fr, S)
    cgam = sv._OperatorFields(fr).cgam
    assert np.max(np.abs(cgam - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_unknown_tag_raises(euclid):
    with pytest.raises(ConfigError):
        assemble_linearization(euclid, GraphSurface.round([0, 0, 0], 5.0, 8), "bogus")
    assert "L_H" in OPERATOR_TAGS


@pytest.mark.parametrize("case", ["euclid", "schw", "graphical"])
def test_linearization_matches_finite_differences(case, euclid, schw, graphical):
    prov = {"euclid": euclid, "schw": schw, "graphical": graphical}[case]
    r0 = {"euclid": 10.0, "schw": 12.0, "graphical": 30.0}[case]
    rng = np.random.default_rng(hash(case) % 2**32)
    S = random_surface(rng, lmax=8, r0=r0, amp=0.05)
    sigma = r0
    _, _, fr = curvature_residual(prov, S, sigma)
    J = graph_jacobian(prov, S, frames=fr)
    h = 1e-5
    for _ in range(4):
        v = rng.normal(size=n_coeffs(8))
        v /= np.linalg.norm(v)
        Sp = GraphSurface(S.center, S.r0, S.coeffs + h * v, 8)
        Sm = GraphSurface(S.center, S.r0, S.coeffs - h * v, 8)
        _, pp, _ = curvature_residual(prov, Sp, sigma)
        _, pm, _ = curvature_residual(prov, Sm, sigma)
        fd = (pp - pm) / (2 * h)
        assert np.linalg.norm(J @ v - fd) / np.linalg.norm(fd) < 1e-5


def test_trapped_region_in_assembly():
    terms = [{"target": "K", "i": i, "j": i, "coeff": 2.0, "decay": 0.5} for i in range(3)]
    prov = PerturbationProvider(terms)
    with pytest.raises(TrappedRegion):
        assemble_linearization(prov, GraphSurface.round([0, 0, 0], 50.0, 8), "L_H")


# -- Newton solves ---------------------------------------------------------------

def test_newton_flat_sphere(euclid):
    res = newton_solve(euclid, 10.0, GraphSurface.round([0, 0, 0], 9.0, 8), SolveConfig(lmax=8, tol=1e-12))
    assert res.residual_sup < 1e-12
    rho = res.surface.r0 + res.surface.coeffs[0] / np.sqrt(4 * np.pi)
    assert abs(rho - 10.0) < 1e-10
    assert np.linalg.norm(res.surface.center) < 1e-10
    assert np.max(np.abs(res.surface.coeffs[1:])) < 1e-10


def test_newton_damps_degenerate_step(euclid):
    # from r0 = 25 at sigma = 10 the full step R -> 2R - R^2/sigma is negative:
    # the first trial graph reaches the base center and must be damped
    seed = GraphSurface.round([0, 0, 0], 25.0, 8)
    _, proj, fr = curvature_residual(euclid, seed, 10.0)
    step = np.linalg.lstsq(graph_jacobian(euclid, seed, frames=fr), -proj, rcond=1e-13)[0]
    with pytest.raises(DegenerateInducedMetric):
        surface_frames(euclid, GraphSurface(seed.center, seed.r0, seed.coeffs + step, seed.lmax))
    res = newton_solve(euclid, 10.0, seed)
    rho = res.surface.r0 + res.surface.coeffs[0] / np.sqrt(4 * np.pi)
    assert res.residual_sup <= 1e-10
    assert abs(rho - 10.0) < 1e-9


def test_newton_schwarzschild_cubic(schw_leaf20):
    res = schw_leaf20
    rho = res.surface.r0 + res.surface.coeffs[0] / np.sqrt(4 * np.pi)
    assert abs(rho - R_STAR_SIGMA20) < 1e-8
    assert res.residual_sup <= 1e-10
    assert res.iterations <= 8
    # spherical-symmetry exactness: no angular content
    assert np.max(np.abs(res.surface.coeffs[1:])) < 1e-9 * res.surface.r0


def test_newton_quadratic_tail(graphical):
    # seed far enough that several iterations happen; once below 1e-4 the
    # residual should contract at least quadratically up to a stable constant
    seed = GraphSurface.round([1.0, 0.5, 0.0], 55.0, 10)
    res = newton_solve(graphical, 60.0, seed, SolveConfig(lmax=10, tol=1e-12))
    hist = res.history
    tail = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-4 and b > 0]
    assert tail, "no contraction data below 1e-4"
    consts = [b / a**2 for a, b in tail]
    assert all(c < 1e4 for c in consts)


def test_newton_graphical_leaf_in_apriori_class(graphical, graphical_leaf60):
    chk = apriori_class_check(graphical, graphical_leaf60.surface, 0.0, 10.0, 0.25, 0.5)
    assert chk.all_ok


def test_newton_step_lu_matches_lstsq(schw, euclid):
    S = random_surface(np.random.default_rng(5), r0=12.0, amp=0.05)
    _, proj, fr = curvature_residual(schw, S, 12.0)
    J = graph_jacobian(schw, S, frames=fr)
    step, rcond = sv._newton_step(J, -proj)
    ref = np.linalg.lstsq(J, -proj, rcond=RCOND)[0]
    assert rcond > RCOND
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)
    # zero energy: flat data from r0 = 25 towards sigma = 10 takes the lstsq fallback
    seed = GraphSurface.round([0, 0, 0], 25.0, 8)
    _, proj, fr = curvature_residual(euclid, seed, 10.0)
    J = graph_jacobian(euclid, seed, frames=fr)
    step, rcond = sv._newton_step(J, -proj)
    assert rcond <= RCOND
    assert np.array_equal(step, np.linalg.lstsq(J, -proj, rcond=RCOND)[0])


def test_newton_diverges_with_flipped_jacobian(schw, monkeypatch):
    jacobian = sv.graph_jacobian
    monkeypatch.setattr(sv, "graph_jacobian", lambda *args, **kw: -jacobian(*args, **kw))
    with pytest.raises(NewtonDiverged, match=r"sigma 20, iteration 0: residual sup stuck at \d"):
        newton_solve(schw, 20.0, GraphSurface.round([0, 0, 0], 18.0, 8), SolveConfig(lmax=8))


def test_newton_max_iterations(euclid):
    with pytest.raises(MaxIterations, match=r"sigma 10, iteration 1: .*residual sup \d"):
        newton_solve(
            euclid,
            10.0,
            GraphSurface.round([0, 0, 0], 5.0, 8),
            SolveConfig(lmax=8, tol=1e-15, max_iter=1),
        )


def test_solve_config_validation():
    with pytest.raises(ConfigError):
        SolveConfig(tol=-1.0)


# -- continuation ------------------------------------------------------------------

def test_continuation_tau_zero_is_riemannian_leaf(graphical):
    steps = continuation_in_tau(
        graphical, 60.0, GraphSurface.round([0, 0, 0], 60.0, 8), SolveConfig(lmax=8, tol=1e-10), steps=2
    )
    assert steps[0].tau == 0.0
    # tau = 0 solves in the K = 0 data: re-solve directly and compare
    direct = newton_solve(
        ScaledExtrinsicProvider(graphical, 0.0),
        60.0,
        GraphSurface.round([0, 0, 0], 60.0, 8),
        SolveConfig(lmax=8, tol=1e-10),
    )
    d = np.abs(steps[0].result.surface.coeffs - direct.surface.coeffs)
    assert np.max(d) < 1e-9
    assert steps[-1].tau == pytest.approx(1.0)


def test_continuation_k_zero_leaves_identical(schw):
    steps = continuation_in_tau(
        schw, 20.0, GraphSurface.round([0, 0, 0], 20.0, 8), SolveConfig(lmax=8, tol=1e-11), steps=2
    )
    base = steps[0].result.surface.coeffs
    for st in steps[1:]:
        assert np.max(np.abs(st.result.surface.coeffs - base)) < 1e-12
        assert st.lapse_sup < 1e-12


def test_continuation_lapse_magnitudes(graphical):
    steps = continuation_in_tau(
        graphical, 60.0, GraphSurface.round([0, 0, 0], 60.0, 8), SolveConfig(lmax=8, tol=1e-10), steps=4
    )
    centers = np.array([st.result.surface.center for st in steps])
    # the center moves continuously from the Riemannian leaf toward the origin
    assert np.all(np.isfinite(centers))
    assert max(st.lapse_l2 for st in steps) < 1e3  # finite, moderate norm
    assert steps[-1].lapse_l2 > 0


def test_continuation_stalls_when_every_step_fails(euclid, monkeypatch):
    # the tau = 0 solve succeeds; every solve at tau > 0 fails
    taus = []

    def failing_solve(prov, sigma, initial, config=None):
        taus.append(prov.tau)
        if prov.tau == 0.0:
            return sv.SolveResult(initial, 0, 0.0, 0.0)
        raise NewtonDiverged("injected")

    monkeypatch.setattr(sv, "newton_solve", failing_solve)
    monkeypatch.setattr(sv, "_continuation_record", lambda *args: None)
    with pytest.raises(ContinuationStalled, match="tau = 0.0000"):
        continuation_in_tau(euclid, 10.0, GraphSurface.round([0, 0, 0], 10.0, 8), SolveConfig(lmax=8))
    assert taus == [0.0] + [2.0**-k for k in range(3, 9)]


# -- foliations ---------------------------------------------------------------------

def test_foliation_flat(euclid):
    fol = foliate(euclid, [5.0, 10.0, 20.0], SolveConfig(lmax=8, tol=1e-12), spectra=False)
    for leaf in fol:
        assert abs(leaf.area_radius - leaf.sigma) < 1e-10
        assert np.linalg.norm(leaf.center) < 1e-10
    assert all(leaf.lapse_positive for leaf in fol)
    # lapse of the flat foliation is 1: the normal gap equals d sigma
    assert abs(fol[1].min_normal_gap - 1.0) < 1e-9


def test_foliation_schwarzschild(schw):
    fol = foliate(schw, [20.0, 40.0, 80.0], SolveConfig(lmax=8, tol=1e-11))
    for leaf in fol:
        assert abs(leaf.hawking_mass - 1.0) < 1e-9
        assert leaf.lambda4 > 5.0 / leaf.sigma**2
        assert leaf.residual_sup <= 1e-11
    assert all(leaf.lapse_positive for leaf in fol)
    radii = [leaf.area_radius for leaf in fol]
    assert radii == sorted(radii)


def test_foliation_requires_increasing_sigma(euclid):
    with pytest.raises(ConfigError):
        foliate(euclid, [10.0, 10.0], SolveConfig(lmax=8))


# -- spectra -----------------------------------------------------------------------

def test_spectrum_round_sphere(euclid):
    rep = laplace_spectrum(euclid, GraphSurface.round([0, 0, 0], 3.0, 8), k=8)
    lam = rep.eigenvalues
    assert abs(lam[0]) < 1e-12
    assert np.max(np.abs(lam[1:4] - 2.0 / 9.0)) < 1e-12
    assert np.max(np.abs(lam[4:9] - 6.0 / 9.0)) < 1e-11
    assert np.all(np.diff(lam) > -1e-12)


def test_spectrum_alignment_and_projection(schw_leaf20, schw):
    rep = laplace_spectrum(schw, schw_leaf20.surface, k=8)
    # projections of the aligned modes onto the scaled coordinate functions
    # form a near-orthogonal matrix
    gram = rep.projections @ rep.projections.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-2


def test_spectrum_eigenvalue_law_on_leaves(schw):
    rel_prev = None
    for sigma in (40.0, 80.0):
        res = newton_solve(schw, sigma, GraphSurface.round([0, 0, 0], sigma, 8), SolveConfig(lmax=8, tol=1e-11))
        rep = laplace_spectrum(schw, res.surface, k=8)
        rel = np.max(np.abs(rep.eigenvalues[1:4] - rep.predicted_lambda) / rep.eigenvalues[1:4])
        # mass-plus-curvature prediction is accurate to the next order
        assert rel < 10.0 / sigma**1.0 * 0.1
        if rel_prev is not None:
            assert rel < rel_prev
        rel_prev = rel


def test_eigensolver_failure_is_reported(euclid, monkeypatch):
    import scipy.linalg

    def broken_eigh(*args, **kw):
        raise scipy.linalg.LinAlgError("injected")

    monkeypatch.setattr(scipy.linalg, "eigh", broken_eigh)
    with pytest.raises(EigenSolverFailure, match="injected"):
        laplace_spectrum(euclid, GraphSurface.round([0, 0, 0], 5.0, 8))


def test_operator_bound_schwarzschild(schw, schw_leaf20):
    smin, bound, ratio = operator_bound_check(schw, schw_leaf20.surface)
    assert ratio >= 1.0
    # exact translational eigenvalue of the rescaled operator on the leaf
    r = R_STAR_SIGMA20
    expected = 2.0 / r**2 - 2.0 / 400.0 + 2.0 / r**3
    assert abs(smin - expected) < 1e-8


def test_operator_bound_flat_degenerates(euclid):
    smin, bound, ratio = operator_bound_check(euclid, GraphSurface.round([0, 0, 0], 10.0, 8))
    assert bound < 1e-12
    assert smin < 1e-10  # translation near-kernel


def test_operator_selfadjoint_when_time_symmetric(schw, schw_leaf20):
    from stcmc.solver import _stiffness_mass

    S = schw_leaf20.surface
    fr = surface_frames(schw, S)
    L = assemble_linearization(schw, S, "L_script", frames=fr)
    _, M, _ = _stiffness_mass(fr, S.lmax)
    # weighted operator is symmetric; sigma_min equals the smallest |eigenvalue|
    R = np.linalg.cholesky(0.5 * (M + M.T)).T
    W = R @ L @ np.linalg.inv(R)
    assert np.max(np.abs(W - W.T)) < 1e-10
    eig = np.linalg.eigvalsh(0.5 * (W + W.T))
    smin = np.linalg.svd(W, compute_uv=False).min()
    assert abs(smin - np.min(np.abs(eig))) < 1e-10


# -- center variation and uniqueness ------------------------------------------------

def test_center_variation_symmetric_speed(euclid):
    u = np.zeros(n_coeffs(8))
    u[0] = 1.0
    fd, formula, disc = center_variation_check(euclid, GraphSurface.round([0, 0, 0], 5.0, 8), u)
    assert np.max(np.abs(fd)) < 1e-9
    assert np.max(np.abs(formula)) < 1e-14


def test_center_variation_translation_speed(euclid):
    u = np.zeros(n_coeffs(8))
    u[coeff_index(1, 1)] = np.sqrt(4 * np.pi / 3)  # u = x/r
    fd, formula, disc = center_variation_check(euclid, GraphSurface.round([0, 0, 0], 5.0, 8), u)
    assert np.max(np.abs(formula - np.array([1.0, 0.0, 0.0]))) < 1e-13
    assert disc < 1e-6


def test_center_variation_bound_on_leaf(schw, schw_leaf20):
    rng = np.random.default_rng(3)
    u = rng.normal(size=n_coeffs(8)) * np.exp(-0.5 * np.arange(n_coeffs(8)))
    fd, formula, disc = center_variation_check(schw, schw_leaf20.surface, u)
    fr = surface_frames(schw, schw_leaf20.surface)
    unodal = fr.grid.synthesize(np.concatenate([u, np.zeros(fr.grid.nbasis - u.size)]))
    l2 = np.sqrt(fr.integrate(unodal**2))
    sigma = 20.0
    assert disc <= 10.0 * sigma ** (-1.5 - 0.5) * l2


def test_uniqueness_flat(euclid):
    seeds = [GraphSurface.round([0, 0, 0], r0, 8) for r0 in (8.0, 10.0, 12.0)]
    dist, _ = uniqueness_cross_check(euclid, 10.0, seeds, SolveConfig(lmax=8, tol=1e-12))
    assert dist < 1e-9


def test_uniqueness_perturbed_seeds(schw):
    rng = np.random.default_rng(5)
    seeds = []
    for _ in range(2):
        c = np.zeros(n_coeffs(8))
        c[1 : n_coeffs(2)] = 0.05 * 20.0 * rng.uniform(-1, 1, n_coeffs(2) - 1) / np.sqrt(4 * np.pi)
        seeds.append(GraphSurface([0, 0, 0], 20.0, c, 8))
    dist, _ = uniqueness_cross_check(schw, 20.0, seeds, SolveConfig(lmax=8, tol=1e-12))
    assert dist < 1e-8


def test_rotation_equivariance_of_leaf(graphical, graphical_leaf60):
    th = 0.9
    O = np.array([[np.cos(th), 0.0, np.sin(th)], [0.0, 1.0, 0.0], [-np.sin(th), 0.0, np.cos(th)]])
    rot = newton_solve(
        RotatedProvider(graphical, O),
        60.0,
        GraphSurface.round([0, 0, 0], 60.0, 10),
        SolveConfig(lmax=10, tol=1e-11),
    )
    assert np.max(np.abs(rot.surface.center - O @ graphical_leaf60.surface.center)) < 1e-9


def test_eigenvalue_ordering_invariant(graphical, graphical_leaf60):
    rep = laplace_spectrum(graphical, graphical_leaf60.surface, k=8)
    lam = rep.eigenvalues
    assert abs(lam[0]) < 1e-10
    assert lam[1] <= lam[2] <= lam[3] < lam[4]
    assert lam[4] > 5.0 / 60.0**2
