import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from stcmc.chart import PerturbationProvider, RotatedProvider
import stcmc.solver as sv
import stcmc.surfaces as surfaces
from stcmc.errors import (
    ConfigError,
    DegenerateInducedMetric,
    EigenSolverFailure,
    MaxIterations,
    NewtonDiverged,
    TrappedRegion,
)
from stcmc.solver import (
    RCOND,
    SolveConfig,
    SolveResult,
    assemble_linearization,
    curvature_residual,
    foliate,
    graph_jacobian,
    laplace_spectrum,
    newton_solve,
    uniqueness_cross_check,
)
from stcmc.spectral import coeff_index, lm_arrays, n_coeffs, pad_coeffs, real_sph_basis, truncate_coeffs
from stcmc.surfaces import GraphSurface, _embedding, surface_frames

from conftest import ScaledExtrinsicProvider, apriori_class_check, parametrized_area_and_center

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
    L = assemble_linearization(surface_frames(euclid, S), "L_H")
    e0 = np.zeros(L.shape[0])
    e0[0] = 1.0
    act = L @ e0
    assert abs(act[0] + 2.0 / 25.0) < 1e-13
    assert np.max(np.abs(act[1:])) < 1e-13


def test_operators_coincide_without_extrinsic_curvature(schw):
    rng = np.random.default_rng(0)
    S = random_surface(rng, r0=12.0, amp=0.1)
    fr = surface_frames(schw, S)
    L_H = assemble_linearization(fr, "L_H")
    assert np.max(np.abs(assemble_linearization(fr, "L_script") - L_H)) < 1e-12
    # and both equal the classical stability operator -Lap - |A|^2 - Ric
    f = sv._OperatorFields(fr)
    B = _basis_jets(fr.grid, S.lmax)
    classical = _project(fr.grid, _minus_laplacian(fr, f, B) - (fr.A2 + f.ricnn)[:, None] * B["f"], S.lmax)
    assert np.max(np.abs(L_H - classical)) < 1e-12


def _basis_jets(grid, lmax):
    """synth_jet of the identity coefficient rows, each jet (nnodes, n_coeffs(lmax))."""
    return {key: jet.T for key, jet in grid.synth_jet(np.eye(n_coeffs(lmax), grid.nbasis)).items()}


def _minus_laplacian(fr, f, U):
    """-Lap u = -g2inv^{ab} u_ab + cgam^g u_g for the jets U of each column u."""
    gi = fr.g2inv
    lap = (
        gi[:, 0, 0, None] * U["ftt"]
        + 2.0 * gi[:, 0, 1, None] * U["ftp"]
        + gi[:, 1, 1, None] * U["fpp"]
        - f.cgam[:, 0, None] * U["ft"]
        - f.cgam[:, 1, None] * U["fp"]
    )
    return -lap


def _project(grid, out, lmax):
    """Matrix of nodal actions (nnodes, ncols): analysed onto the full grid band and truncated."""
    return truncate_coeffs(grid.analyze(out.T), lmax).T


def _product_rule_reference(fr, lmax):
    """L ("L_H"), script-L ("L_script") and the graph Jacobian, assembled term by term.

    The operators act on the synth_jet of identity coefficient rows; the
    Jacobian takes the jets of c v by the product rule.
    """
    grid = fr.grid
    f = sv._OperatorFields(fr)
    B = _basis_jets(grid, lmax)

    def apply(tag, U):
        core = _minus_laplacian(fr, f, U) - (fr.A2 + f.ricnn)[:, None] * U["f"]
        kterm = f.kscal[:, None] * U["f"] + 2.0 * (f.kv[:, 0, None] * U["ft"] + f.kv[:, 1, None] * U["fp"])
        if tag == "L_H":
            return (fr.H[:, None] * core - fr.P[:, None] * kterm) / fr.stcmc[:, None]
        return core - (fr.P / fr.H)[:, None] * kterm

    mats = {tag: _project(grid, apply(tag, B), lmax) for tag in ("L_H", "L_script")}
    g, om = fr.metric_jet.g, grid.unit_vectors["o"]
    c = np.einsum("ni,nij,nj->n", om, g, fr.nu)
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
    gom = np.einsum("ni,nij,naj->na", om, g, fr.tang)
    tfield = np.einsum("nab,na->nb", fr.g2inv, gom)
    transport = tfield[:, 0] * hjet["ft"] + tfield[:, 1] * hjet["fp"]
    mats["jacobian"] = _project(grid, apply("L_H", U) + transport[:, None] * B["f"], lmax)
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
    got = {tag: assemble_linearization(fr, tag) for tag in ("L_H", "L_script")}
    got["jacobian"] = graph_jacobian(fr)
    for key, mat in got.items():
        assert mat.shape == (n_coeffs(lmax), n_coeffs(lmax))
        assert np.max(np.abs(mat - ref[key])) <= 1e-13 * np.max(np.abs(ref[key])), key


def _induced_christoffel_reference(fr, surface):
    """g2inv^{ab} GammaS^g_ab from d_g g2_ab, differentiated through the ambient dg."""
    _, _, tang, sec = _embedding(surface)
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
        assemble_linearization(surface_frames(euclid, GraphSurface.round([0, 0, 0], 5.0, 8)), "bogus")


@pytest.mark.parametrize("case", ["euclid", "schw", "graphical"])
def test_linearization_matches_finite_differences(case, euclid, schw, graphical):
    prov = {"euclid": euclid, "schw": schw, "graphical": graphical}[case]
    r0 = {"euclid": 10.0, "schw": 12.0, "graphical": 30.0}[case]
    rng = np.random.default_rng(hash(case) % 2**32)
    S = random_surface(rng, lmax=8, r0=r0, amp=0.05)
    sigma = r0
    _, _, fr = curvature_residual(prov, S, sigma)
    J = graph_jacobian(fr)
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
        assemble_linearization(surface_frames(prov, GraphSurface.round([0, 0, 0], 50.0, 8)), "L_H")


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
    step = np.linalg.lstsq(graph_jacobian(fr), -proj, rcond=1e-13)[0]
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
    # residual should contract at least quadratically up to a stable constant.
    # One stage alone: newton_solve's coarse stage would end at its band's
    # truncation floor, which is no contraction measurement
    seed = GraphSurface.round([1.0, 0.5, 0.0], 55.0, 10)
    res = sv._newton_stage(graphical, 60.0, seed, 1e-12, [])
    assert {band for band, _ in res.history} == {10}
    hist = [sup for _, sup in res.history]
    tail = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-4 and b > 0]
    assert tail, "no contraction data below 1e-4"
    consts = [b / a**2 for a, b in tail]
    assert all(c < 1e4 for c in consts)


def test_newton_graphical_leaf_in_apriori_class(graphical_leaf60):
    chk = apriori_class_check(graphical_leaf60.frames, 0.0, 10.0, 0.25, 0.5)
    assert chk.center_ok and chk.radius_ok and chk.willmore_ok


def test_newton_step_lu_matches_lstsq(schw, euclid):
    S = random_surface(np.random.default_rng(5), r0=12.0, amp=0.05)
    _, proj, fr = curvature_residual(schw, S, 12.0)
    J = graph_jacobian(fr)
    step, rcond = sv._newton_step(J, -proj)
    ref = np.linalg.lstsq(J, -proj, rcond=RCOND)[0]
    assert rcond > RCOND
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)
    # zero energy: flat data from r0 = 25 towards sigma = 10 takes the lstsq fallback
    seed = GraphSurface.round([0, 0, 0], 25.0, 8)
    _, proj, fr = curvature_residual(euclid, seed, 10.0)
    J = graph_jacobian(fr)
    step, rcond = sv._newton_step(J, -proj)
    assert rcond <= RCOND
    assert np.array_equal(step, np.linalg.lstsq(J, -proj, rcond=RCOND)[0])


def test_newton_diverges_with_flipped_jacobian(schw, monkeypatch):
    jacobian = sv.graph_jacobian
    monkeypatch.setattr(sv, "graph_jacobian", lambda *args, **kw: -jacobian(*args, **kw))
    with pytest.raises(NewtonDiverged, match=r"sigma 20, iteration 0: residual sup stuck at \d"):
        newton_solve(schw, 20.0, GraphSurface.round([0, 0, 0], 18.0, 8), SolveConfig(lmax=8))


def test_newton_failures_carry_their_context(schw, euclid, monkeypatch):
    jacobian = sv.graph_jacobian
    monkeypatch.setattr(sv, "graph_jacobian", lambda *args, **kw: -jacobian(*args, **kw))
    with pytest.raises(NewtonDiverged) as diverged:
        newton_solve(schw, 20.0, GraphSurface.round([0, 0, 0], 18.0, 8), SolveConfig(lmax=8))
    err = diverged.value
    assert (err.sigma, err.iteration) == (20.0, 0) and err.residual_sup > 0
    assert f"residual sup stuck at {err.residual_sup:.3e}" in str(err)
    monkeypatch.setattr(sv, "graph_jacobian", jacobian)
    monkeypatch.setattr(sv, "NEWTON_MAX_ITER", 1)
    with pytest.raises(MaxIterations) as stopped:
        newton_solve(euclid, 10.0, GraphSurface.round([0, 0, 0], 5.0, 8), SolveConfig(lmax=8, tol=1e-15))
    err = stopped.value
    assert (err.sigma, err.iteration) == (10.0, 1) and err.residual_sup > 1e-15
    assert f"residual sup {err.residual_sup:.3e}" in str(err)


def test_newton_damps_a_failed_recentering(schw, monkeypatch):
    def failing_rebase(surface, center):
        raise MaxIterations("rebase did not converge")

    monkeypatch.setattr(sv, "rebase", failing_rebase)
    with pytest.raises(NewtonDiverged, match=r"sigma 20, iteration 0: residual sup stuck at \d") as diverged:
        newton_solve(schw, 20.0, GraphSurface.round([0.2, -0.3, 0.1], 20.0, 8), SolveConfig(lmax=8))
    err = diverged.value
    assert (err.sigma, err.iteration) == (20.0, 0) and err.residual_sup > 0


def test_newton_damps_a_trial_inside_the_horizon(schw):
    # from r0 = 2.5 towards sigma = 20 the full step crosses r = 2m; the trial is damped, not fatal
    with pytest.raises(NewtonDiverged, match=r"sigma 20, iteration \d+: residual sup stuck at \d") as diverged:
        newton_solve(schw, 20.0, GraphSurface.round([0, 0, 0], 2.5, 8), SolveConfig(lmax=8))
    err = diverged.value
    assert err.sigma == 20.0 and err.iteration >= 0 and err.residual_sup > 0


def test_newton_evaluates_one_residual_per_iteration(graphical, monkeypatch):
    calls = _count_frames(monkeypatch)
    rebases = []
    rebase = sv.rebase
    monkeypatch.setattr(sv, "rebase", lambda *args: rebases.append(args) or rebase(*args))
    res = newton_solve(graphical, 40.0, GraphSurface.round([0.5, -0.4, 0.3], 38.0, 8), SolveConfig(lmax=8))
    assert res.iterations >= 2 and rebases
    # one residual per stage (the coarse lmax 4, then the full band) plus one per iteration
    bands = [band for band, _ in res.history]
    assert calls["residual"] == 2 + res.iterations == len(bands)
    assert bands == sorted(bands) and set(bands) == {4, 8}
    assert calls["frames"] == calls["residual"]


@pytest.mark.parametrize("sigma", [20.0, 60.0])
def test_padded_leaf_builds_no_full_band_jacobian(graphical, monkeypatch, sigma):
    bands = []
    jacobian = sv.graph_jacobian
    monkeypatch.setattr(sv, "graph_jacobian", lambda fr: bands.append(fr.lmax) or jacobian(fr))
    cfg = SolveConfig(lmax=24)
    res = newton_solve(graphical, sigma, GraphSurface.round([0, 0, 0], sigma, 24), cfg)
    assert res.residual_sup <= cfg.tol and len(bands) == res.iterations > 0
    # the padded coarse leaf meets tol, so the full-band stage accepts it without a Jacobian
    assert next(sup for band, sup in res.history if band == 24) <= cfg.tol
    assert bands == [12] * res.iterations


def test_newton_max_iterations(euclid, monkeypatch):
    monkeypatch.setattr(sv, "NEWTON_MAX_ITER", 1)
    with pytest.raises(MaxIterations, match=r"sigma 10, iteration 1: .*residual sup \d"):
        newton_solve(euclid, 10.0, GraphSurface.round([0, 0, 0], 5.0, 8), SolveConfig(lmax=8, tol=1e-15))


def test_solve_config_validation(euclid):
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SolveConfig(tol=tol)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            newton_solve(euclid, sigma, GraphSurface.round([0, 0, 0], 5.0, 8))


def test_newton_rejects_a_band_mismatch(euclid):
    with pytest.raises(ConfigError, match="band limit 8, the config 10"):
        newton_solve(euclid, 10.0, GraphSurface.round([0, 0, 0], 10.0, 8), SolveConfig(lmax=10))


# -- a solve's frames ----------------------------------------------------------------

@pytest.mark.parametrize(("data", "leaf"), [("schw", "schw_leaf20"), ("graphical", "graphical_leaf60")])
def test_solve_returns_its_leafs_frames(request, data, leaf):
    result = request.getfixturevalue(leaf)
    fresh = surface_frames(request.getfixturevalue(data), result.surface)
    for name in ("X", "H", "P", "stcmc", "dmu"):
        assert np.array_equal(getattr(result.frames, name), getattr(fresh, name)), name


def _count_frames(monkeypatch):
    """Count calls of sv.surface_frames and of sv.curvature_residual, which forms one frame each."""
    calls = {"frames": 0, "residual": 0}
    frames, residual = sv.surface_frames, sv.curvature_residual

    def counted_frames(*args):
        calls["frames"] += 1
        return frames(*args)

    def counted_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    monkeypatch.setattr(sv, "surface_frames", counted_frames)
    monkeypatch.setattr(sv, "curvature_residual", counted_residual)
    return calls


@pytest.mark.parametrize("data", ["schw", "graphical"])
def test_foliate_forms_frames_only_in_residuals(request, monkeypatch, data):
    calls = _count_frames(monkeypatch)
    seed = GraphSurface.round([0.2, -0.3, 0.1], 20.0, 8)
    fol = foliate(request.getfixturevalue(data), [20.0, 40.0], SolveConfig(lmax=8), initial=seed)
    assert len(fol) == 2 and calls["residual"] > 0
    assert calls["frames"] == calls["residual"]


def test_continuation_record_forms_only_the_unscaled_frames(schw, monkeypatch):
    calls = _count_frames(monkeypatch)
    steps = continuation_in_tau(schw, 20.0, GraphSurface.round([0, 0, 0], 20.0, 8), SolveConfig(lmax=8), steps=1)
    assert calls["frames"] == calls["residual"] + len(steps)


# -- continuation ------------------------------------------------------------------

@dataclass
class ContinuationStep:
    tau: float
    result: SolveResult
    lapse_coeffs: np.ndarray
    lapse_sup: float
    lapse_l2: float


def continuation_in_tau(prov, sigma, initial: GraphSurface, config: SolveConfig | None = None, steps=8):
    """Deform the purely Riemannian solution to the full-K solution.

    Walks tau from 0 to 1 through data with K scaled by tau, seeding each
    solve with the previous leaf; on failure the step is bisected down to
    1/256, below which the solver's error is raised.  At every accepted tau
    the deformation lapse u is recorded by solving script-L u =
    tau (tr_S K)^2 / H with the unscaled K.
    """
    cfg = config or SolveConfig(lmax=initial.lmax)
    out = []
    tau = 0.0
    dtau = 1.0 / steps
    S = initial
    result = newton_solve(ScaledExtrinsicProvider(prov, 0.0), sigma, S, cfg)
    out.append(_continuation_record(prov, 0.0, result))
    S = result.surface
    while tau < 1.0 - 1e-12:
        step = min(dtau, 1.0 - tau)
        while True:
            try:
                result = newton_solve(ScaledExtrinsicProvider(prov, tau + step), sigma, S, cfg)
                break
            except (NewtonDiverged, MaxIterations, TrappedRegion, DegenerateInducedMetric):
                step *= 0.5
                if step < 1.0 / 256.0:
                    raise
        tau += step
        S = result.surface
        out.append(_continuation_record(prov, tau, result))
    return out


def _continuation_record(prov, tau, result):
    S = result.surface
    fr = result.frames  # of the tau-scaled data the leaf was solved in
    fr_full = sv.surface_frames(prov, S)  # through the module, so that _count_frames sees it
    Lmat = assemble_linearization(fr, "L_script")
    rhs_nodal = tau * fr_full.P**2 / fr.H
    rhs = truncate_coeffs(fr.grid.analyze(rhs_nodal), S.lmax)
    u = np.linalg.solve(Lmat, rhs)
    u_nodal = fr.grid.synthesize(pad_coeffs(u, S.lmax, fr.grid.lmax))
    return ContinuationStep(
        tau=tau,
        result=result,
        lapse_coeffs=u,
        lapse_sup=float(np.max(np.abs(u_nodal))),
        lapse_l2=float(np.sqrt(fr.integrate(u_nodal**2))),
    )


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
        assert leaf.spectrum.eigenvalues[4] > 5.0 / leaf.sigma**2
        assert leaf.residual_sup <= 1e-11
    assert all(leaf.lapse_positive for leaf in fol)
    radii = [leaf.area_radius for leaf in fol]
    assert radii == sorted(radii)


def _counted_solves(monkeypatch, fail_below=None):
    """Record (band, iterations) of each Newton stage; stages below band fail_below raise NewtonDiverged."""
    solves = []
    stage = sv._newton_stage

    def counted_stage(prov, sigma, S, tol, history):
        if fail_below is not None and S.lmax < fail_below:
            solves.append((S.lmax, None))
            raise NewtonDiverged("injected", sigma=sigma, iteration=0, residual_sup=1.0)
        result = stage(prov, sigma, S, tol, history)
        solves.append((S.lmax, result.iterations))
        return result

    monkeypatch.setattr(sv, "_newton_stage", counted_stage)
    return solves


def test_canonical_warm_leaves_start_at_their_solution(schw, monkeypatch):
    solves = _counted_solves(monkeypatch)
    fol = foliate(schw, [40.0, 80.0, 160.0], SolveConfig(lmax=12), spectra=False)
    bands, iterations = zip(*solves)
    assert len(fol) == 3 and bands == (6, 12) * 3
    # only the cold coarse solve iterates: each padded coarse leaf is accepted at the full band as it stands
    assert iterations[0] > 0
    assert list(iterations[1:]) == [0] * 5


def test_frame_scalars_are_formed_once_and_read_only(graphical, monkeypatch):
    calls = []
    for name in ("_euclidean_density", "_euclidean_center"):
        fn = getattr(surfaces, name)
        monkeypatch.setattr(surfaces, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    S = random_surface(np.random.default_rng(3), lmax=8, r0=20.0, amp=0.2, center=(0.3, -0.2, 0.1))
    _, _, fr = sv.curvature_residual(graphical, S, 20.0)
    assert calls == []  # a residual forms no Euclidean density
    center = fr.center
    assert calls == ["_euclidean_density", "_euclidean_center"]
    laplace_spectrum(fr, k=4)
    assert fr.center is center and len(calls) == 2  # the spectrum reads the frame's center
    assert np.array_equal(center, surfaces.euclidean_center(S))
    with pytest.raises(ValueError):
        center[0] = 0.0


def _full_band_sweep(prov, sigma_list, cfg, S):
    """foliate's loop with every leaf solved by the full-band stage alone: (surface, frames, residual sup) per leaf."""
    out, prev = [], None
    for sg in sigma_list:
        if prev is not None:
            S = S.scaled(sv._warm_start_ratio(sg, *prev))
        result = sv._newton_stage(prov, sg, S, cfg.tol, [])
        S = result.surface
        prev = (sg, result.frames.hawking_mass)
        out.append((S, result.frames, result.residual_sup))
    return out


@pytest.mark.parametrize(("data", "lmax"), [("graphical", 16), ("schw", 12)])
def test_coarse_start_matches_the_full_band_sweep(request, data, lmax):
    prov = request.getfixturevalue(data)
    cfg = SolveConfig(lmax=lmax, tol=1e-11)
    seed = GraphSurface.round([0.2, -0.3, 0.1], 20.0, lmax)
    fol = foliate(prov, [20.0, 40.0, 80.0], cfg, initial=seed, spectra=False)
    ref = _full_band_sweep(prov, [20.0, 40.0, 80.0], cfg, seed)
    for leaf, (_, sc, _) in zip(fol, ref, strict=True):
        assert leaf.residual_sup <= cfg.tol and leaf.surface.lmax == lmax
        assert np.max(np.abs(leaf.center - sc.center)) <= 1e-12
        assert abs(leaf.area_radius - sc.area_radius) <= 1e-12
        assert abs(leaf.hawking_mass - sc.hawking_mass) <= 1e-12


def test_failed_coarse_solve_falls_back_to_the_full_band(graphical, monkeypatch):
    cfg = SolveConfig(lmax=10, tol=1e-11)
    seed = GraphSurface.round([0.2, -0.3, 0.1], 20.0, 10)
    ref = _full_band_sweep(graphical, [20.0, 40.0], cfg, seed)
    solves = _counted_solves(monkeypatch, fail_below=10)
    fol = foliate(graphical, [20.0, 40.0], cfg, initial=seed, spectra=False)
    assert [band for band, _ in solves] == [5, 10, 5, 10]
    for leaf, (S, sc, sup) in zip(fol, ref, strict=True):
        assert np.array_equal(leaf.surface.coeffs, S.coeffs) and np.array_equal(leaf.surface.center, S.center)
        assert leaf.surface.r0 == S.r0 and leaf.residual_sup == sup
        assert np.array_equal(leaf.center, sc.center) and leaf.hawking_mass == sc.hawking_mass


def test_foliation_below_twice_the_minimum_band_solves_once_per_leaf(schw, monkeypatch):
    solves = _counted_solves(monkeypatch)
    foliate(schw, [20.0, 40.0], SolveConfig(lmax=7), spectra=False)
    assert [band for band, _ in solves] == [7, 7]


def test_foliation_rejects_a_band_mismatch_before_any_solve(euclid, monkeypatch):
    solves = _counted_solves(monkeypatch)
    with pytest.raises(ConfigError, match="band limit 8, the config 12"):
        foliate(euclid, [10.0], SolveConfig(lmax=12), initial=GraphSurface.round([0, 0, 0], 10.0, 8))
    assert solves == []


def _cubic_root(sigma, m):
    roots = np.roots([1.0, 0.0, -sigma**2, 2.0 * m * sigma**2])
    return np.max(roots[np.isreal(roots)].real)


def test_warm_start_ratio_of_schwarzschild_radii():
    for sigma in (0.5, 20.0, 160.0):
        assert sv._warm_start_ratio(2.0 * sigma, sigma, 0.0) == pytest.approx(2.0, rel=1e-15)
    for sigma, prev, m in ((40.0, 20.0, 1.0), (80.0, 20.0, -1.0), (3.0, 1.0, -5.0), (5.2, 5.19616, -1.0), (8.0, 5.2, 1.0)):
        ratio = _cubic_root(sigma, m) / _cubic_root(prev, m)
        assert sv._warm_start_ratio(sigma, prev, m) == pytest.approx(ratio, rel=1e-13)
    assert sv._warm_start_ratio(40.0, 20.0, 1.0) * R_STAR_SIGMA20 == pytest.approx(_cubic_root(40.0, 1.0), rel=1e-14)
    # no admissible root at sigma <= 3 sqrt(3) m: sigma / sigma_prev
    for prev in (3.0 * np.sqrt(3.0), 4.0):
        assert sv._warm_start_ratio(8.0, prev, 1.0) == 8.0 / prev


def test_foliation_requires_increasing_sigma(euclid):
    with pytest.raises(ConfigError):
        foliate(euclid, [10.0, 10.0], SolveConfig(lmax=8))


def test_foliation_requires_a_sigma(euclid):
    with pytest.raises(ConfigError, match="empty"):
        foliate(euclid, [], SolveConfig(lmax=8))


# -- spectra -----------------------------------------------------------------------

def test_spectrum_round_sphere(euclid):
    rep = laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 3.0, 8)), k=8)
    lam = rep.eigenvalues
    assert abs(lam[0]) < 1e-12
    assert np.max(np.abs(lam[1:4] - 2.0 / 9.0)) < 1e-12
    assert np.max(np.abs(lam[4:9] - 6.0 / 9.0)) < 1e-11
    assert np.all(np.diff(lam) > -1e-12)


def test_spectrum_alignment_and_projection(schw_leaf20):
    rep = laplace_spectrum(schw_leaf20.frames, k=8)
    # projections of the aligned modes onto the scaled coordinate functions
    # form a near-orthogonal matrix
    gram = rep.projections @ rep.projections.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-2


def test_spectrum_eigenvalue_law_on_leaves(schw):
    rel_prev = None
    for sigma in (40.0, 80.0):
        res = newton_solve(schw, sigma, GraphSurface.round([0, 0, 0], sigma, 8), SolveConfig(lmax=8, tol=1e-11))
        rep = laplace_spectrum(res.frames, k=8)
        rel = np.max(np.abs(rep.eigenvalues[1:4] - rep.predicted_lambda) / rep.eigenvalues[1:4])
        # mass-plus-curvature prediction is accurate to the next order
        assert rel < 10.0 / sigma**1.0 * 0.1
        if rel_prev is not None:
            assert rel < rel_prev
        rel_prev = rel


def test_eigensolver_failure_is_reported(euclid, monkeypatch):
    def broken_eigh(*args, **kw):
        raise scipy.linalg.LinAlgError("injected")

    monkeypatch.setattr(scipy.linalg, "eigh", broken_eigh)
    with pytest.raises(EigenSolverFailure, match="injected"):
        laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 5.0, 8)))


@pytest.mark.parametrize("lmax", [8, 24])
def test_stiffness_mass_match_dense_basis(graphical, lmax):
    # reference: gradients [Y_t; Y_p] of the dense basis, Y_p from the (l, -m) partners
    S = random_surface(np.random.default_rng(lmax), lmax=lmax, r0=30.0, amp=0.3)
    fr = surface_frames(graphical, S)
    Y, Yt = real_sph_basis(lmax, *fr.grid.mesh)
    ms = lm_arrays(lmax)[1]
    Yp = Y[:, np.arange(n_coeffs(lmax)) - 2 * ms] * -ms
    w = fr.grid.w * fr.dmu
    grad = (Yt, Yp)
    S_ref = sum(grad[a].T @ ((w * fr.g2inv[:, a, b])[:, None] * grad[b]) for a in (0, 1) for b in (0, 1))
    M_ref = Y.T @ (w[:, None] * Y)
    # the column-banded stiffness of the half-band spectrum: the leading columns
    nc = n_coeffs(lmax // 2)
    pairs = ((sv._stiffness(fr), S_ref), (sv._stiffness(fr, lmax // 2), S_ref[:, :nc]), (sv._mass(fr), M_ref))
    for mat, ref in pairs:
        assert mat.shape == ref.shape
        assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))


def _eigh_shapes(monkeypatch):
    """Records the shape of every pencil that eigh solves."""
    shapes = []
    eigh = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    return shapes


@pytest.fixture(scope="module")
def half_band_leaves(schw, graphical):
    """A canonical leaf off the center at lmax 16 and a graphical leaf at lmax 24, where the half band is certified."""
    canonical = newton_solve(schw, 20.0, GraphSurface.round([1.0, 0.5, 0.0], 20.0, 16), SolveConfig(lmax=16, tol=1e-11))
    graph = newton_solve(graphical, 40.0, GraphSurface.round([0, 0, 0], 40.0, 24), SolveConfig(lmax=24, tol=1e-11))
    return {"canonical": canonical.frames, "graphical": graph.frames}


@pytest.mark.parametrize("leaf", ["canonical", "graphical"])
def test_half_band_spectrum_matches_full_band(half_band_leaves, monkeypatch, leaf):
    fr = half_band_leaves[leaf]
    lmax, k = fr.lmax, 8
    shapes = _eigh_shapes(monkeypatch)
    half = laplace_spectrum(fr, k=k)
    nc = n_coeffs(lmax // 2)
    assert shapes == [(nc, nc)]  # the half band is certified: no full-band eigh
    with monkeypatch.context() as m:
        m.setattr(sv, "_half_band_pairs", lambda *args: None)
        full = laplace_spectrum(fr, k=k)
    assert shapes[1:] == [(n_coeffs(lmax),) * 2]
    lam, ref = half.eigenvalues, full.eigenvalues
    assert max(abs(lam[0]), abs(ref[0])) <= 1e-12 * ref[1]  # the constants
    assert np.max(np.abs(lam[1:] - ref[1:]) / ref[1:]) <= 1e-12
    assert abs(half.sigma_min_L - full.sigma_min_L) <= 1e-12 * full.sigma_min_L
    # the l = 1 subspace: the half-band triple lies in the full-band one (M-orthonormal columns)
    M = sv._mass(fr)
    Vh, Vf = half.eigenfunctions[:, 1:4], full.eigenfunctions[:, 1:4]
    off = Vh - Vf @ (Vf.T @ M @ Vh)
    assert np.sqrt(np.max(np.einsum("ij,ik,kj->j", off, M, off))) <= 1e-12
    # rotation-invariant l = 1 entries
    for a, b in ((half.ricci_integrals, full.ricci_integrals), (half.predicted_lambda, full.predicted_lambda)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    # the Kato-Temple bound max_i ||r_i||^2 / (lambda_{k+1} - lambda_k) on the half-band eigenvalue
    # errors, from the full-band residuals r_i in the M^{-1} norm and the full-band lambda_{k+1}
    S = sv._stiffness(fr)
    V = half.eigenfunctions
    rnorm = np.linalg.norm(scipy.linalg.solve_triangular(scipy.linalg.cholesky(M), S @ V - (M @ V) * lam, trans="T"), axis=0)
    gap = scipy.linalg.eigh(S, M, eigvals_only=True, subset_by_index=[k + 1, k + 1])[0] - lam[k]
    assert gap > 0 and np.max(rnorm) ** 2 / gap <= 1e-20 * lam[1]


@pytest.mark.parametrize("lmax", [8, 16])
def test_half_band_spectrum_of_a_degenerate_multiplet(schw, lmax):
    # round leaf, k = 4: lambda_4 and lambda_5 lie in the exactly degenerate l = 2 multiplet
    fr = surface_frames(schw, GraphSurface.round([0, 0, 0], 19.0, lmax))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = laplace_spectrum(fr, k=4)
    r2 = fr.area / (4.0 * np.pi)
    assert abs(rep.eigenvalues[0]) <= 1e-12 / r2
    assert np.max(np.abs(rep.eigenvalues[1:] - np.array([2.0, 2.0, 2.0, 6.0]) / r2)) <= 1e-12 / r2


def test_half_band_holds_exactly_k_plus_one_pairs(schw, monkeypatch):
    # k + 1 = 25 pairs fill the lmax-4 half band of a round lmax-8 leaf
    fr = surface_frames(schw, GraphSurface.round([0, 0, 0], 19.0, 8))
    shapes = _eigh_shapes(monkeypatch)
    rep = laplace_spectrum(fr, k=24)
    assert shapes == [(25, 25)]
    ls = np.repeat(np.arange(5), 2 * np.arange(5) + 1)
    r2 = fr.area / (4.0 * np.pi)
    assert np.max(np.abs(rep.eigenvalues - ls * (ls + 1) / r2)) <= 1e-12 * 20.0 / r2


def test_uncertified_half_band_falls_back_to_the_full_band(perturbed_leaf, monkeypatch):
    fr, k = perturbed_leaf.frames, 8
    shapes = _eigh_shapes(monkeypatch)
    rep = laplace_spectrum(fr, k=k)
    nb, nc = n_coeffs(fr.lmax), n_coeffs(fr.lmax // 2)
    assert shapes == [(nc, nc), (nb, nb)]
    # the full-band pencil and eigh call of the single-band spectrum
    S, M = sv._stiffness(fr), sv._mass(fr)
    lam, V = scipy.linalg.eigh(0.5 * (S + S.T), M, subset_by_index=[0, k])
    assert np.array_equal(rep.eigenvalues, lam) and np.array_equal(rep.eigenfunctions, V)


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_spectrum_needs_the_l1_triple(euclid, k):
    with pytest.raises(ConfigError):
        laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 5.0, 8)), k=k)


def test_operator_bound_schwarzschild(schw_leaf20):
    rep = laplace_spectrum(schw_leaf20.frames, k=4)
    assert rep.sigma_min_L / rep.invertibility_bound >= 1.0
    # exact translational eigenvalue of the rescaled operator on the leaf
    r = R_STAR_SIGMA20
    expected = 2.0 / r**2 - 2.0 / 400.0 + 2.0 / r**3
    assert abs(rep.sigma_min_L - expected) < 1e-8


def test_operator_bound_flat_degenerates(euclid):
    rep = laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 10.0, 8)), k=4)
    assert rep.invertibility_bound < 1e-12
    assert rep.sigma_min_L < 1e-10  # translation near-kernel


def _full_svds(monkeypatch):
    """Counts full (square) SVDs; the inverse iteration takes only thin ones."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return lambda: sum(1 for m, n in shapes if m == n)


PERTURBED_TERMS = [
    {"target": "g", "i": 0, "j": 0, "coeff": 2.0, "decay": 1.0},
    {"target": "g", "i": 1, "j": 2, "coeff": 0.3, "decay": 1.0, "angular": (0, 0, 1)},
    {"target": "K", "i": 0, "j": 1, "coeff": 0.5, "decay": 2.0, "angular": (1, 0, 0)},
]


@pytest.fixture(scope="module")
def perturbed_leaf():
    # the angular terms are not band-limited: the residual floors near 1e-7 at lmax 8
    res = newton_solve(
        PerturbationProvider(PERTURBED_TERMS), 20.0, GraphSurface.round([0, 0, 0], 20.0, 8), SolveConfig(lmax=8, tol=1e-6)
    )
    assert np.max(np.abs(res.frames.P)) > 1e-4  # the K terms are exercised
    return res


@pytest.mark.parametrize("leaf", ["canonical", "graphical", "perturbed"])
def test_sigma_min_inverse_iteration_matches_svd(request, monkeypatch, leaf):
    fr = request.getfixturevalue({"canonical": "schw_leaf20", "graphical": "graphical_leaf60", "perturbed": "perturbed_leaf"}[leaf]).frames
    # _lu_rcond factors L; the reference forms W = R L R^{-1} from the captured L and M = R^T R
    factored, masses = [], []
    lu_rcond, mass = sv._lu_rcond, sv._mass
    monkeypatch.setattr(sv, "_lu_rcond", lambda L: factored.append(L) or lu_rcond(L))
    monkeypatch.setattr(sv, "_mass", lambda *a: masses.append(mass(*a)) or masses[-1])
    full_svds = _full_svds(monkeypatch)
    smin = laplace_spectrum(fr, k=4).sigma_min_L
    assert full_svds() == 0 and len(factored) == 1 and len(masses) == 1
    R = np.linalg.cholesky(masses[0]).T
    W = scipy.linalg.solve_triangular(R, (R @ factored[0]).T, trans="T").T
    ref = np.linalg.svd(W, compute_uv=False).min()
    # both values carry a roundoff of order eps * sigma_max / sigma_min relative
    assert abs(smin - ref) <= 1e-12 * ref


def test_sigma_min_takes_the_svd_only_where_w_is_singular(schw_leaf20, euclid, monkeypatch):
    full_svds = _full_svds(monkeypatch)
    laplace_spectrum(schw_leaf20.frames, k=4)
    assert full_svds() == 0
    # the flat leaf of test_operator_bound_flat_degenerates: zero energy, W singular
    smin = laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 10.0, 8)), k=4).sigma_min_L
    assert full_svds() == 1 and smin < 1e-10


def test_operator_selfadjoint_when_time_symmetric(schw_leaf20):
    fr = schw_leaf20.frames
    L = assemble_linearization(fr, "L_script")
    # weighted operator is symmetric; sigma_min equals the smallest |eigenvalue|
    R = np.linalg.cholesky(sv._mass(fr)).T
    W = R @ L @ np.linalg.inv(R)
    assert np.max(np.abs(W - W.T)) < 1e-10
    eig = np.linalg.eigvalsh(0.5 * (W + W.T))
    smin = np.linalg.svd(W, compute_uv=False).min()
    assert abs(smin - np.min(np.abs(eig))) < 1e-10


# -- center variation and uniqueness ------------------------------------------------

def center_variation_check(prov, surface: GraphSurface, u_coeffs):
    """First variation of the Euclidean center against the normal-flux formula.

    Compares a central difference of the center of X + s u nu with
    (3/|S|) int u nu dmu, returning (fd, formula, discrepancy).  Takes the
    surface, not its frames: its base radius and band set the step and u.
    """
    fr = surface_frames(prov, surface)
    grid = fr.grid
    u = grid.synthesize(pad_coeffs(np.asarray(u_coeffs, dtype=float), surface.lmax, grid.lmax))
    step = 1e-5 * surface.r0
    centers = []
    for s in (step, -step):
        X = fr.X + s * u[:, None] * fr.nu
        _, z = parametrized_area_and_center(grid, X)
        centers.append(z)
    fd = (centers[0] - centers[1]) / (2.0 * step)
    formula = 3.0 / fr.area * np.stack([fr.integrate(u * fr.nu[:, i]) for i in range(3)])
    return fd, formula, float(np.linalg.norm(fd - formula))


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
    fr = schw_leaf20.frames
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


def test_eigenvalue_ordering_invariant(graphical_leaf60):
    rep = laplace_spectrum(graphical_leaf60.frames, k=8)
    lam = rep.eigenvalues
    assert abs(lam[0]) < 1e-10
    assert lam[1] <= lam[2] <= lam[3] < lam[4]
    assert lam[4] > 5.0 / 60.0**2
