"""Prescribed spacetime-mean-curvature solver and spectral diagnostics.

The nonlinear problem is sqrt(H^2 - P^2) = 2/sigma for the height of a radial
graph.  Its linearization with respect to normal speed u is

    L[u] = [ H (-Lap u - (|A|^2 + Ric(nu,nu)) u)
             - P ((grad_nu tr K - grad_nu K(nu,nu)) u - 2 K(grad^S u, nu)) ]
           / sqrt(H^2 - P^2),

and the rescaled operator script-L = sqrt(1 - (P/H)^2) L has the same kernel
structure with a uniformly bounded prefactor.  Each operator is six nodal
coefficient fields of (u, u_t, u_p, u_tt, u_tp, u_pp); operator_matrix
applies them to every harmonic and projects back in one GEMM.  The fields
reuse the frame's geometry: CurvatureField's ambient Hessian D_ab feeds both
A (normal part, in surface_frames) and the induced connection of the
Laplacian (tangential part, Gauss formula), and Ric(nu, nu) and nabla K read
the inverse and Christoffel symbols its metric jet already holds.  The Laplace
spectrum uses the variational stiffness/mass form instead, which preserves
self-adjointness.

Newton runs on the graph height directly: the Jacobian is the normal-speed
operator composed with multiplication by g(omega, nu) plus the tangential
transport term, which vanishes on exact solutions; both fold into the fields.
Each step is one LU solve, with least squares where the condition estimate
flags the zero-energy case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .chart import (
    DataProvider,
    as_provider,
    covariant_derivative,
    ricci_scalar_curvature,
    trace_derivative,
)
from .errors import (
    ConfigError,
    ContinuationStalled,
    DegenerateInducedMetric,
    EigenSolverFailure,
    MaxIterations,
    NewtonDiverged,
    TrappedRegion,
)
from .spectral import get_grid, n_coeffs, pad_coeffs, truncate_coeffs
from .surfaces import (
    CurvatureField,
    GraphSurface,
    rebase,
    surface_frames,
    surface_scalars,
)

OPERATOR_TAGS = ("L_H", "L_script", "expansion_plus", "expansion_minus", "laplacian")

DAMPING = 0.5           # Newton step shrink factor on residual increase
MAX_DAMPING_ROUNDS = 6
RCOND = 1e-13           # Newton steps below this condition estimate use lstsq


@dataclass
class SolveConfig:
    lmax: int = 24
    tol: float = 1e-10          # sup-norm tolerance on sqrt(H^2-P^2) - 2/sigma
    max_iter: int = 30

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")


@dataclass
class SolveResult:
    surface: GraphSurface
    iterations: int
    residual_sup: float
    residual_l2: float
    history: list = field(default_factory=list)


@dataclass
class FoliationLeaf:
    sigma: float
    surface: GraphSurface
    center: np.ndarray
    area_radius: float
    hawking_mass: float
    eigenvalues: np.ndarray      # lambda_1..3 of -Lap on the leaf
    lambda4: float
    sigma_min_L: float
    residual_sup: float
    lapse_positive: bool | None = None
    min_normal_gap: float | None = None


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray          # lambda_0 .. lambda_k
    eigenfunctions: np.ndarray       # coefficients, columns per eigenvalue
    projections: np.ndarray          # <phi_i, f_j^delta> for i, j = 1..3
    aligned: np.ndarray              # aligned l=1 eigenfunction coefficients
    predicted_lambda: np.ndarray     # mass-curvature prediction per aligned mode
    ricci_integrals: np.ndarray      # int Ric(nu,nu) f_i^2 dmu per aligned mode
    hawking_mass: float
    sigma: float
    sigma_min_L: float
    invertibility_bound: float


# -- nodal operator ingredients ----------------------------------------------

class _OperatorFields:
    """Nodal coefficient fields of the linearized operators on a surface."""

    def __init__(self, fr: CurvatureField):
        self.fr = fr
        mj, ej = fr.metric_jet, fr.extrinsic_jet
        nu = fr.nu
        ric, _ = ricci_scalar_curvature(mj)
        self.ricnn = np.einsum("nij,ni,nj->n", ric, nu, nu)
        self.A2 = fr.Aring2 + 0.5 * fr.H**2
        # grad_nu tr K - grad_nu K(nu, nu)
        covK_nnn = np.einsum("nk,ni,nj,nijk->n", nu, nu, nu, covariant_derivative(mj, ej))
        self.kscal = np.einsum("nk,nk->n", nu, trace_derivative(mj, ej)) - covK_nnn
        # K(grad^S u, nu) = kv^beta d_beta u
        tang = np.stack(fr.tangents, axis=1)
        self.kv = np.einsum("nab,nai,nj,nij->nb", fr.g2inv, tang, nu, ej.K)
        # contracted induced Christoffels g2inv^{ab} GammaS^g_ab for the nodal
        # Laplacian, from the tangential part of the ambient Hessian (Gauss formula):
        # GammaS^g_ab = g2inv^{gd} g(X_d, D_ab)
        Dtr = np.einsum("nab,nabi->ni", fr.g2inv, fr.hess)
        self.cgam = np.einsum("ngd,ndi,nij,nj->ng", fr.g2inv, tang, mj.g, Dtr)
        self.H = fr.H
        self.P = fr.P
        self.stcmc = fr.stcmc
        self.g2inv = fr.g2inv


def _nodal_coefficients(f: _OperatorFields, tag):
    """Coefficient fields a0..a5 of an operator tag, as taken by operator_matrix.

    The operator acts on u as a0 u + a1 u_t + a2 u_p + a3 u_tt + a4 u_tp + a5 u_pp.
    """
    gi = f.g2inv
    # -Lap u = -g2inv^{ab} u_ab + cgam^g u_g
    lap = [np.zeros_like(f.H), f.cgam[:, 0], f.cgam[:, 1], -gi[:, 0, 0], -2.0 * gi[:, 0, 1], -gi[:, 1, 1]]
    if tag == "laplacian":
        return lap
    core = [lap[0] - (f.A2 + f.ricnn)] + lap[1:]
    # sign of the gradient coupling fixed against the finite-difference
    # oracle: the normal variation of tr_S K is
    # u (grad_nu tr K - grad_nu K(nu,nu)) + 2 K(grad^S u, nu)
    kterm = [f.kscal, 2.0 * f.kv[:, 0], 2.0 * f.kv[:, 1]]
    if tag == "L_H":
        alpha, beta = f.H / f.stcmc, -f.P / f.stcmc
    elif tag == "L_script":
        alpha, beta = 1.0, -f.P / f.H
    elif tag == "expansion_plus":
        alpha, beta = 1.0, 1.0
    elif tag == "expansion_minus":
        alpha, beta = 1.0, -1.0
    else:
        raise ConfigError(f"unknown operator tag {tag!r}; choose from {OPERATOR_TAGS}")
    return [alpha * c + beta * k for c, k in zip(core, kterm)] + [alpha * c for c in core[3:]]


def assemble_linearization(spec, surface: GraphSurface, which="L_H", frames=None):
    """Dense matrix of a linearized-curvature operator in the harmonic basis.

    The operator acts on the normal speed; entries are the base-band
    projections of the nodal action on each basis function.
    """
    fr = frames if frames is not None else surface_frames(spec, surface)
    if which == "L_H" and np.any(fr.stcmc <= 0):
        raise TrappedRegion("L_H undefined where H^2 - P^2 vanishes")
    return fr.grid.operator_matrix(_nodal_coefficients(_OperatorFields(fr), which), surface.lmax)


def graph_jacobian(spec, surface: GraphSurface, frames=None):
    """Jacobian of the nodal curvature map with respect to the graph height.

    A radial perturbation v moves points by v * omega; its normal part is
    g(omega, nu) v and the tangential part transports the (nonconstant)
    curvature along the surface.
    """
    fr = frames if frames is not None else surface_frames(spec, surface)
    grid = fr.grid
    a0, a1, a2, a3, a4, a5 = _nodal_coefficients(_OperatorFields(fr), "L_H")
    g = fr.metric_jet.g
    c = np.einsum("ni,nij,nj->n", fr.omega, g, fr.nu)
    # L_H[c v] by the product rule, with the jets of the normal-projection
    # factor c taken spectrally (limited only by the smooth tail of c itself);
    # this avoids re-analyzing c*v, whose tail would alias into the retained band
    cj = grid.synth_jet(grid.analyze(c))
    # tangential transport: (g2inv)^{ab} g(omega, e_a) d_b(stcmc) * v
    hjet = grid.synth_jet(grid.analyze(fr.stcmc))
    tang = np.stack(fr.tangents, axis=1)
    gom = np.einsum("ni,nij,naj->na", fr.omega, g, tang)
    tfield = np.einsum("nab,na->nb", fr.g2inv, gom)
    transport = tfield[:, 0] * hjet["ft"] + tfield[:, 1] * hjet["fp"]
    ct, cp = cj["ft"], cj["fp"]
    fields = (
        a0 * c + a1 * ct + a2 * cp + a3 * cj["ftt"] + a4 * cj["ftp"] + a5 * cj["fpp"] + transport,
        a1 * c + 2.0 * a3 * ct + a4 * cp,
        a2 * c + a4 * ct + 2.0 * a5 * cp,
        a3 * c, a4 * c, a5 * c,
    )
    return grid.operator_matrix(fields, surface.lmax)


def curvature_residual(spec, surface: GraphSurface, sigma, frames=None):
    """Nodal residual sqrt(H^2 - P^2) - 2/sigma and its base-band projection."""
    fr = frames if frames is not None else surface_frames(spec, surface)
    res = fr.stcmc - 2.0 / sigma
    proj = truncate_coeffs(fr.grid.analyze(res), surface.lmax)
    return res, proj, fr


def newton_solve(spec, sigma, initial: GraphSurface, config: SolveConfig | None = None):
    """Solve sqrt(H^2 - P^2) = 2/sigma by damped Newton on the graph height.

    The base sphere is re-centered to the measured coordinate center between
    iterations, which keeps the low-order height content (and hence the
    conditioning of the translational block) small.
    """
    prov = as_provider(spec)
    cfg = config or SolveConfig(lmax=initial.lmax)
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    S = initial
    if S.lmax != cfg.lmax:
        S = GraphSurface(
            S.center,
            S.r0,
            pad_coeffs(S.coeffs, S.lmax, cfg.lmax)
            if cfg.lmax >= S.lmax
            else truncate_coeffs(S.coeffs, cfg.lmax),
            cfg.lmax,
        )
    history = []
    res, proj, fr = curvature_residual(prov, S, sigma)
    sup = float(np.max(np.abs(res)))
    for it in range(cfg.max_iter):
        history.append(sup)
        if sup <= cfg.tol:
            l2 = float(np.sqrt(fr.integrate(res**2)))
            return SolveResult(S, it, sup, l2, history)
        step, _ = _newton_step(graph_jacobian(prov, S, frames=fr), -proj)
        scale = 1.0
        for attempt in range(MAX_DAMPING_ROUNDS + 1):
            S_try = GraphSurface(S.center.copy(), S.r0, S.coeffs + scale * step, S.lmax)
            try:
                res_t, proj_t, fr_t = curvature_residual(prov, S_try, sigma)
            except (TrappedRegion, DegenerateInducedMetric):
                scale *= DAMPING
                continue
            sup_t = float(np.max(np.abs(res_t)))
            if sup_t < sup or sup_t <= cfg.tol:
                break
            scale *= DAMPING
        else:
            raise NewtonDiverged(
                f"sigma {sigma:g}, iteration {it}: residual sup stuck at {sup:.3e} "
                f"after {MAX_DAMPING_ROUNDS} damped retries"
            )
        S, res, proj, fr, sup = S_try, res_t, proj_t, fr_t, sup_t
        sc = surface_scalars(prov, S, fr)
        if np.linalg.norm(sc.center - S.center) > 1e-12 * S.r0:
            S = rebase(S, sc.center)
            res, proj, fr = curvature_residual(prov, S, sigma)
            sup = float(np.max(np.abs(res)))
    raise MaxIterations(f"sigma {sigma:g}, iteration {cfg.max_iter}: no convergence; residual sup {sup:.3e}")


def _newton_step(J, rhs):
    """Solve J step = rhs by one LU; returns (step, 1-norm rcond estimate of J).

    At zero energy the translational block vanishes and rcond falls below
    RCOND; the min-norm least-squares step stays finite there.
    """
    lu = scipy.linalg.lu_factor(J)
    rcond = scipy.linalg.lapack.dgecon(lu[0], np.linalg.norm(J, 1), norm="1")[0]
    if rcond > RCOND:
        return scipy.linalg.lu_solve(lu, rhs), rcond
    return np.linalg.lstsq(J, rhs, rcond=RCOND)[0], rcond


# -- scaled-K family for the method of continuity -----------------------------

class ScaledExtrinsicProvider(DataProvider):
    """Same metric, extrinsic curvature scaled by tau (constraints re-derived)."""

    def __init__(self, inner, tau):
        self.inner = inner
        self.tau = float(tau)

    @property
    def inner_radius(self):
        return self.inner.inner_radius

    def metric_jet(self, x):
        return self.inner.metric_jet(x)

    def extrinsic_jet(self, x):
        ej = self.inner.extrinsic_jet(x)
        return type(ej)(self.tau * ej.K, self.tau * ej.dK)


@dataclass
class ContinuationStep:
    tau: float
    result: SolveResult
    lapse_coeffs: np.ndarray
    lapse_sup: float
    lapse_l2: float


def continuation_in_tau(spec, sigma, initial: GraphSurface, config: SolveConfig | None = None, steps=8):
    """Deform the purely Riemannian solution to the full-K solution.

    Walks tau from 0 to 1 through data with K scaled by tau, seeding each
    solve with the previous leaf; on failure the step is bisected down to
    1/256.  At every accepted tau the deformation lapse u is recorded by
    solving script-L u = tau (tr_S K)^2 / H with the unscaled K.
    """
    prov = as_provider(spec)
    cfg = config or SolveConfig(lmax=initial.lmax)
    out = []
    tau = 0.0
    dtau = 1.0 / steps
    S = initial
    result = newton_solve(ScaledExtrinsicProvider(prov, 0.0), sigma, S, cfg)
    out.append(_continuation_record(prov, 0.0, sigma, result))
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
                    raise ContinuationStalled(
                        f"tau step below 1/256 at tau = {tau:.4f}"
                    ) from None
        tau += step
        S = result.surface
        out.append(_continuation_record(prov, tau, sigma, result))
    return out


def _continuation_record(prov, tau, sigma, result):
    S = result.surface
    fr = surface_frames(ScaledExtrinsicProvider(prov, tau), S)
    fr_full = surface_frames(prov, S)
    Lmat = assemble_linearization(ScaledExtrinsicProvider(prov, tau), S, "L_script", frames=fr)
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


def foliate(spec, sigma_list, config: SolveConfig | None = None, initial=None, spectra=True):
    """Sweep sigma upward, seeding each leaf by radial rescaling of the last."""
    prov = as_provider(spec)
    sigma_list = [float(s) for s in sigma_list]
    if any(b <= a for a, b in zip(sigma_list, sigma_list[1:])):
        raise ConfigError("sigma list must be strictly increasing")
    cfg = config or SolveConfig()
    leaves = []
    S = initial or GraphSurface.round(np.zeros(3), sigma_list[0], cfg.lmax)
    prev_sigma = None
    for sg in sigma_list:
        if prev_sigma is not None:
            S = S.scaled(sg / prev_sigma)
        result = newton_solve(prov, sg, S, cfg)
        S = result.surface
        prev_sigma = sg
        fr = surface_frames(prov, S)
        sc = surface_scalars(prov, S, fr)
        if spectra:
            rep = laplace_spectrum(prov, S, k=8, frames=fr)
            lam123 = rep.eigenvalues[1:4]
            lam4 = float(rep.eigenvalues[4])
            smin = rep.sigma_min_L
        else:
            lam123 = np.full(3, np.nan)
            lam4 = float("nan")
            smin = float("nan")
        del fr  # not held through the next leaf's solve, which sets the peak memory
        leaves.append(
            FoliationLeaf(
                sigma=sg,
                surface=S,
                center=sc.center,
                area_radius=sc.area_radius,
                hawking_mass=sc.hawking_mass,
                eigenvalues=np.asarray(lam123),
                lambda4=lam4,
                sigma_min_L=smin,
                residual_sup=result.residual_sup,
            )
        )
    _annotate_lapse_positivity(leaves)
    return leaves


def _annotate_lapse_positivity(leaves):
    """Divided-difference check that consecutive leaves are strictly nested."""
    for a, b in zip(leaves, leaves[1:]):
        grid = get_grid(a.surface.lmax)
        th, ph = grid.mesh()
        rho_a = a.surface.radius_at(th, ph)
        rebased = rebase(b.surface, a.surface.center)
        rho_b = rebased.radius_at(th, ph)
        gap = (rho_b - rho_a) / (b.sigma - a.sigma)
        b.lapse_positive = bool(np.all(gap > 0))
        b.min_normal_gap = float(np.min(gap))
    if len(leaves) > 1:
        leaves[0].lapse_positive = leaves[1].lapse_positive
        leaves[0].min_normal_gap = leaves[1].min_normal_gap


# -- spectra -------------------------------------------------------------------

def _stiffness_mass(fr: CurvatureField, lmax):
    """Stiffness and mass matrices of the induced Laplacian, and the basis columns."""
    grid = fr.grid
    nb = n_coeffs(lmax)
    B, Bt = grid.base_basis(lmax)
    Bp = B[:, grid.partner(lmax)] * -grid.ms[:nb]
    w = grid.w * fr.dmu
    wgi = w[:, None, None] * fr.g2inv
    # one GEMM: node-stacked gradients [Bt; Bp] against their g2inv-weighted images
    wgrad = np.concatenate([wgi[:, a, 0, None] * Bt + wgi[:, a, 1, None] * Bp for a in (0, 1)])
    S = np.concatenate([Bt, Bp]).T @ wgrad
    M = (B * w[:, None]).T @ B
    return S, M, B


def laplace_spectrum(spec, surface: GraphSurface, k=8, frames=None):
    """Low eigenpairs of the induced Laplacian and invertibility diagnostics.

    The generalized symmetric problem S v = lambda M v is assembled in the
    variational form (stiffness from surface gradients, mass from the area
    measure), so self-adjointness is exact up to quadrature.  The l = 1
    eigenfunctions are aligned with the scaled coordinate functions by
    projection and re-orthonormalization.
    """
    prov = as_provider(spec)
    fr = frames if frames is not None else surface_frames(prov, surface)
    nb = n_coeffs(surface.lmax)
    if k + 1 > nb:
        raise ConfigError(f"requested {k} eigenvalues exceeds basis size {nb}")
    S, M, B = _stiffness_mass(fr, surface.lmax)
    S = 0.5 * (S + S.T)
    M = 0.5 * (M + M.T)
    try:
        lam, V = scipy.linalg.eigh(S, M)
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc
    lam = lam[: k + 1]
    V = V[:, : k + 1]
    sc = surface_scalars(prov, surface, fr)
    r = sc.area_radius
    fdelta = np.sqrt(3.0 / (4.0 * np.pi * r**4)) * (fr.X - sc.center[None, :])
    w = fr.grid.w * fr.dmu
    phi_nodal = B @ V[:, 1:4]
    proj = np.einsum("ni,nj,n->ij", phi_nodal, fdelta, w)
    aligned = V[:, 1:4] @ proj
    # re-orthonormalize in the M inner product (Gram-Schmidt)
    for j in range(3):
        for i in range(j):
            aligned[:, j] -= (aligned[:, i] @ M @ aligned[:, j]) * aligned[:, i]
        nrm = math.sqrt(aligned[:, j] @ M @ aligned[:, j])
        aligned[:, j] /= nrm
    mH = sc.hawking_mass
    sigma = 2.0 / float(fr.integrate(fr.stcmc) / fr.area)
    fields = _OperatorFields(fr)
    al_nodal = B @ aligned
    ric_ints = np.einsum("n,ni,ni->i", w * fields.ricnn, al_nodal, al_nodal)
    predicted = 2.0 / sigma**2 + 6.0 * mH / sigma**3 + ric_ints
    smin = _sigma_min_weighted(fields, surface.lmax, M)
    return SpectralReport(
        eigenvalues=lam,
        eigenfunctions=V,
        projections=proj,
        aligned=aligned,
        predicted_lambda=predicted,
        ricci_integrals=ric_ints,
        hawking_mass=mH,
        sigma=sigma,
        sigma_min_L=smin,
        invertibility_bound=3.0 * abs(mH) / sigma**3,
    )


def _sigma_min_weighted(fields: _OperatorFields, lmax, M):
    """Smallest singular value of script-L in the dmu-weighted L2 norm.

    With mass matrix M = R^T R, the weighted operator is R L R^{-1} acting on
    orthonormalized coordinates.
    """
    Lmat = fields.fr.grid.operator_matrix(_nodal_coefficients(fields, "L_script"), lmax)
    R = np.linalg.cholesky(0.5 * (M + M.T)).T
    # W = (R L) R^{-1}, i.e. R^T W^T = (R L)^T
    W = scipy.linalg.solve_triangular(R, (R @ Lmat).T, trans="T").T
    return float(np.linalg.svd(W, compute_uv=False).min())


def operator_bound_check(spec, surface: GraphSurface):
    """Smallest weighted singular value of script-L against 3|m_H|/sigma^3."""
    rep = laplace_spectrum(spec, surface, k=4)
    ratio = rep.sigma_min_L / rep.invertibility_bound if rep.invertibility_bound > 0 else float("inf")
    return rep.sigma_min_L, rep.invertibility_bound, ratio


def center_variation_check(spec, surface: GraphSurface, u_coeffs, h=1e-5):
    """First variation of the Euclidean center against the normal-flux formula.

    Compares a central difference of the center of X + s u nu with
    (3/|S|) int u nu dmu, returning (fd, formula, discrepancy).
    """
    from .surfaces import parametrized_area_and_center

    prov = as_provider(spec)
    fr = surface_frames(prov, surface)
    grid = fr.grid
    u = grid.synthesize(pad_coeffs(np.asarray(u_coeffs, dtype=float), surface.lmax, grid.lmax))
    step = h * surface.r0
    centers = []
    for s in (step, -step):
        X = fr.X + s * u[:, None] * fr.nu
        _, z = parametrized_area_and_center(grid, X)
        centers.append(z)
    fd = (centers[0] - centers[1]) / (2.0 * step)
    formula = 3.0 / fr.area * np.stack([fr.integrate(u * fr.nu[:, i]) for i in range(3)])
    return fd, formula, float(np.linalg.norm(fd - formula))


def uniqueness_cross_check(spec, sigma, seeds, config: SolveConfig | None = None):
    """Max pairwise sup-distance between leaves converged from different seeds."""
    prov = as_provider(spec)
    cfg = config or SolveConfig(lmax=seeds[0].lmax)
    solved = [newton_solve(prov, sigma, s, cfg) for s in seeds]
    base = solved[0].surface.center
    grid = get_grid(cfg.lmax)
    th, ph = grid.mesh()
    radii = []
    for res in solved:
        reb = rebase(res.surface, base)
        radii.append(reb.radius_at(th, ph))
    dist = 0.0
    for i in range(len(radii)):
        for j in range(i + 1, len(radii)):
            dist = max(dist, float(np.max(np.abs(radii[i] - radii[j]))))
    return dist, solved
