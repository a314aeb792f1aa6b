"""Prescribed spacetime-mean-curvature solver and spectral diagnostics.

The nonlinear problem is sqrt(H^2 - P^2) = 2/sigma for the height of a radial
graph.  Its linearization with respect to normal speed u is

    L[u] = [ H (-Lap u - (|A|^2 + Ric(nu,nu)) u)
             - P ((grad_nu tr K - grad_nu K(nu,nu)) u - 2 K(grad^S u, nu)) ]
           / sqrt(H^2 - P^2),

and the rescaled operator script-L = sqrt(1 - (P/H)^2) L has the same kernel
structure with a uniformly bounded prefactor.  Each operator is six nodal
coefficient fields of (u, u_t, u_p, u_tt, u_tp, u_pp); operator_matrix
projects their action on each base-band harmonic onto the base band by the
grid's separable quadrature (SphereGrid.bilinear), with no dense basis.  The
fields reuse the frame's geometry: CurvatureField's ambient Hessian D_ab feeds
both A (normal part, in surface_frames) and the induced connection of the
Laplacian (tangential part, Gauss formula), and Ric(nu, nu) and
grad_nu tr K - grad_nu K(nu, nu) are the jets contracted along nu directly
(chart._normal_contractions), with the inverse and Christoffel symbols the
metric jet already holds, and no Ricci tensor or nabla K.  The Laplace
spectrum uses the variational stiffness/mass form instead, from the same
quadrature, which preserves self-adjointness.  The spectrum visits the
half band, then the full band (_bands), and stops at the first band that
holds both results.  Each band forms its mass matrix M and Cholesky factor
R once; its eigenpairs come from its pencil, and sigma_min of script-L from
block inverse iteration on one LU of its operator, weighted by R.  Below
the full band each result is kept only where its full-band residuals
certify it: each eigenpair's, in the inverse mass norm, a backward error of
at most SPECTRUM_RTOL of the pencil's scale, and the smallest singular
triplet's two, at most SPECTRUM_RTOL of the operator's norm (a
Jordan-Wielandt residual bound; B. Parlett, The Symmetric Eigenvalue
Problem, section 10).  The certificates apply the full-band operators
matrix-free, through their quadrature: M u = analyze(dmu synthesize(u)),
the stiffness and L^T by the transposed jet analysis, the M norm as the
quadrature of dmu u^2, and every M^{-1} norm by the rigorous bound
|x| / sqrt(min dmu) (M >= min(dmu) I: positive weights, and the dealiased
grid integrates the band's squares exactly).  So a certified leaf forms
only half-band matrices.

Newton runs on the graph height directly: the Jacobian is the normal-speed
operator composed with multiplication by g(omega, nu) plus the tangential
transport term, which vanishes on exact solutions; both fold into the fields.
Each step is one LU solve, with least squares where the condition estimate
flags the zero-energy case.  Each trial surface is re-centered on its
Euclidean center, which needs only the embedding, before its one residual
evaluation, and the damping test reads the re-centered residual, so an
undamped iteration costs one Jacobian and one residual.  Every solve runs
coarse to fine (nested iteration, the first stage of full multigrid): Newton
runs at half the band, where a Jacobian is a fraction of the full-band one,
and the full-band stage accepts the zero-padded coarse leaf by the same
tolerance, usually with no iteration, as the leaves' harmonic content decays
geometrically in l.  A solve returns its leaf's frames, formed by its last
residual evaluation (SolveResult.frames), so no caller forms them again.  A
foliation seeds each later leaf at the radius of the Schwarzschild sphere
with H = 2/sigma for the previous leaf's Hawking mass, near which the leaves
of asymptotically Schwarzschild data lie at large sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .chart import _normal_contractions
from .errors import (
    ConfigError,
    DegenerateInducedMetric,
    EigenSolverFailure,
    HorizonReached,
    MaxIterations,
    NewtonDiverged,
    PointInsideCore,
    SliceNotSpacelike,
    StcmcError,
    TrappedRegion,
)
from .spectral import _JET_DERIVATIVES, MIN_LMAX, n_coeffs, pad_coeffs, truncate_coeffs
from .surfaces import (
    CurvatureField,
    GraphSurface,
    check_positive,
    euclidean_center,
    nodal_radius,
    rebase,
    surface_frames,
)

DAMPING = 0.5           # Newton step shrink factor on residual increase
MAX_DAMPING_ROUNDS = 6
NEWTON_MAX_ITER = 30    # Newton iterations before MaxIterations
RCOND = 1e-13           # Newton steps below this condition estimate use lstsq; sigma_min the full SVD
# Relative accuracy of the spectra: the sigma_min sweeps (_inverse_iteration)
# settle when sigma_min changes by at most SPECTRUM_RTOL relative, and fall
# back to the full SVD after SIGMA_MIN_SWEEPS; half-band eigenpairs
# (_eigenpairs) and the half-band sigma_min (_certified_sigma_min) are kept
# when their full-band residuals are at most SPECTRUM_RTOL of the operator's
# scale
SPECTRUM_RTOL = 1e-13
SIGMA_MIN_SWEEPS = 20


@dataclass
class SolveConfig:
    lmax: int = 24
    tol: float = 1e-10          # sup-norm tolerance on sqrt(H^2-P^2) - 2/sigma

    def __post_init__(self):
        check_positive(self.tol, "tolerance")


@dataclass
class SolveResult:
    surface: GraphSurface
    iterations: int
    residual_sup: float
    frames: CurvatureField      # of surface, from the last residual evaluation
    history: list = field(default_factory=list)  # (lmax, residual sup) of each residual evaluation


@dataclass
class SpectralReport:
    """Low Laplace eigenpairs of a leaf and its invertibility diagnostics (laplace_spectrum).

    The l = 1 triple is nearly degenerate, so eigenfunctions[:, 1:4] and
    projections are defined only up to a rotation within it: the solver's
    roundoff picks the rotation, and the half-band and full-band pencils pick
    different ones.  ricci_integrals and predicted_lambda do not depend on
    it: they are formed from the aligned triple eigenfunctions[:, 1:4] Q with
    projections = QR, the M-orthonormal Gram-Schmidt of the triple projected
    onto the coordinate functions, and are quadratic in each aligned
    function, so the signs of Q's columns do not enter.
    """

    eigenvalues: np.ndarray          # lambda_0 .. lambda_k
    eigenfunctions: np.ndarray       # coefficients, columns per eigenvalue
    projections: np.ndarray          # <phi_i, f_j^delta> for i, j = 1..3
    predicted_lambda: np.ndarray     # mass-curvature prediction per aligned mode
    ricci_integrals: np.ndarray      # int Ric(nu,nu) f_i^2 dmu per aligned mode
    hawking_mass: float
    sigma: float
    sigma_min_L: float
    invertibility_bound: float


@dataclass
class FoliationLeaf:
    sigma: float
    surface: GraphSurface
    center: np.ndarray
    area_radius: float
    hawking_mass: float
    spectrum: SpectralReport | None  # laplace_spectrum(k=8) of the leaf; None without spectra
    residual_sup: float
    lapse_positive: bool | None = None
    min_normal_gap: float | None = None

    @property
    def eigenvalues(self):
        """lambda_1..3 of -Lap on the leaf (NaN without spectra)."""
        return self.spectrum.eigenvalues[1:4] if self.spectrum is not None else np.full(3, np.nan)

    @property
    def sigma_min_L(self):
        return self.spectrum.sigma_min_L if self.spectrum is not None else float("nan")


# -- nodal operator ingredients ----------------------------------------------

class _OperatorFields:
    """Nodal fields of the linearized operators that the frames do not hold."""

    def __init__(self, fr: CurvatureField):
        mj, ej = fr.metric_jet, fr.extrinsic_jet
        nu = fr.nu
        # Ric(nu, nu) and grad_nu tr K - grad_nu K(nu, nu), contracted along nu
        self.ricnn, self.kscal = _normal_contractions(mj, ej, nu)
        # K(grad^S u, nu) = kv^beta d_beta u
        self.kv = (fr.g2inv.transpose(0, 2, 1) @ (fr.tang @ (ej.K @ nu[:, :, None])))[:, :, 0]
        # contracted induced Christoffels g2inv^{ab} GammaS^g_ab for the nodal
        # Laplacian, from the tangential part of the ambient Hessian (Gauss formula):
        # GammaS^g_ab = g2inv^{gd} g(X_d, D_ab)
        Dtr = np.einsum("nab,nabi->ni", fr.g2inv, fr.hess)
        self.cgam = (fr.g2inv @ (fr.tang @ (mj.g @ Dtr[:, :, None])))[:, :, 0]


def _nodal_coefficients(fr: CurvatureField, f: _OperatorFields, tag):
    """Coefficient fields a0..a5 of L ("L_H") or script-L ("L_script"), as taken by operator_matrix.

    The operator acts on u as a0 u + a1 u_t + a2 u_p + a3 u_tt + a4 u_tp + a5 u_pp.
    """
    gi = fr.g2inv
    # -Lap u - (|A|^2 + Ric(nu, nu)) u, with -Lap u = -g2inv^{ab} u_ab + cgam^g u_g
    core = [-(fr.A2 + f.ricnn), f.cgam[:, 0], f.cgam[:, 1], -gi[:, 0, 0], -2.0 * gi[:, 0, 1], -gi[:, 1, 1]]
    # sign of the gradient coupling fixed against the finite-difference
    # oracle: the normal variation of tr_S K is
    # u (grad_nu tr K - grad_nu K(nu,nu)) + 2 K(grad^S u, nu)
    kterm = [f.kscal, 2.0 * f.kv[:, 0], 2.0 * f.kv[:, 1]]
    if tag == "L_H":
        alpha, beta = fr.H / fr.stcmc, -fr.P / fr.stcmc
    elif tag == "L_script":
        alpha, beta = 1.0, -fr.P / fr.H
    else:
        raise ConfigError(f"unknown operator tag {tag!r}; choose from ('L_H', 'L_script')")
    return [alpha * c + beta * k for c, k in zip(core, kterm)] + [alpha * c for c in core[3:]]


def assemble_linearization(fr: CurvatureField, which="L_H"):
    """Dense matrix of a linearized-curvature operator in the harmonic basis.

    The operator acts on the normal speed; entries are the base-band
    projections of the nodal action on each basis function.
    """
    if which == "L_H" and np.any(fr.stcmc <= 0):
        raise TrappedRegion("L_H undefined where H^2 - P^2 vanishes")
    return fr.grid.operator_matrix(_nodal_coefficients(fr, _OperatorFields(fr), which), fr.lmax)


def graph_jacobian(fr: CurvatureField):
    """Jacobian of the nodal curvature map with respect to the graph height.

    A radial perturbation v moves points by v * omega; its normal part is
    g(omega, nu) v and the tangential part transports the (nonconstant)
    curvature along the surface.
    """
    grid = fr.grid
    a0, a1, a2, a3, a4, a5 = _nodal_coefficients(fr, _OperatorFields(fr), "L_H")
    g, om = fr.metric_jet.g, grid.unit_vectors["o"]
    c = np.einsum("ni,nij,nj->n", om, g, fr.nu)
    # L_H[c v] by the product rule, with the jets of the normal-projection
    # factor c taken spectrally (limited only by the smooth tail of c itself);
    # this avoids re-analyzing c*v, whose tail would alias into the retained band
    cj = grid.synth_jet(grid.analyze(c))
    # tangential transport: (g2inv)^{ab} g(omega, e_a) d_b(stcmc) * v
    hjet = grid.synth_jet(grid.analyze(fr.stcmc))
    gom = np.einsum("ni,nij,naj->na", om, g, fr.tang)
    tfield = np.einsum("nab,na->nb", fr.g2inv, gom)
    transport = tfield[:, 0] * hjet["ft"] + tfield[:, 1] * hjet["fp"]
    ct, cp = cj["ft"], cj["fp"]
    fields = (
        a0 * c + a1 * ct + a2 * cp + a3 * cj["ftt"] + a4 * cj["ftp"] + a5 * cj["fpp"] + transport,
        a1 * c + 2.0 * a3 * ct + a4 * cp,
        a2 * c + a4 * ct + 2.0 * a5 * cp,
        a3 * c, a4 * c, a5 * c,
    )
    return grid.operator_matrix(fields, fr.lmax)


def curvature_residual(prov, surface: GraphSurface, sigma):
    """Nodal residual sqrt(H^2 - P^2) - 2/sigma, its base-band projection and the frames."""
    fr = surface_frames(prov, surface)
    res = fr.stcmc - 2.0 / sigma
    proj = truncate_coeffs(fr.grid.analyze(res), surface.lmax)
    return res, proj, fr


def _coarse_lmax(lmax):
    """The coarse band of a leaf solve and of its spectrum: lmax // 2, or None below MIN_LMAX."""
    coarse = lmax // 2
    return coarse if coarse >= MIN_LMAX else None


def newton_solve(prov, sigma, initial: GraphSurface, config: SolveConfig | None = None):
    """Solve sqrt(H^2 - P^2) = 2/sigma on the config's band, coarse to fine.

    The initial surface must have the config's band limit (ConfigError
    otherwise).  Newton (_newton_stage) runs at band _coarse_lmax(cfg.lmax)
    from the initial surface truncated; the coarse leaf, zero-padded with its
    center and r0, starts the full-band stage, which accepts it by the same
    tol, usually with no iteration.  Where there is no coarse band, or the
    coarse stage raises any StcmcError but ConfigError, the full-band stage
    starts from the uncut initial surface.  iterations counts the iterations
    of both stages (of the full-band stage alone after a failed coarse one);
    history holds (lmax, residual sup) of every residual evaluation of both.
    """
    cfg = config or SolveConfig(lmax=initial.lmax)
    check_positive(sigma, "sigma")
    if initial.lmax != cfg.lmax:
        raise ConfigError(f"initial surface has band limit {initial.lmax}, the config {cfg.lmax}")
    history, iterations = [], 0
    coarse = _coarse_lmax(cfg.lmax)
    if coarse is not None:
        cut = GraphSurface(initial.center.copy(), initial.r0, truncate_coeffs(initial.coeffs, coarse), coarse)
        try:
            leaf = _newton_stage(prov, sigma, cut, cfg.tol, history)
        except ConfigError:
            raise
        except StcmcError:
            pass
        else:
            iterations, S = leaf.iterations, leaf.surface
            del leaf  # its frames are not held through the full-band stage
            initial = GraphSurface(S.center.copy(), S.r0, pad_coeffs(S.coeffs, coarse, cfg.lmax), cfg.lmax)
    result = _newton_stage(prov, sigma, initial, cfg.tol, history)
    result.iterations += iterations
    return result


def _newton_stage(prov, sigma, S: GraphSurface, tol, history):
    """One damped-Newton stage of newton_solve, at the band of S.

    Each iteration takes the Newton step, re-centers the trial surface on its
    Euclidean center (formed from the embedding alone, no provider call), and
    evaluates the residual once, on the re-centered trial; re-centering keeps
    the low-order height content (and hence the conditioning of the
    translational block) small.  A trial is damped by DAMPING when its
    re-centered residual sup does not fall, or when it is trapped, degenerate,
    cannot be re-centered or leaves the data's domain (a point inside the
    horizon or the core, or where the slice is not spacelike).  Each residual
    evaluation appends (lmax, sup) to history, 1 + iterations of them without
    damping.  Raises
    NewtonDiverged when MAX_DAMPING_ROUNDS damped retries cannot lower the
    residual sup and MaxIterations after NEWTON_MAX_ITER iterations, each
    with sigma, iteration and residual_sup.
    """
    res, proj, fr = curvature_residual(prov, S, sigma)
    sup = float(np.max(np.abs(res)))
    history.append((S.lmax, sup))
    for it in range(NEWTON_MAX_ITER):
        if sup <= tol:
            return SolveResult(S, it, sup, fr, history)
        step, _ = _newton_step(graph_jacobian(fr), -proj)
        scale = 1.0
        for attempt in range(MAX_DAMPING_ROUNDS + 1):
            try:
                S_try = _recentered(GraphSurface(S.center.copy(), S.r0, S.coeffs + scale * step, S.lmax))
                res_t, proj_t, fr_t = curvature_residual(prov, S_try, sigma)
            except (TrappedRegion, DegenerateInducedMetric, MaxIterations,
                    HorizonReached, PointInsideCore, SliceNotSpacelike):
                scale *= DAMPING
                continue
            sup_t = float(np.max(np.abs(res_t)))
            history.append((S.lmax, sup_t))
            if sup_t < sup or sup_t <= tol:
                break
            scale *= DAMPING
        else:
            raise NewtonDiverged(
                f"sigma {sigma:g}, iteration {it}: residual sup stuck at {sup:.3e} "
                f"after {MAX_DAMPING_ROUNDS} damped retries",
                sigma=float(sigma), iteration=it, residual_sup=sup,
            )
        S, res, proj, fr, sup = S_try, res_t, proj_t, fr_t, sup_t
    raise MaxIterations(
        f"sigma {sigma:g}, iteration {NEWTON_MAX_ITER}: no convergence; residual sup {sup:.3e}",
        sigma=float(sigma), iteration=NEWTON_MAX_ITER, residual_sup=sup,
    )


def _recentered(S: GraphSurface):
    """S re-based on its Euclidean center where that moved by more than 1e-12 r0.

    Raises rebase's MaxIterations and DegenerateInducedMetric where the
    height reaches the base center; _newton_stage damps such a trial.
    """
    center = euclidean_center(S)
    if np.linalg.norm(center - S.center) > 1e-12 * S.r0:
        return rebase(S, center)
    return S


def _newton_step(J, rhs):
    """Solve J step = rhs by one LU; returns (step, 1-norm rcond estimate of J).

    At zero energy the translational block vanishes and rcond falls below
    RCOND; the min-norm least-squares step stays finite there.
    """
    lu, rcond = _lu_rcond(J)
    if rcond > RCOND:
        return scipy.linalg.lu_solve(lu, rhs), rcond
    return np.linalg.lstsq(J, rhs, rcond=RCOND)[0], rcond


def _lu_rcond(A):
    """One LU of A and the LAPACK (dgecon) estimate of its 1-norm reciprocal condition number."""
    anorm = np.linalg.norm(A, 1)  # its |A| temporary is freed before the LU copies A
    lu = scipy.linalg.lu_factor(A)
    return lu, scipy.linalg.lapack.dgecon(lu[0], anorm, norm="1")[0]


def _warm_start_ratio(sigma, sigma_prev, m):
    """r(sigma) / r(sigma_prev) for the Schwarzschild spheres of mass m with H = 2N/r = 2/sigma.

    r is the largest root of r^3 - sigma^2 r + 2 m sigma^2 = 0: with
    c = -3 sqrt(3) m / sigma it is 2 sigma/sqrt(3) cos(arccos(c)/3) for
    |c| <= 1 (sigma itself at m = 0, up to roundoff) and
    2 sigma/sqrt(3) cosh(arccosh(c)/3) for c > 1 (m < 0, one real root).
    Where either cubic has no such root (m > 0 and sigma <= 3 sqrt(3) m),
    the ratio is sigma / sigma_prev.
    """
    radii = []
    for s in (sigma, sigma_prev):
        c = -3.0 * math.sqrt(3.0) * m / s
        if c <= -1.0:
            return sigma / sigma_prev
        trig = math.cos(math.acos(c) / 3.0) if c <= 1.0 else math.cosh(math.acosh(c) / 3.0)
        radii.append(2.0 * s / math.sqrt(3.0) * trig)
    return radii[0] / radii[1]


def foliate(prov, sigma_list, config: SolveConfig | None = None, initial=None, spectra=True):
    """Sweep sigma upward, seeding each leaf by radial rescaling of the last.

    The first leaf starts from `initial` (the round sphere of radius sigma
    about the origin by default).  Each later leaf starts from the previous
    one scaled about its center by r(sigma)/r(sigma_prev), the ratio of the
    radii of the Schwarzschild spheres with H = 2/sigma for the previous
    leaf's Hawking mass (sigma/sigma_prev where the cubic has no root), so
    near infinity, where the leaves are close to those spheres, a warm leaf
    starts near its solution.  newton_solve solves each leaf coarse to
    fine, and every leaf keeps its full-band surface, frames,
    residual_sup <= tol and spectrum.
    """
    sigma_list = [float(s) for s in sigma_list]
    if not sigma_list:
        raise ConfigError("sigma list is empty")
    if not all(0 < s < math.inf for s in sigma_list):
        raise ConfigError(f"sigma list must hold finite positive values, got {sigma_list}")
    if any(b <= a for a, b in zip(sigma_list, sigma_list[1:])):
        raise ConfigError("sigma list must be strictly increasing")
    cfg = config or SolveConfig()
    leaves = []
    S = initial or GraphSurface.round(np.zeros(3), sigma_list[0], cfg.lmax)
    prev = None  # (sigma, Hawking mass) of the previous leaf
    for sg in sigma_list:
        if prev is not None:
            S = S.scaled(_warm_start_ratio(sg, *prev))
        result = newton_solve(prov, sg, S, cfg)
        S = result.surface
        fr = result.frames
        prev = (sg, fr.hawking_mass)
        leaves.append(
            FoliationLeaf(
                sigma=sg,
                surface=S,
                center=fr.center,
                area_radius=fr.area_radius,
                hawking_mass=fr.hawking_mass,
                spectrum=laplace_spectrum(fr, k=8) if spectra else None,
                residual_sup=result.residual_sup,
            )
        )
        del result, fr  # not held through the next leaf's solve, which sets the peak memory
    _annotate_lapse_positivity(leaves)
    return leaves


def _annotate_lapse_positivity(leaves):
    """Divided-difference check that consecutive leaves are strictly nested."""
    for a, b in zip(leaves, leaves[1:]):
        center = a.surface.center
        gap = (nodal_radius(b.surface, center) - nodal_radius(a.surface, center)) / (b.sigma - a.sigma)
        b.lapse_positive = bool(np.all(gap > 0))
        b.min_normal_gap = float(np.min(gap))
    if len(leaves) > 1:
        leaves[0].lapse_positive = leaves[1].lapse_positive
        leaves[0].min_normal_gap = leaves[1].min_normal_gap


# -- spectra -------------------------------------------------------------------

def _stiffness(fr: CurvatureField, lmax=None):
    """Stiffness matrix of the induced Laplacian in the band lmax (fr.lmax by default)."""
    gi = fr.dmu[:, None, None] * fr.g2inv
    grad = ("ft", "fp")
    return fr.grid.bilinear([(grad[a], grad[b], gi[:, a, b]) for a in (0, 1) for b in (0, 1)], lmax or fr.lmax)


def _mass(fr: CurvatureField, lmax=None):
    """Mass matrix of the area measure in the band lmax (fr.lmax by default), symmetrized."""
    M = fr.grid.bilinear([("f", "f", fr.dmu)], lmax or fr.lmax)
    return 0.5 * (M + M.T)


def _mass_factor(fr: CurvatureField, lmax):
    """(M, R): the band-lmax mass matrix and its Cholesky factor, M = R^T R; EigenSolverFailure where M is not positive."""
    M = _mass(fr, lmax)
    try:
        return M, scipy.linalg.cholesky(M)
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"mass matrix: {exc}") from exc


def check_spectrum_k(k, lmax):
    """Raise ConfigError unless the k + 1 lowest eigenpairs fit the band and hold the l = 1 triple."""
    if k < 3:
        raise ConfigError(f"k = {k}: the aligned l = 1 triple needs the eigenpairs 1..3, so k >= 3")
    nb = n_coeffs(lmax)
    if k + 1 > nb:
        raise ConfigError(f"requested {k} eigenvalues exceeds basis size {nb}")


def _eigh(S, M, n):
    """The n lowest eigenpairs of the pencil (S, M); EigenSolverFailure where eigh fails."""
    try:
        return scipy.linalg.eigh(S, M, subset_by_index=[0, n - 1])
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc


def _bands(lmax):
    """The bands of a leaf's spectrum, coarse to fine: [_coarse_lmax(lmax), lmax], or [lmax] without a coarse band."""
    coarse = _coarse_lmax(lmax)
    return [lmax] if coarse is None else [coarse, lmax]


def laplace_spectrum(fr: CurvatureField, k=8):
    """Low eigenpairs of the induced Laplacian and invertibility diagnostics.

    The generalized symmetric problem S v = lambda M v is assembled in the
    variational form (stiffness from surface gradients, mass from the area
    measure), so self-adjointness is exact up to quadrature.  The spectrum
    visits the bands of _bands coarse to fine, the half band (_coarse_lmax,
    whose matrices are the leading blocks of the full-band ones) and then
    the full band, and stops at the first band where both results are held.
    Each band forms its M = R^T R once; the k + 1 lowest eigenpairs come
    from its pencil (_eigenpairs), tried at the half band only where it
    holds k + 1 harmonics, and sigma_min from its operator
    (_sigma_min_weighted).  Below the full band each result is kept only
    where its full-band residuals certify it.  The leaves' harmonic content
    decays geometrically in l, so the half band fixes the low pairs and
    sigma_min to roundoff, and a certified leaf forms only half-band
    matrices: the certificates apply the full-band operators matrix-free,
    through their quadrature.  The M norm of a field u is the quadrature of
    dmu u^2, and every M^{-1} norm is bounded by |x| / sqrt(min dmu):
    c^T M c = sum_n w_n dmu_n u_n^2 >= min(dmu) |c|^2 for u the synthesis of
    c, as the weights are positive and the dealiased grid integrates the
    band's squares exactly, so M >= min(dmu) I.  The l = 1 eigenfunctions
    are aligned with the scaled coordinate functions by one QR of their
    projections onto them (see SpectralReport for what depends on the
    rotation within the triple).  Raises EigenSolverFailure where the
    pencil cannot be solved.
    """
    check_spectrum_k(k, fr.lmax)
    fields = _OperatorFields(fr)  # first, so that no matrix is held through its formation
    a = _nodal_coefficients(fr, fields, "L_script")
    pairs = smin = None
    for band in _bands(fr.lmax):
        M, R = _mass_factor(fr, band)
        if pairs is None and k + 1 <= n_coeffs(band):
            pairs = _eigenpairs(fr, band, M, k)
        if smin is None:
            smin = _sigma_min_weighted(fr, a, band, R)
        if pairs is not None and smin is not None:
            break
    lam, V = pairs
    fdelta = np.sqrt(3.0 / (4.0 * np.pi * fr.area_radius**4)) * (fr.X - fr.center[None, :])
    w = fr.grid.w * fr.dmu
    proj = np.einsum("in,nj,n->ij", fr.grid.synthesize(V[:, 1:4].T), fdelta, w)
    # V's columns are M-orthonormal, so V Q (proj = QR) spans the aligned triple M-orthonormally
    al_nodal = fr.grid.synthesize((V[:, 1:4] @ np.linalg.qr(proj)[0]).T)
    mH = fr.hawking_mass
    sigma = 2.0 / float(fr.integrate(fr.stcmc) / fr.area)
    ric_ints = np.einsum("n,in,in->i", w * fields.ricnn, al_nodal, al_nodal)
    predicted = 2.0 / sigma**2 + 6.0 * mH / sigma**3 + ric_ints
    return SpectralReport(
        eigenvalues=lam,
        eigenfunctions=V,
        projections=proj,
        predicted_lambda=predicted,
        ricci_integrals=ric_ints,
        hawking_mass=mH,
        sigma=sigma,
        sigma_min_L=smin,
        invertibility_bound=3.0 * abs(mH) / sigma**3,
    )


def _eigenpairs(fr: CurvatureField, band, M, k):
    """The k + 1 lowest eigenpairs (lambda_0..k, v_0..k padded to fr.lmax) of the band's pencil.

    M is the band's mass matrix.  At the full band the pairs are returned
    as solved.  Below it they are returned where the full band accepts
    them, else None: each v_i, zero-padded, has the full-band residual
    r_i = S v_i - lambda_i M v_i, one transposed jet analysis of the nodal
    fields dmu g^{-1} grad v_i and -lambda_i dmu v_i, with no full-band
    matrix.  With v_i M-normalized, |r_i|_{M^{-1}} is the pair's backward
    error (the smallest symmetric perturbation of the full-band pencil for
    which it is exact), at most |r_i| / sqrt(min dmu) as M >= min(dmu) I
    (laplace_spectrum).  The pairs are kept when every such bound is at
    most SPECTRUM_RTOL of the pencil's scale, the largest Rayleigh quotient
    S_jj / M_jj of the band's harmonics: a lower bound on the pencil's
    largest eigenvalue, so the test is no looser than one against it.
    """
    S = _stiffness(fr, band)
    lam, V = _eigh(0.5 * (S + S.T), M, k + 1)
    if band == fr.lmax:
        return lam, V
    jet = fr.grid.synth_jet(V.T, order=1)
    gi, ft, fp = fr.dmu[:, None, None] * fr.g2inv, jet["ft"], jet["fp"]
    fields = {key: gi[:, a, 0] * ft + gi[:, a, 1] * fp for a, key in enumerate(("ft", "fp"))}
    fields["f"] = -lam[:, None] * fr.dmu * jet["f"]
    rnorm = np.linalg.norm(truncate_coeffs(fr.grid._analyze_jet(fields), fr.lmax), axis=1) / np.sqrt(np.min(fr.dmu))
    scale = float(np.max(np.diag(S) / np.diag(M)))
    if not np.max(rnorm) <= SPECTRUM_RTOL * scale:
        return None
    return lam, pad_coeffs(V.T, band, fr.lmax).T


def _sigma_min_weighted(fr: CurvatureField, a, band, R):
    """Smallest singular value of script-L (coefficient fields a) in the dmu-weighted L2 norm, from the band.

    With the band's mass matrix M = R^T R (R upper triangular), the
    weighted operator is W = R L R^{-1} acting on orthonormalized
    coordinates.  Block inverse iteration (_inverse_iteration) from one LU
    of the band's L gives its smallest singular value; below the full band
    it is returned where the full band certifies it (_certified_sigma_min),
    else None.  At the full band, where the condition estimate of L is at
    or below RCOND (at zero energy the translations are a kernel and L is
    singular), or the sweeps do not settle, the value is the full SVD's.
    """
    Lmat = fr.grid.operator_matrix(a, band)
    lu, rcond = _lu_rcond(Lmat)
    settled = _inverse_iteration(lu, R) if rcond > RCOND else None
    if band < fr.lmax:
        return None if settled is None else _certified_sigma_min(fr, a, lu, R, settled[1])
    if settled is not None:
        return settled[0]
    # W = (R L) R^{-1}, i.e. R^T W^T = (R L)^T
    W = scipy.linalg.solve_triangular(R, (R @ Lmat).T, trans="T").T
    return float(np.linalg.svd(W, compute_uv=False).min())


def _inverse_iteration(lu, R):
    """Block inverse iteration for sigma_min(W), W = R L R^{-1}, from one LU of L.

    Runs on W^T W without forming W (_sweep).  The start block holds the
    l = 1 triple, where the smallest singular values sit (the translations),
    and one guard column of equal weights on every harmonic; no random start.
    The smallest singular value of each sweep's W Q' is an upper bound on
    sigma_min(W) that falls to it; it settles at the first sweep that changes
    it by at most SPECTRUM_RTOL relative.  Returns (sigma, Q') of that sweep,
    from which _certified_sigma_min sweeps again, or None where the value
    does not settle in SIGMA_MIN_SWEEPS sweeps.
    """
    nb = R.shape[0]
    Q = np.zeros((nb, 4))
    Q[1:4, :3] = np.eye(3)  # the l = 1 harmonics, coeff_index(1, m) = 2 + m
    Q[:, 3] = 1.0 / math.sqrt(nb)
    smin = math.inf
    for _ in range(SIGMA_MIN_SWEEPS):
        Q, WQ = _sweep(lu, R, Q)
        prev, smin = smin, float(np.linalg.svd(WQ, compute_uv=False).min())
        if abs(prev - smin) <= SPECTRUM_RTOL * smin:
            return smin, Q
    return None


def _sweep(lu, R, Q):
    """One inverse-iteration sweep: (Q', W Q') with Y = (W^T W)^{-1} Q = Q' r by QR.

    (W^T W)^{-1} = R L^{-1} M^{-1} L^{-T} R^T is applied by the LU of L and
    triangular solves with R: T = R^{-T} L^{-T} R^T Q, then
    Y = R L^{-1} R^{-1} T, and W Q' = T r^{-1}.
    """
    T = scipy.linalg.solve_triangular(R, scipy.linalg.lu_solve(lu, R.T @ Q, trans=1), trans="T")
    Q, r = np.linalg.qr(R @ scipy.linalg.lu_solve(lu, scipy.linalg.solve_triangular(R, T)))
    return Q, scipy.linalg.solve_triangular(r, T.T, trans="T").T


def _certified_sigma_min(fr: CurvatureField, a, lu, Rc, Q):
    """The half-band sigma_min(W_c), where the full band certifies it; else None.

    The half-band operator W_c = R_c L_c R_c^{-1} has L_c = L[:nc, :nc] (the
    band-coarse operator_matrix on the same grid, factored in lu) and R_c
    the Cholesky factor of M_c, R[:nc, :nc] in exact arithmetic.  From the
    settled block Q of _inverse_iteration, two refining sweeps give the
    triplet (the singular vectors' error falls only as the square root of
    the value's): sigma, v = Q' y and w = (W Q') y / sigma, y the smallest
    right singular vector of the thin W Q'.  Zero-padded, the triplet has
    the full-band residuals r = W v - sigma w and s = W^T w - sigma v.  As R
    is upper triangular, y = R_c^{-1} v and z = R_c^{-1} w give
    |r| = |L y - sigma z|_M and |s| = |L^T M z - sigma M y|_{M^{-1}}, the
    latter at most |.| / sqrt(min dmu) as M >= min(dmu) I (laplace_spectrum).
    No full-band matrix is formed: L by synth_jet and analyze, L^T by the
    transposed jet analysis, M by the analysis of dmu times a synthesis,
    and the M norm as the quadrature of dmu u^2.

    The certificate (Jordan-Wielandt; B. Parlett, The Symmetric Eigenvalue
    Problem, section 10; G. Stewart and J. Sun, Matrix Perturbation Theory,
    1990): the symmetric [[0, W], [W^T, 0]] has the eigenvalues
    +-sigma_i(W), and the unit vector (w, v) / sqrt(2) has the residual
    sqrt((|r|^2 + |s|^2) / 2) <= max(|r|, |s|) against sigma, so some
    singular value of W lies within max(|r|, |s|) of sigma.  sigma is kept
    when both norms are at most SPECTRUM_RTOL of the scale |W x|, with
    x = R e_j / |R e_j| for the band's last harmonic j (l = |m| = lmax),
    i.e. |L e_j|_M / |e_j|_M: a lower bound on |W|_2, near its
    l(l + 1) / r^2, so the test is no looser than one against |W|_2.  Its
    limit: the residuals show that sigma is a singular value of W, not that
    it is the smallest.  That rests, as for the half-band eigenpairs
    (_eigenpairs), on the l > coarse block being dominated by the
    Laplacian, whose singular values there grow like l(l + 1) / r^2, far
    above the translational ones near 6 m / r^3 that set sigma_min.
    """
    grid, nc, nb = fr.grid, Rc.shape[0], n_coeffs(fr.lmax)
    for _ in range(2):
        Q, WQ = _sweep(lu, Rc, Q)
    U, S, Vt = np.linalg.svd(WQ, full_matrices=False)
    smin = float(S[-1])
    # y, z and e_j in one synth_jet; L y, L e_j, M y and M z in one analyze
    x = np.zeros((3, nb))
    x[:2, :nc] = scipy.linalg.solve_triangular(Rc, np.stack([Q @ Vt[-1], U[:, -1]], axis=1)).T
    x[2, -1] = 1.0
    jet = grid.synth_jet(x)
    dmu, f = fr.dmu, jet["f"]
    Lx = sum(c * jet[key][::2] for key, c in zip(_JET_DERIVATIVES, a))
    Ly, Le, My, Mz = truncate_coeffs(grid.analyze(np.concatenate([Lx, dmu * f[:2]])), fr.lmax)
    u = grid.synthesize(np.stack([Ly - smin * x[1], Le, Mz]))
    r, Le_norm = np.sqrt(fr.integrate(u[:2] ** 2))
    scale = float(Le_norm / np.sqrt(fr.integrate(f[2] ** 2)))
    LtMz = truncate_coeffs(grid._analyze_jet({key: c * u[2] for key, c in zip(_JET_DERIVATIVES, a)}), fr.lmax)
    s = np.linalg.norm(LtMz - smin * My) / np.sqrt(np.min(dmu))
    if max(r, s) <= SPECTRUM_RTOL * scale:
        return smin
    return None


def uniqueness_cross_check(prov, sigma, seeds, config: SolveConfig | None = None):
    """Max pairwise sup-distance between leaves converged from different seeds, and the solve results."""
    cfg = config or SolveConfig(lmax=seeds[0].lmax)
    solved = [newton_solve(prov, sigma, s, cfg) for s in seeds]
    base = solved[0].surface.center
    radii = np.stack([nodal_radius(res.surface, base) for res in solved])
    return float(np.max(np.ptp(radii, axis=0))), solved
