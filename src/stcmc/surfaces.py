"""Closed 2-surfaces as radial graphs and their geometry in an initial data set.

A surface is stored as harmonic coefficients of the height f over a base
coordinate sphere: embedding X(omega) = center + (r0 + f(omega)) * omega.
All pointwise geometry (induced metric, normal, second fundamental form,
mean curvature H, expansion trace P = tr_Sigma K, and the Lorentzian norm
sqrt(H^2 - P^2) of the mean curvature vector) is obtained by exact pullback
of the analytic ambient jets through the embedding, with angular derivatives
of f taken spectrally on a dealiased working grid.  The ambient covariant
Hessian D_ab = X_ab + Gamma(X_a, X_b) of the embedding is formed once: its
normal part gives A = -g(nu, D) and its tangential part the induced
connection (Gauss formula) that the solver's Laplacian uses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import chart
from .chart import as_provider, christoffel
from .errors import (
    ConfigError,
    DegenerateInducedMetric,
    FoliationNotSupported,
    MaxIterations,
    TrappedRegion,
)
from .spectral import (
    dealias_lmax,
    get_grid,
    n_coeffs,
    pad_coeffs,
    synthesize_at,
    truncate_coeffs,
)


def _as_center(center):
    center = np.asarray(center, dtype=float)
    if center.size != 3:
        raise ConfigError(f"center must be a 3-vector, got shape {center.shape}")
    return center.reshape(3)


@dataclass
class GraphSurface:
    """Radial graph over the coordinate sphere of radius r0 about center."""

    center: np.ndarray
    r0: float
    coeffs: np.ndarray  # harmonic coefficients of the height f
    lmax: int

    def __post_init__(self):
        self.center = _as_center(self.center)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (n_coeffs(self.lmax),):
            raise ConfigError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"expected {n_coeffs(self.lmax)} for lmax={self.lmax}"
            )
        if self.r0 <= 0:
            raise ConfigError("base radius must be positive")

    @classmethod
    def round(cls, center, r0, lmax):
        return cls(np.asarray(center, dtype=float), float(r0), np.zeros(n_coeffs(lmax)), lmax)

    @classmethod
    def from_nodal(cls, grid, center, r0, values):
        return cls(np.asarray(center, dtype=float), float(r0), grid.analyze(values), grid.lmax)

    def nodal(self, grid=None):
        grid = grid or get_grid(self.lmax)
        if grid.lmax == self.lmax:
            return grid.synthesize(self.coeffs)
        return grid.synthesize(pad_coeffs(self.coeffs, self.lmax, grid.lmax))

    def radius_at(self, theta, phi):
        """r0 + f at arbitrary directions (for re-basing and leaf comparison)."""
        return self.r0 + synthesize_at(self.coeffs, theta, phi)

    def scaled(self, factor):
        """Radial rescaling about the own center: rho -> factor * rho."""
        return GraphSurface(self.center.copy(), factor * self.r0, factor * self.coeffs, self.lmax)

    def translated(self, shift):
        """Rigid translation of the surface (center moves, heights unchanged)."""
        return GraphSurface(self.center + np.asarray(shift, dtype=float), self.r0, self.coeffs.copy(), self.lmax)


REBASE_MAX_ITER = 60


def rebase(surface: GraphSurface, new_center, lmax=None):
    """Re-express a surface as a radial graph about a different center.

    Solves |rho' w' - d| = rho(direction) per node by a scalar Newton
    iteration, where d = old_center - new_center.  The new base radius is the
    mean of rho' so the new height has small low-order content.  Raises
    MaxIterations when the iteration does not converge, e.g. when the new
    center lies outside the surface.
    """
    lmax = lmax or surface.lmax
    grid = get_grid(lmax)
    new_center = _as_center(new_center)
    d = surface.center - new_center
    om = grid.unit_vectors()["o"]
    rho = np.full(grid.nnodes, float(surface.r0))
    for _ in range(REBASE_MAX_ITER):
        q = rho[:, None] * om - d[None, :]
        qn = np.linalg.norm(q, axis=1)
        theta = np.arccos(np.clip(q[:, 2] / qn, -1.0, 1.0))
        phi = np.mod(np.arctan2(q[:, 1], q[:, 0]), 2.0 * np.pi)
        target = surface.radius_at(theta, phi)
        F = qn - target
        # dF/drho ~ d|q|/drho = (q . w')/|q|; the target variation is higher order
        dF = np.einsum("ni,ni->n", q, om) / qn
        step = F / dF
        rho = rho - step
        if np.max(np.abs(step)) < 1e-13 * surface.r0:
            break
    else:
        raise MaxIterations(
            f"rebase to center {new_center} did not converge in {REBASE_MAX_ITER} iterations; "
            f"last max|step|/r0 = {np.max(np.abs(step)) / surface.r0:.3e}"
        )
    r0_new = grid.integrate(rho) / (4.0 * np.pi)
    coeffs = grid.analyze(rho - r0_new)
    return GraphSurface(new_center, r0_new, truncate_coeffs(coeffs, lmax), lmax)


@dataclass
class CurvatureField:
    """Per-node geometry of a surface in a given data set (on the working grid)."""

    grid: object = field(repr=False)
    X: np.ndarray = field(repr=False)            # embedding points
    omega: np.ndarray = field(repr=False)        # base directions
    tangents: tuple = field(repr=False)          # (X_theta, X_phi)
    g2: np.ndarray = field(repr=False)           # induced metric, (n, 2, 2)
    g2inv: np.ndarray = field(repr=False)
    dmu: np.ndarray = field(repr=False)          # area density wrt round dOmega
    nu: np.ndarray = field(repr=False)           # g-unit outward normal
    A: np.ndarray = field(repr=False)            # second fundamental form
    Aring2: np.ndarray = field(repr=False)       # |tracefree A|^2
    H: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    stcmc: np.ndarray = field(repr=False)        # sqrt(H^2 - P^2)
    dmu_delta: np.ndarray = field(repr=False)
    nu_delta: np.ndarray = field(repr=False)
    A_delta: np.ndarray = field(repr=False)
    H_delta: np.ndarray = field(repr=False)
    delta2inv: np.ndarray = field(repr=False)    # inverse euclidean induced metric
    metric_jet: object = field(repr=False)
    extrinsic_jet: object = field(repr=False)
    hess: np.ndarray = field(repr=False)         # ambient Hessian D_ab = X_ab + Gamma(X_a, X_b), (n, 2, 2, 3)

    def integrate(self, values, measure="g"):
        dens = self.dmu if measure == "g" else self.dmu_delta
        return self.grid.integrate(values * dens)

    @property
    def area(self):
        return self.grid.integrate(self.dmu)

    @property
    def area_delta(self):
        return self.grid.integrate(self.dmu_delta)


def embedding_nodes(surface: GraphSurface, grid):
    """Embedding X and its first/second parameter derivatives on a grid."""
    uv = grid.unit_vectors()
    jets = grid.synth_jet(pad_coeffs(surface.coeffs, surface.lmax, grid.lmax))
    R = surface.r0 + jets["f"]
    X = surface.center + R[:, None] * uv["o"]
    Xt = jets["ft"][:, None] * uv["o"] + R[:, None] * uv["ot"]
    Xp = jets["fp"][:, None] * uv["o"] + R[:, None] * uv["op"]
    Xtt = jets["ftt"][:, None] * uv["o"] + 2.0 * jets["ft"][:, None] * uv["ot"] + R[:, None] * uv["ott"]
    Xtp = (
        jets["ftp"][:, None] * uv["o"]
        + jets["ft"][:, None] * uv["op"]
        + jets["fp"][:, None] * uv["ot"]
        + R[:, None] * uv["otp"]
    )
    Xpp = jets["fpp"][:, None] * uv["o"] + 2.0 * jets["fp"][:, None] * uv["op"] + R[:, None] * uv["opp"]
    return X, (Xt, Xp), (Xtt, Xtp, Xpp), uv["o"], R


def _inverse_2x2(m):
    """Adjugate inverse and determinant of a stack of 2x2 matrices."""
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2
    inv = np.empty_like(m)
    inv[:, 0, 0] = m[:, 1, 1]
    inv[:, 1, 1] = m[:, 0, 0]
    inv[:, 0, 1] = -m[:, 0, 1]
    inv[:, 1, 0] = -m[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv /= det[:, None, None]
    return inv, det


def surface_frames(spec, surface: GraphSurface) -> CurvatureField:
    """Full curvature data of the surface in the data set, on the dealiased grid."""
    prov = as_provider(spec)
    grid = get_grid(dealias_lmax(surface.lmax))
    X, (Xt, Xp), (Xtt, Xtp, Xpp), om, R = embedding_nodes(surface, grid)
    if np.any(R <= 0):
        raise DegenerateInducedMetric("graph height reaches the base center")
    mj = prov.metric_jet(X)
    ej = prov.extrinsic_jet(X)
    g = mj.g

    tang = np.stack([Xt, Xp], axis=1)                       # (n, 2, 3)
    g2 = np.einsum("nai,nij,nbj->nab", tang, g, tang)
    g2inv, det2 = _inverse_2x2(g2)
    if np.any(det2 <= 0):
        raise DegenerateInducedMetric("induced metric has nonpositive determinant")

    ncross = np.cross(Xt, Xp)
    orient = np.einsum("ni,ni->n", ncross, X - surface.center)
    ncross[orient < 0] *= -1.0
    v = np.einsum("nij,nj->ni", mj.ginv, ncross)
    vnorm = np.sqrt(np.einsum("ni,nij,nj->n", v, g, v))
    nu = v / vnorm[:, None]
    nu_delta = ncross / np.linalg.norm(ncross, axis=1)[:, None]

    sec = np.stack([np.stack([Xtt, Xtp], axis=1), np.stack([Xtp, Xpp], axis=1)], axis=1)  # (n,2,2,3)
    hess = sec + np.einsum("nkij,nai,nbj->nabk", christoffel(mj), tang, tang)
    nu_low = np.einsum("nij,nj->ni", g, nu)
    A = -np.einsum("ni,nabi->nab", nu_low, hess)
    H = np.einsum("nab,nab->n", g2inv, A)
    Aring = A - 0.5 * H[:, None, None] * g2
    Aring2 = np.einsum("nac,nbd,nab,ncd->n", g2inv, g2inv, Aring, Aring)

    d2inv, ddet2 = _inverse_2x2(np.einsum("nai,nbi->nab", tang, tang))
    A_delta = -np.einsum("ni,nabi->nab", nu_delta, sec)
    H_delta = np.einsum("nab,nab->n", d2inv, A_delta)

    P = np.einsum("nab,nai,nbj,nij->n", g2inv, tang, tang, ej.K)
    h2p2 = H**2 - P**2
    if np.any(h2p2 < 0):
        raise TrappedRegion(
            f"H^2 - P^2 reaches {h2p2.min():.3e}: mean curvature vector not spacelike"
        )
    stcmc = np.sqrt(h2p2)

    th, _ = grid.mesh()
    st = np.sin(th)
    return CurvatureField(
        grid=grid,
        X=X,
        omega=om,
        tangents=(Xt, Xp),
        g2=g2,
        g2inv=g2inv,
        dmu=np.sqrt(det2) / st,
        nu=nu,
        A=A,
        Aring2=Aring2,
        H=H,
        P=P,
        stcmc=stcmc,
        dmu_delta=np.sqrt(ddet2) / st,
        nu_delta=nu_delta,
        A_delta=A_delta,
        H_delta=H_delta,
        delta2inv=d2inv,
        metric_jet=mj,
        extrinsic_jet=ej,
        hess=hess,
    )


@dataclass
class SurfaceScalars:
    area_g: float
    area_delta: float
    area_radius: float
    center: np.ndarray
    hawking_mass: float
    geroch_mass: float
    willmore_deficit: float
    min_coord_radius: float
    max_coord_radius: float


def surface_scalars(spec, surface: GraphSurface, frames: CurvatureField | None = None):
    fr = frames if frames is not None else surface_frames(spec, surface)
    area = fr.area
    area_d = fr.area_delta
    r = np.sqrt(area / (4.0 * np.pi))
    z = np.stack([fr.integrate(fr.X[:, i], measure="delta") for i in range(3)]) / area_d
    int_st2 = fr.integrate(fr.stcmc**2)
    int_h2 = fr.integrate(fr.H**2)
    mH = np.sqrt(area / (16.0 * np.pi)) * (1.0 - int_st2 / (16.0 * np.pi))
    mG = np.sqrt(area / (16.0 * np.pi)) * (1.0 - int_h2 / (16.0 * np.pi))
    coord_r = np.linalg.norm(fr.X, axis=1)
    return SurfaceScalars(
        area_g=float(area),
        area_delta=float(area_d),
        area_radius=float(r),
        center=z,
        hawking_mass=float(mH),
        geroch_mass=float(mG),
        willmore_deficit=float(int_h2 - 16.0 * np.pi),
        min_coord_radius=float(coord_r.min()),
        max_coord_radius=float(coord_r.max()),
    )


@dataclass
class AprioriCheck:
    center_ok: bool
    radius_ok: bool
    willmore_ok: bool
    center_slack: float
    radius_slack: float
    willmore_slack: float

    @property
    def all_ok(self):
        return self.center_ok and self.radius_ok and self.willmore_ok


# Relative roundoff allowance of the a-priori class inequalities: ~20x the
# quadrature error measured on flat round spheres, ~1e5x below the Willmore
# deficit (2.4e-7) of a radius-10 flat sphere with an l=2 height coefficient 1e-3.
APRIORI_ROUNDOFF = 64.0 * np.finfo(float).eps


def apriori_class_check(spec, surface: GraphSurface, a, b, eta, eps):
    """Membership in the asymptotically-centered class (genus 0).

    Checks |z| <= a r + b r^(1-eta),  r^(2+eta) <= min |x|^(5/2+eps)  and
    int H^2 dmu - 16 pi <= b / r^eta.  Each `*_ok` flag allows a roundoff of
    APRIORI_ROUNDOFF times the magnitude the compared quantities carry: the
    largest coordinate radius max |x| for the center bound, the larger side
    for the radius bound and 16 pi for the Willmore bound, so the equality
    cases of a flat round sphere (zero deficit; |z| = 0 when centered) pass.
    The `*_slack` fields are the raw rhs - lhs, without allowance.
    """
    fr = surface_frames(spec, surface)
    sc = surface_scalars(spec, surface, fr)
    r = sc.area_radius
    zn = np.linalg.norm(sc.center)
    lhs1, rhs1 = zn, a * r + b * r ** (1.0 - eta)
    lhs2, rhs2 = r ** (2.0 + eta), sc.min_coord_radius ** (2.5 + eps)
    lhs3, rhs3 = sc.willmore_deficit, b / r**eta
    return AprioriCheck(
        center_ok=bool(lhs1 <= rhs1 + APRIORI_ROUNDOFF * sc.max_coord_radius),
        radius_ok=bool(lhs2 <= rhs2 + APRIORI_ROUNDOFF * max(lhs2, rhs2)),
        willmore_ok=bool(lhs3 <= rhs3 + APRIORI_ROUNDOFF * 16.0 * np.pi),
        center_slack=float(rhs1 - lhs1),
        radius_slack=float(rhs2 - lhs2),
        willmore_slack=float(rhs3 - lhs3),
    )


def euclidean_comparison(spec, surface: GraphSurface):
    """Sup norms of the flat-vs-curved frame differences on the surface."""
    fr = surface_frames(spec, surface)
    dnu = np.linalg.norm(fr.nu - fr.nu_delta, axis=1).max()
    dA = fr.A - fr.A_delta
    dA_norm = np.sqrt(np.einsum("nac,nbd,nab,ncd->n", fr.delta2inv, fr.delta2inv, dA, dA))
    dH = np.abs(fr.H - fr.H_delta).max()
    rel_dmu = np.abs(fr.dmu / fr.dmu_delta - 1.0).max()
    return {
        "nu": float(dnu),
        "A": float(dA_norm.max()),
        "H": float(dH),
        "dmu_rel": float(rel_dmu),
    }


# -- parametrized-surface utilities (used by variation checks) ---------------

def parametrized_area_and_center(grid, X, metric_of=None):
    """Area and Euclidean center of an arbitrary nodal immersion X on a grid.

    Tangents are obtained by spectral differentiation of the components of X.
    If metric_of is a provider, the area is taken in its metric; otherwise the
    Euclidean one.
    """
    th, _ = grid.mesh()
    st = np.sin(th)
    comps = [grid.analyze(X[:, i]) for i in range(3)]
    jets = [grid.synth_jet(c) for c in comps]
    Xt = np.stack([j["ft"] for j in jets], axis=1)
    Xp = np.stack([j["fp"] for j in jets], axis=1)
    tang = np.stack([Xt, Xp], axis=1)
    if metric_of is not None:
        g = metric_of.metric_jet(X).g
    else:
        g = np.broadcast_to(np.eye(3), (X.shape[0], 3, 3))
    g2 = np.einsum("nai,nij,nbj->nab", tang, g, tang)
    det2 = g2[:, 0, 0] * g2[:, 1, 1] - g2[:, 0, 1] ** 2
    dens = np.sqrt(det2) / st
    d2 = np.einsum("nai,nbi->nab", tang, tang)
    det2d = d2[:, 0, 0] * d2[:, 1, 1] - d2[:, 0, 1] ** 2
    dens_d = np.sqrt(det2d) / st
    area = grid.integrate(dens)
    area_d = grid.integrate(dens_d)
    center = np.stack([grid.integrate(X[:, i] * dens_d) for i in range(3)]) / area_d
    return area, center


# -- quasilinear graph equation over the flat polar foliation ----------------

def _check_flat_metric(prov, points):
    g = prov.metric_jet(points).g
    if np.max(np.abs(g - np.eye(3))) > 1e-12:
        raise FoliationNotSupported("graph residual requires the flat background metric")


def appendix_graph_coefficients(sigma, f_coeffs, lmax, spec=None):
    """Coefficient fields (a, b, F) of the quasilinear graph equation.

    The background is flat space foliated by round spheres along radial
    geodesics; the prescribed surface has Lorentzian mean curvature 2/sigma.
    f_coeffs has shape (..., n_coeffs(lmax)); returns nodal dicts on the
    dealiased grid with the same leading axes.
    """
    prov = as_provider(spec) if spec is not None else chart.EuclideanProvider()
    grid = get_grid(dealias_lmax(lmax))
    th, _ = grid.mesh()
    st, ct = np.sin(th), np.cos(th)
    jets = grid.synth_jet(pad_coeffs(np.asarray(f_coeffs, dtype=float), lmax, grid.lmax))
    uv = grid.unit_vectors()
    rho = sigma + jets["f"]
    if np.any(rho <= 0):
        raise DegenerateInducedMetric("graph reaches the origin")
    X = rho[..., None] * uv["o"]
    points = X.reshape(-1, 3)
    _check_flat_metric(prov, points)

    ghat_inv = np.zeros((grid.nnodes, 2, 2))
    ghat_inv[:, 0, 0] = 1.0
    ghat_inv[:, 1, 1] = 1.0 / st**2
    gt_inv = ghat_inv / rho[..., None, None] ** 2
    df = np.stack([jets["ft"], jets["fp"]], axis=-1)
    df_up = np.einsum("...ab,...b->...a", gt_inv, df)
    df2 = np.einsum("...a,...a->...", df, df_up)
    W2 = 1.0 + df2
    W = np.sqrt(W2)
    G = gt_inv - df_up[..., :, None] * df_up[..., None, :] / W2[..., None, None]

    a = G / W[..., None, None]
    # round-sphere Christoffels: Gam^theta_pp = -sin cos, Gam^phi_tp = cot
    b = np.stack([-G[..., 1, 1] * (-st * ct) / W, -2.0 * G[..., 0, 1] * (ct / st) / W], axis=-1)

    At = rho[..., None, None] * np.stack(
        [np.stack([np.ones_like(st), np.zeros_like(st)], axis=1),
         np.stack([np.zeros_like(st), st**2], axis=1)], axis=1)
    # (A_t)^g_a = delta^g_a / rho, so 2 (A_t)^g_a f_b f_g = 2 f_a f_b / rho
    quad = 2.0 * df[..., :, None] * df[..., None, :] / rho[..., None, None]
    # Outward-normal graph curvature is G(-hess f + A_t + quad)/W: the residual
    # a d2f + b df - F with a = G/W then needs F = G(A_t + quad)/W - sqrt(...),
    # which makes translated round spheres exact roots in the flat vacuum case.
    curv = np.einsum("...ab,...ab->...", G, At + quad) / W

    K = prov.extrinsic_jet(points).K.reshape(X.shape + (3,))
    e_t = rho[..., None] * uv["ot"]
    e_p = rho[..., None] * uv["op"]
    frame = np.stack([e_t, e_p], axis=-2)
    K_ab = frame @ K @ frame.swapaxes(-1, -2)
    Ko = (uv["o"][..., None, :] @ K)[..., 0, :]              # o_i K_ij
    K_ta = (frame @ Ko[..., None])[..., 0]
    K_tt = (Ko[..., None, :] @ uv["o"][..., None])[..., 0, 0]
    P = np.einsum(
        "...ab,...ab->...",
        G,
        K_ab + 2.0 * df[..., :, None] * K_ta[..., None, :] + df[..., :, None] * df[..., None, :] * K_tt[..., None, None],
    )
    F = curv - np.sqrt(P**2 + 4.0 / sigma**2)
    return {"grid": grid, "jets": jets, "a": a, "b": b, "F": F, "P": P}


def appendix_graph_residual(sigma, f_coeffs, lmax, spec=None):
    """Nodal residual a^{ab} d2f + b^a df - F of the graph equation.

    f_coeffs has shape (..., n_coeffs(lmax)); the residual has shape
    (..., nnodes) on the dealiased grid.
    """
    c = appendix_graph_coefficients(sigma, f_coeffs, lmax, spec)
    jets = c["jets"]
    hess = np.stack(
        [np.stack([jets["ftt"], jets["ftp"]], axis=-1), np.stack([jets["ftp"], jets["fpp"]], axis=-1)],
        axis=-2,
    )
    df = np.stack([jets["ft"], jets["fp"]], axis=-1)
    return np.einsum("...ab,...ab->...", c["a"], hess) + np.einsum("...a,...a->...", c["b"], df) - c["F"]


# Perturbed coefficient vectors per batched residual call in the
# finite-difference Jacobian of solve_graph_residual.  Peak memory grows with
# it: the flatness check asks the provider for full metric jets at every node
# of every row (peak RSS of one lmax-10 root: 67 MB before the root, 74 MB at
# 16 rows, 103 MB at 64, 151 MB with all 242 rows in one call).
FD_BLOCK = 16


def solve_graph_residual(sigma, f0_coeffs, lmax, spec=None, tol=1e-12, max_iter=40):
    """Newton-solve the graph equation with a finite-difference Jacobian.

    Deliberately independent of the embedding-based machinery so the two
    routes to a prescribed-curvature surface can be cross-checked.  The
    central differences f +- h e_j are evaluated FD_BLOCK rows per residual
    call.
    """
    grid = get_grid(dealias_lmax(lmax))
    nb = n_coeffs(lmax)
    f = np.asarray(f0_coeffs, dtype=float).copy()
    h = 1e-7 * max(1.0, sigma)
    E = h * np.eye(nb)

    def proj_res(fc):
        r = appendix_graph_residual(sigma, fc, lmax, spec)
        return truncate_coeffs(grid.analyze(r), lmax)

    R = proj_res(f)
    for _ in range(max_iter):
        # converge on the projected system; the nodal sup also reflects
        # truncation of the data and is reported by the caller if needed
        rnorm = np.max(np.abs(R))
        if rnorm < tol:
            return f
        rows = np.concatenate([f + E, f - E])
        R_pm = np.concatenate([proj_res(rows[i : i + FD_BLOCK]) for i in range(0, 2 * nb, FD_BLOCK)])
        J = ((R_pm[:nb] - R_pm[nb:]) / (2.0 * h)).T
        # min-norm step (translations are a near-kernel in flat space) with
        # backtracking: the raw step can be huge along those directions
        step = np.linalg.lstsq(J, -R, rcond=1e-10)[0]
        scale = 1.0
        for _ in range(30):
            try:
                R_try = proj_res(f + scale * step)
            except DegenerateInducedMetric:
                scale *= 0.5
                continue
            if np.max(np.abs(R_try)) < rnorm:
                break
            scale *= 0.5
        else:
            raise DegenerateInducedMetric("graph-equation Newton stalled")
        f = f + scale * step
        R = R_try
    raise DegenerateInducedMetric("graph-equation Newton did not converge")


def surface_to_csv(spec, surface: GraphSurface, path):
    """Per-node snapshot: theta, phi, f, H, P, stcmc, with a metadata header."""
    fr = surface_frames(spec, surface)
    th, ph = fr.grid.mesh()
    f_nodal = surface.nodal(fr.grid)
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# center = {surface.center[0]:.17g} {surface.center[1]:.17g} "
            f"{surface.center[2]:.17g}, r0 = {surface.r0:.17g}, lmax = {surface.lmax}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["theta", "phi", "f", "H", "P", "stcmc"])
        for i in range(fr.grid.nnodes):
            writer.writerow(
                [f"{v:.17g}" for v in (th[i], ph[i], f_nodal[i], fr.H[i], fr.P[i], fr.stcmc[i])]
            )
