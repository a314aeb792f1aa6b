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
import math
from dataclasses import dataclass, field

import numpy as np

from .chart import EuclideanProvider, _finite_array, christoffel
from .errors import (
    BandLimitTooSmall,
    ConfigError,
    DegenerateInducedMetric,
    FoliationNotSupported,
    MaxIterations,
    NewtonDiverged,
    ShapeMismatch,
    TrappedRegion,
)
from .spectral import (
    _JET_DERIVATIVES,
    MIN_LMAX,
    dealias_lmax,
    get_grid,
    n_coeffs,
    pad_coeffs,
    synthesize_at,
    truncate_coeffs,
)


@dataclass
class GraphSurface:
    """Radial graph over the coordinate sphere of radius r0 about center."""

    center: np.ndarray
    r0: float
    coeffs: np.ndarray  # harmonic coefficients of the height f
    lmax: int

    def __post_init__(self):
        if self.lmax < MIN_LMAX:
            raise BandLimitTooSmall(f"surface band limit {self.lmax} < {MIN_LMAX}")
        self.center = _finite_array(self.center, (3,), "center")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (n_coeffs(self.lmax),):
            raise ConfigError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"expected {n_coeffs(self.lmax)} for lmax={self.lmax}"
            )
        if not 0 < self.r0 < np.inf:
            raise ConfigError(f"base radius must be finite and positive, got {self.r0!r}")

    @classmethod
    def round(cls, center, r0, lmax):
        return cls(center, float(r0), np.zeros(n_coeffs(lmax)), lmax)

    def radius_at(self, theta, phi):
        """r0 + f at scattered directions (nodal_radius reads the band's grid nodes)."""
        return self.r0 + synthesize_at(self.coeffs, theta, phi)

    def scaled(self, factor):
        """Radial rescaling about the own center: rho -> factor * rho."""
        return GraphSurface(self.center.copy(), factor * self.r0, factor * self.coeffs, self.lmax)

    def translated(self, shift):
        """Rigid translation of the surface (center moves, heights unchanged)."""
        return GraphSurface(self.center + _finite_array(shift, (3,), "shift"), self.r0, self.coeffs.copy(), self.lmax)


REBASE_MAX_ITER = 60


def rebase(surface: GraphSurface, new_center):
    """Re-express a surface as a radial graph about a different center.

    Solves |rho' w' - d| = rho(direction) per node by a scalar Newton
    iteration, where d = old_center - new_center.  The new base radius is the
    mean of rho' so the new height has small low-order content.  Raises
    MaxIterations when the iteration does not converge, e.g. when the new
    center lies outside the surface.
    """
    grid = get_grid(surface.lmax)
    new_center = _finite_array(new_center, (3,), "center")
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
    return GraphSurface(new_center, r0_new, grid.analyze(rho - r0_new), surface.lmax)


def nodal_radius(surface: GraphSurface, center):
    """Radius of the surface about center at the nodes of its band's grid.

    The surface is re-based only where center differs from its own.
    """
    if not np.array_equal(center, surface.center):
        surface = rebase(surface, center)
    return surface.r0 + get_grid(surface.lmax).synthesize(surface.coeffs)


@dataclass
class CurvatureField:
    """Per-node geometry of a surface in a given data set (on the working grid)."""

    grid: object = field(repr=False)
    lmax: int                                    # base band of the surface
    X: np.ndarray = field(repr=False)            # embedding points
    omega: np.ndarray = field(repr=False)        # base directions
    tang: np.ndarray = field(repr=False)         # tangents X_a, (n, 2, 3)
    g2inv: np.ndarray = field(repr=False)        # inverse induced metric, (n, 2, 2)
    dmu: np.ndarray = field(repr=False)          # area density wrt round dOmega
    nu: np.ndarray = field(repr=False)           # g-unit outward normal
    A2: np.ndarray = field(repr=False)           # |A|^2 of the second fundamental form
    H: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    stcmc: np.ndarray = field(repr=False)        # sqrt(H^2 - P^2)
    dmu_delta: np.ndarray = field(repr=False)    # Euclidean area density wrt round dOmega
    metric_jet: object = field(repr=False)
    extrinsic_jet: object = field(repr=False)
    hess: np.ndarray = field(repr=False)         # ambient Hessian D_ab = X_ab + Gamma(X_a, X_b), (n, 2, 2, 3)

    def integrate(self, values):
        return self.grid.integrate(values * self.dmu)

    @property
    def area(self):
        return self.grid.integrate(self.dmu)


def _embedding(surface: GraphSurface):
    """(grid, X, tang, sec, omega) on the dealiased grid.

    tang[:, a] = X_a, shape (n, 2, 3), and sec[:, a, b] = X_ab, shape
    (n, 2, 2, 3), are the embedding's parameter derivatives.  Raises
    DegenerateInducedMetric where the height reaches the base center.
    """
    grid = get_grid(dealias_lmax(surface.lmax))
    uv = grid.unit_vectors()
    jets = {k: v[:, None] for k, v in grid.synth_jet(pad_coeffs(surface.coeffs, surface.lmax, grid.lmax)).items()}
    R = surface.r0 + jets["f"]
    if np.any(R <= 0):
        raise DegenerateInducedMetric("graph height reaches the base center")
    o, ot, op = uv["o"], uv["ot"], uv["op"]
    X = surface.center + R * o
    tang = np.stack([jets["ft"] * o + R * ot, jets["fp"] * o + R * op], axis=1)
    Xtt = jets["ftt"] * o + 2.0 * jets["ft"] * ot + R * uv["ott"]
    Xtp = jets["ftp"] * o + jets["ft"] * op + jets["fp"] * ot + R * uv["otp"]
    Xpp = jets["fpp"] * o + 2.0 * jets["fp"] * op + R * uv["opp"]
    sec = np.stack([np.stack([Xtt, Xtp], axis=1), np.stack([Xtp, Xpp], axis=1)], axis=1)
    return grid, X, tang, sec, o


def _euclidean_density(grid, tang):
    """Euclidean area density wrt round dOmega from the stacked tangents (n, 2, 3)."""
    th, _ = grid.mesh()
    return np.sqrt(_det_2x2(np.einsum("nai,nbi->nab", tang, tang))) / np.sin(th)


def _euclidean_center(grid, X, dmu_delta):
    """Euclidean center int x dmu_delta / int dmu_delta."""
    return np.stack([grid.integrate(X[:, i] * dmu_delta) for i in range(3)]) / grid.integrate(dmu_delta)


def euclidean_center(surface: GraphSurface):
    """Euclidean center of a surface from its embedding alone (no provider, no frames).

    Bit-identical to surface_scalars(surface_frames(prov, surface)).center.
    """
    grid, X, tang, _, _ = _embedding(surface)
    return _euclidean_center(grid, X, _euclidean_density(grid, tang))


def _det_2x2(m):
    """Determinant of a stack of symmetric 2x2 matrices."""
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2


def _inverse_2x2(m):
    """Adjugate inverse and determinant of a stack of 2x2 matrices."""
    det = _det_2x2(m)
    inv = np.empty_like(m)
    inv[:, 0, 0] = m[:, 1, 1]
    inv[:, 1, 1] = m[:, 0, 0]
    inv[:, 0, 1] = -m[:, 0, 1]
    inv[:, 1, 0] = -m[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv /= det[:, None, None]
    return inv, det


def surface_frames(prov, surface: GraphSurface) -> CurvatureField:
    """Full curvature data of the surface in the data set, on the dealiased grid."""
    grid, X, tang, sec, om = _embedding(surface)
    mj = prov.metric_jet(X)
    ej = prov.extrinsic_jet(X)
    g = mj.g

    tangT = tang.transpose(0, 2, 1)
    g2 = tang @ g @ tangT
    g2inv, det2 = _inverse_2x2(g2)
    if np.any(det2 <= 0):
        raise DegenerateInducedMetric("induced metric has nonpositive determinant")

    # X_theta x X_phi points outward: its radial part is R^2 sin(theta) > 0
    v = np.einsum("nij,nj->ni", mj.ginv, np.cross(tang[:, 0], tang[:, 1]))
    vnorm = np.sqrt(np.einsum("ni,nij,nj->n", v, g, v))
    nu = v / vnorm[:, None]

    # Gamma^k_ij X_a^i X_b^j as (a, i) @ (i, j) @ (j, b) per (n, k), moved to [n, a, b, k]
    n = X.shape[0]
    gam_b = np.matmul(christoffel(mj).reshape(n, 9, 3), tangT).reshape(n, 3, 3, 2)
    hess = sec + np.matmul(tang[:, None], gam_b).transpose(0, 2, 3, 1)
    nu_low = np.einsum("nij,nj->ni", g, nu)
    A = -np.einsum("ni,nabi->nab", nu_low, hess)
    H = np.einsum("nab,nab->n", g2inv, A)
    Aring = A - 0.5 * H[:, None, None] * g2
    # |A|^2 = |Aring|^2 + H^2/2
    A2 = np.einsum("ncd,ncd->n", g2inv.transpose(0, 2, 1) @ Aring @ g2inv, Aring) + 0.5 * H**2

    P = np.einsum("nab,nab->n", g2inv, tang @ ej.K @ tangT)
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
        lmax=surface.lmax,
        X=X,
        omega=om,
        tang=tang,
        g2inv=g2inv,
        dmu=np.sqrt(det2) / st,
        nu=nu,
        A2=A2,
        H=H,
        P=P,
        stcmc=stcmc,
        dmu_delta=_euclidean_density(grid, tang),
        metric_jet=mj,
        extrinsic_jet=ej,
        hess=hess,
    )


@dataclass
class SurfaceScalars:
    area_radius: float
    center: np.ndarray
    hawking_mass: float


def surface_scalars(fr: CurvatureField):
    """Area radius, Euclidean center and Hawking mass of a surface."""
    area = fr.area
    mH = np.sqrt(area / (16.0 * np.pi)) * (1.0 - fr.integrate(fr.stcmc**2) / (16.0 * np.pi))
    return SurfaceScalars(
        area_radius=float(np.sqrt(area / (4.0 * np.pi))),
        center=_euclidean_center(fr.grid, fr.X, fr.dmu_delta),
        hawking_mass=float(mH),
    )


# -- quasilinear graph equation over the flat polar foliation ----------------

def check_sigma(sigma):
    """Raise ConfigError unless the leaf radius sigma is finite and positive."""
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be finite and positive, got {sigma!r}")


def _check_flat_metric(prov, points):
    g = prov.metric_jet(points).g
    if g.strides[0] == 0:  # a broadcast metric holds one distinct point
        g = g[:1]
    if np.max(np.abs(g - np.eye(3))) > 1e-12:
        raise FoliationNotSupported("graph residual requires the flat background metric")


def _height_jets(f_coeffs, lmax):
    """(grid, jets): the six height jets (synth_jet keys) on the dealiased grid, each (..., nnodes)."""
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    if f_coeffs.shape[-1:] != (n_coeffs(lmax),):
        raise ShapeMismatch(f"expected heights of {n_coeffs(lmax)} coefficients (lmax {lmax}), got shape {f_coeffs.shape}")
    grid = get_grid(dealias_lmax(lmax))
    return grid, grid.synth_jet(pad_coeffs(f_coeffs, lmax, grid.lmax))


def _graph_fields(sigma, grid, jets, prov):
    """(W, (G00, G01, G11), (b0, b1), F, P) of the graph equation at the height jets.

    Pointwise: each node's fields depend only on its position and its six jets.
    Every field is a scalar of shape (..., nnodes); G is the inverse metric.
    """
    prov = prov if prov is not None else EuclideanProvider()
    th, _ = grid.mesh()
    st, ct = np.sin(th), np.cos(th)
    uv = grid.unit_vectors()
    rho = sigma + jets["f"]
    if np.any(rho <= 0):
        raise DegenerateInducedMetric("graph reaches the origin")
    rho3 = rho[..., None]
    points = (rho3 * uv["o"]).reshape(-1, 3)
    _check_flat_metric(prov, points)

    ft, fp = jets["ft"], jets["fp"]
    # inverse of the leaf metric g_t = rho^2 (round metric), and df raised by it
    g0, g1 = 1.0 / rho**2, (1.0 / st**2) / rho**2
    u0, u1 = g0 * ft, g1 * fp
    W2 = 1.0 + (ft * u0 + fp * u1)
    W = np.sqrt(W2)
    G00, G01, G11 = g0 - u0 * u0 / W2, -(u0 * u1 / W2), g1 - u1 * u1 / W2

    # round-sphere Christoffels: Gam^theta_pp = -sin cos, Gam^phi_tp = cot
    b = (-G11 * (-st * ct) / W, -2.0 * G01 * (ct / st) / W)
    # (A_t)_ab = rho ghat_ab and (A_t)^g_a = delta^g_a / rho, so 2 (A_t)^g_a f_b f_g
    # = 2 f_a f_b / rho.  Outward-normal graph curvature is G(-hess f + A_t + quad)/W:
    # the residual a d2f + b df - F with a = G/W then needs F = G(A_t + quad)/W - sqrt(...),
    # which makes translated round spheres exact roots in the flat vacuum case.
    q = 2.0 / rho
    curv = (G00 * (rho + q * ft * ft) + 2.0 * G01 * (q * ft * fp) + G11 * (rho * st**2 + q * fp * fp)) / W

    # P = G^{ab} K(X_a, X_b) with the graph tangents X_a = f_a o + rho o_a
    K = prov.extrinsic_jet(points).K.reshape(rho.shape + (3, 3))
    Xt = ft[..., None] * uv["o"] + rho3 * uv["ot"]
    Xp = fp[..., None] * uv["o"] + rho3 * uv["op"]
    KXt, KXp = (K @ Xt[..., None])[..., 0], (K @ Xp[..., None])[..., 0]
    P = (
        G00 * np.einsum("...i,...i", Xt, KXt)
        + 2.0 * G01 * np.einsum("...i,...i", Xt, KXp)
        + G11 * np.einsum("...i,...i", Xp, KXp)
    )
    F = curv - np.sqrt(P**2 + 4.0 / sigma**2)
    return W, (G00, G01, G11), b, F, P


def _pointwise_residual(sigma, grid, jets, prov):
    """Nodal residual a^{ab} d2f + b^a df - F at the height jets."""
    W, (G00, G01, G11), (b0, b1), F, _ = _graph_fields(sigma, grid, jets, prov)
    hess = G00 * jets["ftt"] + 2.0 * G01 * jets["ftp"] + G11 * jets["fpp"]
    return hess / W + b0 * jets["ft"] + b1 * jets["fp"] - F


def appendix_graph_residual(sigma, f_coeffs, lmax, prov=None):
    """Nodal residual a^{ab} d2f + b^a df - F of the graph equation.

    The background is flat space foliated by round spheres along radial
    geodesics; the prescribed surface has Lorentzian mean curvature 2/sigma.
    f_coeffs has shape (..., n_coeffs(lmax)); the residual has shape
    (..., nnodes) on the dealiased grid.
    """
    check_sigma(sigma)
    grid, jets = _height_jets(f_coeffs, lmax)
    return _pointwise_residual(sigma, grid, jets, prov)


def _graph_jacobian(sigma, f_coeffs, lmax, prov):
    """Base-band Jacobian of the projected graph-equation residual at one height.

    The residual is pointwise in the height jets, so its derivative along each
    jet is one central difference (+-h, h = 1e-7 max(1, sigma)) taken at every
    node at once; the 12 perturbed jet rows go through one pointwise evaluation.  operator_matrix
    is the quadrature of analyze on the same grid, so the result linearizes
    truncate(analyze(residual)).
    """
    grid, jets = _height_jets(f_coeffs, lmax)
    h = 1e-7 * max(1.0, sigma)
    keys = list(_JET_DERIVATIVES)
    rows = {key: np.repeat(v[None], 2 * len(keys), axis=0) for key, v in jets.items()}
    for i, key in enumerate(keys):
        rows[key][2 * i] += h
        rows[key][2 * i + 1] -= h
    R = _pointwise_residual(sigma, grid, rows, prov).reshape(len(keys), 2, -1)
    return grid.operator_matrix((R[:, 0] - R[:, 1]) / (2.0 * h), lmax)


GRAPH_MAX_ITER = 40
# A chord step (a full step through the last Jacobian's pseudo-inverse) is
# kept when it lowers the projected residual sup by at least this factor;
# otherwise the Jacobian is rebuilt.  At 2 a stale pseudo-inverse lets the
# root drift along the near-kernel of translations (curvature defect 3.2e-10
# in test_graph_equation_root_matches_embedding); at 4 it is 5.85e-11, as
# with a fresh Jacobian every step (5.81e-11).
CHORD_CONTRACTION = 4.0


def solve_graph_residual(sigma, f0_coeffs, lmax, prov=None, tol=1e-12):
    """Chord-Newton-solve the graph equation with a finite-difference Jacobian.

    Deliberately independent of the embedding-based machinery so the two
    routes to a prescribed-curvature surface can be cross-checked.  Each
    Jacobian is built from central differences of the pointwise residual in
    the six height jets (_graph_jacobian) and factorized once, as its
    pseudo-inverse (the min-norm cutoff rcond 1e-10); it only steers the
    iteration, which stops when appendix_graph_residual's projected residual
    sup falls below tol.  Every step first tries the full chord step through
    the last pseudo-inverse and keeps it if it lowers the projected residual
    sup by CHORD_CONTRACTION; otherwise (or if that step reaches the origin)
    the Jacobian is rebuilt at the current iterate and a damped Newton step
    is taken.  Raises ConfigError for a sigma that is not finite and
    positive and ShapeMismatch for a seed that is not one height of
    n_coeffs(lmax) coefficients, before any evaluation; MaxIterations after
    GRAPH_MAX_ITER steps, NewtonDiverged when 30 halvings of a fresh step do
    not lower the residual sup (DegenerateInducedMetric if the last one still
    reaches the origin), with sigma, iteration and sup in the message;
    MaxIterations and NewtonDiverged also carry them as attributes.
    """
    check_sigma(sigma)
    nb = n_coeffs(lmax)
    f = np.asarray(f0_coeffs, dtype=float).copy()
    if f.shape != (nb,):
        raise ShapeMismatch(f"expected one height of {nb} coefficients (lmax {lmax}), got shape {f.shape}")
    grid = get_grid(dealias_lmax(lmax))

    def proj_res(fc):
        r = appendix_graph_residual(sigma, fc, lmax, prov)
        return truncate_coeffs(grid.analyze(r), lmax)

    def trial(fc):
        try:
            return proj_res(fc)
        except DegenerateInducedMetric:
            return None

    R = proj_res(f)
    Jpinv = None
    for it in range(GRAPH_MAX_ITER):
        # converge on the projected system; the nodal sup also reflects
        # truncation of the data and is reported by the caller if needed
        rnorm = np.max(np.abs(R))
        if rnorm < tol:
            return f
        if Jpinv is not None:
            step = -(Jpinv @ R)
            R_try = trial(f + step)
            if R_try is not None and CHORD_CONTRACTION * np.max(np.abs(R_try)) <= rnorm:
                f = f + step
                R = R_try
                continue
        J = _graph_jacobian(sigma, f, lmax, prov)
        # min-norm step (translations are a near-kernel in flat space) with
        # backtracking: the raw step can be huge along those directions
        Jpinv = np.linalg.pinv(J, rcond=1e-10)
        step = -(Jpinv @ R)
        scale = 1.0
        for _ in range(30):
            R_try = trial(f + scale * step)
            if R_try is not None and np.max(np.abs(R_try)) < rnorm:
                break
            scale *= 0.5
        else:
            context = f"sigma {sigma:g}, iteration {it}: graph-equation residual sup {rnorm:.3e}"
            if R_try is None:
                raise DegenerateInducedMetric(f"{context}; the shortest damped step still reaches the origin")
            raise NewtonDiverged(
                f"{context} not lowered by 30 damped steps", sigma=float(sigma), iteration=it, residual_sup=float(rnorm)
            )
        f = f + scale * step
        R = R_try
    rnorm = np.max(np.abs(R))
    raise MaxIterations(
        f"sigma {sigma:g}, iteration {GRAPH_MAX_ITER}: graph-equation residual sup {rnorm:.3e}",
        sigma=float(sigma), iteration=GRAPH_MAX_ITER, residual_sup=float(rnorm),
    )


def surface_to_csv(fr: CurvatureField, surface: GraphSurface, path):
    """Per-node snapshot of the surface and its frames: theta, phi, f, H, P, stcmc, with a metadata header."""
    if fr.lmax != surface.lmax:
        raise ConfigError(f"frames of band {fr.lmax} do not belong to a surface of band {surface.lmax}")
    th, ph = fr.grid.mesh()
    f_nodal = fr.grid.synthesize(pad_coeffs(surface.coeffs, surface.lmax, fr.grid.lmax))
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
