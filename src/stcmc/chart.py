"""Initial-data providers: pointwise metric/extrinsic-curvature jets in the asymptotic chart.

Every provider returns exact analytic jets (values plus first and second
derivatives of the metric, values plus first derivatives of the extrinsic
curvature); finite differencing appears only in test oracles.  Providers
take points of shape (n, 3), and the curvature operations take the jets they
return.  A provider call forms only g, dg and K; ddg and dK, which only the
curvature of the data (Ricci, nabla K, and their contractions along a normal
in _normal_contractions) and the constraint densities read, are formed from
the points on first read.  Index layout:

    g[n, i, j]              metric components
    dg[n, i, j, k]          d_k g_ij
    ddg[n, i, j, k, l]      d_k d_l g_ij
    K[n, i, j]              extrinsic curvature
    dK[n, i, j, k]          d_k K_ij

A MetricJet owns the geometry derived from it: its read-only ddg,
ginv[n, a, b], dginv[n, a, b, k] = d_k g^ab and Gam[n, a, b, c] = Gamma^a_bc
are each formed once, when first read, so every consumer of a point set
shares one inverse and one set of Christoffel symbols; an ExtrinsicJet forms
its read-only dK the same way.  The inverse is the closed-form cofactor
(adjugate) inverse, exactly symmetric for a symmetric g, and the 3x3
contractions of the curvature operations are batched matrix products on
reshaped or transposed views.  The Schwarzschild and graphical providers
build their jets components first, with the point axis last, so that each
elementwise product runs along the points, and turn each array points-first
once; each forms its metric in one function, _metric(x, r, second), which
returns (g, dg), or ddg when second is set, as the graphical _extrinsic
returns K or dK.  The rotated chart rotates every tensor rank by one law,
_rotated.  The domain check is one method, DataProvider._check, which every
provider of data runs on its points when a jet is made (the horizon, then
the core); the graphical slice adds its spacelike check.

The catalog covers the flat chart, the Schwarzschild slice in areal
coordinates g = N^-2 dr^2 + r^2 dOmega^2 with N = sqrt(1 - 2m/r), the
bounded-height graphical slice over it cut out by t = sin(ln r) + u.x/r,
translated/rotated wrappers, and power-law angular perturbations of the flat
data.  Negative mass is allowed (no horizon); the Schwarzschild horizon is
max(0, 2m) and the inner chart radius 1.05 times it.  The graphical slice's
K reads two closed forms of the Schwarzschild slice g = delta + psi x x
instead of a base jet:

    g^-1 = delta - (2m/r) n n,
    Gamma^k_ij T_,k = N^2 (x.dT) (psi'/r x_i x_j + 2 psi delta_ij) / 2,

the second from 1 + psi r^2 = 1/N^2, and its dK is their product rule.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    ConfigError,
    HorizonReached,
    NotOrthogonal,
    PointInsideCore,
    SingularMetric,
    SliceNotSpacelike,
)

_EYE = np.eye(3)


def _read_only(a):
    a.setflags(write=False)
    return a


def _deferred(form, x, *args):
    """A jet's second order: form(x, *args), components first, made points-first when first read.

    The callable holds the form, a private copy of the points and args only.
    """
    return partial(_formed, form, x.copy(), *args)


def _formed(form, *args):
    return _points_first(form(*args))


def _second_order(jet):
    """The read-only result of jet.second(); the callable is dropped, so nothing it holds outlives it."""
    out = _read_only(jet.second())
    object.__setattr__(jet, "second", None)
    return out


@dataclass(frozen=True)
class MetricJet:
    """Metric jet; ddg, ginv, dginv and Gam are formed once, when first read.

    ddg is `second()`, which is then dropped (set to None).  ginv is the
    cofactor inverse, with the determinant taken from the same cofactors.
    """

    g: np.ndarray
    dg: np.ndarray
    second: Callable[[], np.ndarray] | None = field(repr=False)

    @cached_property
    def ddg(self):
        return _second_order(self)

    @cached_property
    def ginv(self):
        adj, det = _adjugate_3x3(self.g)
        if np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)):
            raise SingularMetric("metric not invertible")
        return _read_only((adj / det).T.reshape(-1, 3, 3))

    @cached_property
    def dginv(self):
        """dginv[n, a, b, k] = d_k g^ab = -g^ap g^bq d_k g_pq."""
        # two batched products: t[n, a, q, k] = g^ap d_k g_pq, then g^bq t[n, a, q, k]
        n = self.dg.shape[0]
        t = np.matmul(self.ginv, self.dg.reshape(n, 3, 9)).reshape(n, 3, 3, 3)
        return _read_only(-np.matmul(self.ginv[:, None], t))

    @cached_property
    def Gam(self):
        """Christoffel symbols Gam[n, a, b, c] = Gamma^a_bc."""
        n = self.dg.shape[0]
        return _read_only(0.5 * np.matmul(self.ginv, _bracket(self.dg).reshape(n, 3, 9)).reshape(n, 3, 3, 3))


@dataclass(frozen=True)
class ExtrinsicJet:
    """Extrinsic-curvature jet; dK is `second()`, formed once, when first read, and `second` is then dropped."""

    K: np.ndarray
    second: Callable[[], np.ndarray] | None = field(repr=False)

    @cached_property
    def dK(self):
        return _second_order(self)


def _adjugate_3x3(g):
    """Adjugate and determinant of a stack of 3x3 matrices g[n, i, j].

    Returns adj[3 * i + j, n], the (i, j) entry of the adjugate (the
    transposed cofactor matrix), and det[n] = sum_j g_0j adj_j0.
    """
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = g.reshape(-1, 9).T
    adj = np.empty((9, g.shape[0]))
    adj[0] = g11 * g22 - g12 * g21
    adj[1] = g02 * g21 - g01 * g22
    adj[2] = g01 * g12 - g02 * g11
    adj[3] = g12 * g20 - g10 * g22
    adj[4] = g00 * g22 - g02 * g20
    adj[5] = g02 * g10 - g00 * g12
    adj[6] = g10 * g21 - g11 * g20
    adj[7] = g01 * g20 - g00 * g21
    adj[8] = g00 * g11 - g01 * g10
    return adj, g00 * adj[0] + g01 * adj[3] + g02 * adj[6]


def _finite_array(value, shape, what):
    """value as a float array of the given shape of finite numbers, else ConfigError."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"malformed {what}: {value!r}") from exc
    if arr.dtype.kind not in "iuf" or arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must hold finite numbers of shape {shape}, got {value!r}")
    return arr.astype(float)


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ConfigError(f"points must have shape (n, 3), got {x.shape}")
    return x


def _components_first(x):
    """Points x[n, i] as the contiguous x[i, n].

    The Schwarzschild and graphical providers form their jets with the point
    axis last, so that each elementwise product runs along it rather than
    along an axis of length 3; a jet's arrays are turned points-first once,
    by _points_first.
    """
    return np.ascontiguousarray(x.T)


def _points_first(a):
    """A components-first array a[..., n] as the contiguous a[n, ...] that the jets hold."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _radial_tensors(r, n, d1, d2=None, d3=None):
    """Cartesian derivative tensors of a radial function f(r), components first.

    n[i, p] is the unit radial vector and d1, d2, d3 are nodal values of f',
    f'', f'''.  Returns (grad, hess, third) where entries beyond the supplied
    order are None.
    """
    grad = d1 * n
    hess = None
    third = None
    if d2 is not None:
        nn = n[:, None] * n[None]
        hess = d2 * nn + (d1 / r) * (_EYE[:, :, None] - nn)
    if d3 is not None:
        nnn = n[:, None, None] * n[None, :, None] * n[None, None]
        sym = (
            _EYE[:, :, None, None] * n[None, None]
            + _EYE[:, None, :, None] * n[None, :, None]
            + _EYE[None, :, :, None] * n[:, None, None]
        )
        third = d3 * nnn + (d2 / r) * (sym - 3.0 * nnn) + (d1 / r**2) * (3.0 * nnn - sym)
    return grad, hess, third


def _sym_ik(x):
    """d_k (x_i x_j) = delta_ik x_j + delta_jk x_i, as [i, j, k, p] for x[i, p]: six slice adds into zeros."""
    out = np.zeros((3, 3, 3, x.shape[1]))
    for a in range(3):
        out[a, :, a] += x  # delta_ik x_j
        out[:, a, a] += x  # delta_jk x_i
    return out


class DataProvider:
    """Immutable pointwise evaluator of an initial data set in its chart.

    A provider of data sets `horizon` (0 where there is none) and
    `inner_radius`, and its jet methods call the one domain check, _check:
    HorizonReached for r <= horizon where a horizon exists, then
    PointInsideCore for r <= inner_radius.  The chart wrappers set neither;
    the provider they wrap checks its points.
    """

    def _check(self, x):
        x = _as_points(x)
        r = np.linalg.norm(x, axis=1)
        if self.horizon > 0 and np.any(r <= self.horizon):
            raise HorizonReached(f"r <= 2m = {self.horizon:.6g}")
        if np.any(r <= self.inner_radius):
            raise PointInsideCore(
                f"point with |x| = {r.min():.6g} inside core radius {self.inner_radius:.6g}"
            )
        return x, r

    def metric_jet(self, x) -> MetricJet:
        raise NotImplementedError

    def extrinsic_jet(self, x) -> ExtrinsicJet:
        raise NotImplementedError


class EuclideanProvider(DataProvider):
    """Flat chart: g = delta, K = 0; g, dg, ddg, K and dK are read-only broadcasts."""

    horizon = inner_radius = 0.0

    def metric_jet(self, x):
        x, _ = self._check(x)
        n = x.shape[0]
        return MetricJet(
            np.broadcast_to(_EYE, (n, 3, 3)),
            np.broadcast_to(0.0, (n, 3, 3, 3)),
            lambda: np.broadcast_to(0.0, (n, 3, 3, 3, 3)),
        )

    def extrinsic_jet(self, x):
        x, _ = self._check(x)
        n = x.shape[0]
        return ExtrinsicJet(np.broadcast_to(0.0, (n, 3, 3)), lambda: np.broadcast_to(0.0, (n, 3, 3, 3)))


class SchwarzschildProvider(DataProvider):
    """Time-symmetric Schwarzschild slice in areal coordinates.

    Cartesian components: g_ij = delta_ij + psi(r) x_i x_j with
    psi = 2m / (r^2 (r - 2m)), which is the Cartesian form of
    N^-2 dr^2 + r^2 dOmega^2.  Works for m < 0 as well.
    """

    def __init__(self, mass):
        self.mass = float(mass)
        if self.mass == 0.0 or not np.isfinite(self.mass):
            raise ConfigError(f"mass parameter must be finite and nonzero, got {mass!r}")
        self.horizon = max(0.0, 2.0 * self.mass)
        self.inner_radius = 1.05 * self.horizon

    def _psi(self, r, second=False):
        """psi, psi' and, if asked, psi'' (else None)."""
        m = self.mass
        u = r - 2.0 * m
        psi = 2.0 * m / (r**2 * u)
        dpsi = 2.0 * m * (-2.0 / (r**3 * u) - 1.0 / (r**2 * u**2))
        ddpsi = 2.0 * m * (6.0 / (r**4 * u) + 4.0 / (r**3 * u**2) + 2.0 / (r**2 * u**3)) if second else None
        return psi, dpsi, ddpsi

    def metric_jet(self, x):
        x, r = self._check(x)
        g, dg = self._metric(x, r)
        return MetricJet(_points_first(g), _points_first(dg), _deferred(self._metric, x, r, True))

    def _metric(self, x, r, second=False):
        """(g, dg) for g = delta + psi x x or, if asked, ddg instead, components first.

        d_k (psi x_i x_j) = psi' n_k x_i x_j + psi (delta_ik x_j + delta_jk x_i),
        with psi scaling x before _sym_ik's slice adds, and ddg is one
        (x x) outer (n n) product plus delta-slice updates:

        d_k d_l (psi x_i x_j) = (psi'' - psi'/r) n_k n_l x_i x_j + (psi'/r) delta_kl x_i x_j
            + psi' (n_k (delta_il x_j + delta_jl x_i) + n_l (delta_ik x_j + delta_jk x_i))
            + psi (delta_ik delta_jl + delta_jk delta_il)
        """
        psi, dpsi, ddpsi = self._psi(r, second)
        xs = _components_first(x)
        xx = xs[:, None] * xs[None]
        if not second:
            return _EYE[:, :, None] + psi * xx, xx[:, :, None] * (dpsi * (xs / r)) + _sym_ik(psi * xs)
        nvec = xs / r
        out = ((ddpsi - dpsi / r) * xx)[:, :, None, None] * (nvec[:, None] * nvec[None])
        xxr = (dpsi / r) * xx
        xn = dpsi * xs[:, None] * nvec[None]  # psi' x_a n_b
        for a in range(3):
            out[:, :, a, a] += xxr
            out[a, :, :, a] += xn  # psi' n_k delta_il x_j
            out[:, a, :, a] += xn  # psi' n_k delta_jl x_i
            out[a, :, a, :] += xn  # psi' n_l delta_ik x_j
            out[:, a, a, :] += xn  # psi' n_l delta_jk x_i
            for b in range(3):
                out[a, b, a, b] += psi
                out[a, b, b, a] += psi
        return out

    # the slice is time-symmetric: K = 0, as read-only broadcasts
    extrinsic_jet = EuclideanProvider.extrinsic_jet


class GraphicalSchwarzschildProvider(DataProvider):
    """Graphical time-slice t = T(x) over the canonical Schwarzschild slice.

    T(x) = sin(ln r) + u.x / r.  The induced metric and second fundamental
    form (future-pointing normal) are

        (g_T)_ij = g_ij - N^2 T_,i T_,j
        (K_T)_ij = [T_,i N_,j + T_,j N_,i + N Hess_ij T
                    - N^2 T_,i T_,j dN(grad_g T)] / sqrt(1 - N^2 |dT|_g^2)

    with all covariant operations taken in the canonical slice metric
    g = delta + psi x x.  The first order reads that metric's closed forms

        g^-1 = delta - (2m/r) n n,  so  grad_g T = dT - (2m/r)(n.dT) n,
        Gamma^k_ij T_,k = N^2 (x.dT) (psi'/r x_i x_j + 2 psi delta_ij) / 2,

    the second from 1 + psi r^2 = 1/N^2, so no base jet is formed and no
    matrix inverted; the deferred dK differentiates the same forms.  The data
    is vacuum: mu = 0 and J = 0 identically.  The private jets below are
    components first.
    """

    def __init__(self, mass, u):
        self.base = SchwarzschildProvider(mass)
        self.mass = self.base.mass
        self.u = _finite_array(u, (3,), "u")
        self.horizon, self.inner_radius = self.base.horizon, self.base.inner_radius

    def _T_jets(self, x, r, third=False):
        """dT, ddT and, if asked, dddT (else None) for T = sin(ln r) + (u.x)/r.

        The radial tensors are linear in their coefficients, so sin(ln r) and
        (u.x) times the radial 1/r share one _radial_tensors call; the product
        rule's u-symmetrized terms are added from transposed views.
        """
        lr = np.log(r)
        s, c = np.sin(lr), np.cos(lr)
        nvec = _components_first(x) / r
        ux = x @ self.u
        d1 = c / r - ux / r**2
        d2 = -(s + c) / r**2 + 2.0 * ux / r**3
        d3 = (3.0 * s + c) / r**3 - 6.0 * ux / r**4 if third else None
        dT, ddT, dddT = _radial_tensors(r, nvec, d1, d2, d3)
        dT += self.u[:, None] / r
        # u_i d_j(1/r) + u_j d_i(1/r)
        uR = self.u[:, None, None] * (-nvec / r**2)
        ddT += uR + uR.transpose(1, 0, 2)
        if not third:
            return dT, ddT, None
        # u_i d_j d_k(1/r) + u_j d_i d_k(1/r) + u_k d_i d_j(1/r), with d_j d_k(1/r) = (3 n_j n_k - delta_jk) / r^3
        hR = (3.0 * nvec[:, None] * nvec[None] - _EYE[:, :, None]) / r**3
        uH = self.u[:, None, None, None] * hR
        dddT += uH + uH.transpose(1, 0, 2, 3) + uH.transpose(1, 2, 0, 3)
        return dT, ddT, dddT

    def _N_jets(self, x, r, second=False):
        """N, dN and, if asked, ddN (else None) for the lapse N = sqrt(1 - 2m/r)."""
        m = self.mass
        N = np.sqrt(1.0 - 2.0 * m / r)
        N1 = m / (r**2 * N)
        N2 = -2.0 * m / (r**3 * N) - m**2 / (r**4 * N**3) if second else None
        gN, hN, _ = _radial_tensors(r, _components_first(x) / r, N1, N2)
        return N, gN, hN

    def _grad_T(self, xs, r, dT):
        """grad_g T = dT - (2m/r)(n.dT) n = dT - (2m/r^3)(x.dT) x from the closed-form base g^-1, and x.dT."""
        xdT = np.einsum("an,an->n", xs, dT)
        return dT - (2.0 * self.mass / r**3 * xdT) * xs, xdT

    @staticmethod
    def _spacelike_factor(dT, gradT, N):
        """|dT|^2_g and W = sqrt(1 - N^2 |dT|^2_g) from grad_g T; raises where W^2 <= 0."""
        dT2 = np.einsum("an,an->n", dT, gradT)
        w2 = 1.0 - N**2 * dT2
        if np.any(w2 <= 0.0):
            raise SliceNotSpacelike("1 - N^2 |dT|^2 <= 0")
        return dT2, np.sqrt(w2)

    @staticmethod
    def _TT_jets(dT, ddT):
        """TT_ij = T_,i T_,j and its derivative d_k TT_ij."""
        TT = dT[:, None] * dT[None]
        dTT = ddT[:, None, :] * dT[None, :, None] + dT[:, None, None] * ddT[None]
        return TT, dTT

    def metric_jet(self, x):
        x, r = self._check(x)
        g, dg = self._metric(x, r)
        return MetricJet(_points_first(g), _points_first(dg), _deferred(self._metric, x, r, True))

    def _metric(self, x, r, second=False):
        """(g_T, dg_T) for g_T = g - N^2 dT dT, checked spacelike, or, if asked, ddg_T instead.

        N^2 = 1 - 2m/r is radial (sqrt(N^2) is _N_jets' N); the spacelike
        check reads the first order's dT.  The base metric is formed first:
        formed last, it made a graphical flux sweep ~15% slower.
        """
        xs = _components_first(x)
        base = self.base._metric(x, r, second)
        dT, ddT, dddT = self._T_jets(x, r, third=second)
        m = self.mass
        N2 = 1.0 - 2.0 * m / r
        if not second:
            self._spacelike_factor(dT, self._grad_T(xs, r, dT)[0], np.sqrt(N2))
        dN2, ddN2, _ = _radial_tensors(r, xs / r, 2.0 * m / r**2, -4.0 * m / r**3 if second else None)
        TT, dTT = self._TT_jets(dT, ddT)
        if not second:
            g, dg = base
            return g - N2 * TT, dg - dN2[None, None] * TT[:, :, None] - N2 * dTT
        ddTT = (
            dddT[:, None, :, :] * dT[None, :, None, None]
            + ddT[:, None, :, None] * ddT[None, :, None, :]
            + ddT[:, None, None, :] * ddT[None, :, :, None]
            + dT[:, None, None, None] * dddT[None]
        )
        return (
            base
            - ddN2[None, None] * TT[:, :, None, None]
            - dN2[None, None, :, None] * dTT[:, :, None]
            - dN2[None, None, None] * dTT[:, :, :, None]
            - N2 * ddTT
        )

    def extrinsic_jet(self, x):
        x, r = self._check(x)
        return ExtrinsicJet(_points_first(self._extrinsic(x, r)), _deferred(self._extrinsic, x, r, True))

    def _extrinsic(self, x, r, derivative=False):
        """K = D / W or, if asked, its derivative dK instead, both from the closed forms.

        Hess T = ddT - C with C_ij = Gamma^k_ij T_,k = p x_i x_j + q delta_ij,
        p = h psi'/r, q = 2 h psi and h = N^2 (x.dT) / 2, and
        grad_g T = dT - a (x.dT) x with a = 2m/r^3; dK is the product rule of
        these forms, so no base jet, inverse or Christoffel symbol is formed.
        """
        xs = _components_first(x)
        dT, ddT, dddT = self._T_jets(x, r, third=derivative)
        N, dN, ddN = self._N_jets(x, r, second=derivative)
        gradT, xdT = self._grad_T(xs, r, dT)
        psi, dpsi, ddpsi = self.base._psi(r, second=derivative)
        h = 0.5 * (1.0 - 2.0 * self.mass / r) * xdT
        xx = xs[:, None] * xs[None]
        hessT = ddT - (h * dpsi / r) * xx - (2.0 * h * psi) * _EYE[:, :, None]
        dT2, W = self._spacelike_factor(dT, gradT, N)
        c1 = np.einsum("an,an->n", dN, gradT)
        TT = dT[:, None] * dT[None]
        D = dT[:, None] * dN[None] + dT[None] * dN[:, None] + N * hessT - (N**2 * c1) * TT
        if not derivative:
            return D / W
        m, N2, nvec = self.mass, N**2, xs / r
        dN2 = (2.0 * m / r**2) * nvec
        # d_k (x.dT) = T_,k + x^a T_,ak, and d_k h
        dxdT = dT + np.einsum("an,akn->kn", xs, ddT)
        dh = 0.5 * (dN2 * xdT + (1.0 - 2.0 * m / r) * dxdT)
        # d_k C_ij = d_k p x_i x_j + p (delta_ik x_j + delta_jk x_i) + d_k q delta_ij
        dp = dh * (dpsi / r) + (h * (ddpsi - dpsi / r) / r) * nvec
        dq = 2.0 * (dh * psi + (h * dpsi) * nvec)
        dhessT = dddT - xx[:, :, None] * dp[None, None] - _sym_ik((h * dpsi / r) * xs) - _EYE[:, :, None, None] * dq
        # d_k (grad_g T)_b = T_,bk - a (x.dT) delta_bk - d_k(a x.dT) x_b, with d_k a = -3 a n_k / r
        a = 2.0 * m / r**3
        dgradT = ddT - (a * xdT) * _EYE[:, :, None] - xs[:, None] * (a * (dxdT - (3.0 * xdT / r) * nvec))[None]
        dc1 = np.einsum("an,akn->kn", gradT, ddN) + np.einsum("an,akn->kn", dN, dgradT)
        _, dTT = self._TT_jets(dT, ddT)
        dD = (
            ddT[:, None, :] * dN[None, :, None]
            + dT[:, None, None] * ddN[None]
            + ddT[None] * dN[:, None, None]
            + dT[None, :, None] * ddN[:, None]
            + dN[None, None] * hessT[:, :, None]
            + N * dhessT
            - (dN2 * c1 + N2 * dc1)[None, None] * TT[:, :, None]
            - (N2 * c1) * dTT
        )
        # d_k W = -(dN2 |dT|^2 + N^2 d_k |dT|^2) / (2 W)
        ddT2 = np.einsum("an,akn->kn", gradT, ddT) + np.einsum("an,akn->kn", dT, dgradT)
        dW = -(dN2 * dT2 + N2 * ddT2) / (2.0 * W)
        return dD / W - D[:, :, None] * dW[None, None] / W**2


class TranslatedProvider(DataProvider):
    """Chart translation: evaluates the inner provider at x - c."""

    def __init__(self, inner, center):
        self.inner = inner
        self.center = _finite_array(center, (3,), "center")

    def metric_jet(self, x):
        return self.inner.metric_jet(_as_points(x) - self.center)

    def extrinsic_jet(self, x):
        return self.inner.extrinsic_jet(_as_points(x) - self.center)


def orthogonal_matrix(O):
    """O as a 3x3 float array; raises NotOrthogonal unless O^T O = 1 to 1e-12."""
    O = _finite_array(O, (3, 3), "rotation")
    if np.max(np.abs(O.T @ O - _EYE)) > 1e-12:
        raise NotOrthogonal("rotation matrix is not orthogonal to 1e-12")
    return O


class RotatedProvider(DataProvider):
    """Chart rotation: every tensor transforms by _rotated, one O factor per index."""

    def __init__(self, inner, rotation):
        self.inner = inner
        self.O = orthogonal_matrix(rotation)

    def metric_jet(self, x):
        jet = self.inner.metric_jet(_as_points(x) @ self.O)  # x @ O = O^T applied to rows
        return MetricJet(_rotated(self.O, jet.g), _rotated(self.O, jet.dg), lambda: _rotated(self.O, jet.ddg))

    def extrinsic_jet(self, x):
        jet = self.inner.extrinsic_jet(_as_points(x) @ self.O)
        return ExtrinsicJet(_rotated(self.O, jet.K), lambda: _rotated(self.O, jet.dK))


def _rotated(O, a):
    """O_ia O_jb .. a[n, a, b, ..] of any rank: each pass contracts the first index with O and appends it last."""
    for _ in range(a.ndim - 1):
        a = np.tensordot(a, O, axes=(1, 1))
    return a


# -- power-law angular perturbations of the flat data ----------------------

class _PolyRadial:
    """Sum of terms c * x^alpha * r^s with exact differentiation."""

    def __init__(self, terms):
        # terms: list of (coeff, (ax, ay, az), s)
        self.terms = [(float(c), tuple(int(a) for a in alpha), float(s)) for c, alpha, s in terms]

    def diff(self, k):
        out = []
        for c, alpha, s in self.terms:
            if alpha[k] > 0:
                lowered = list(alpha)
                lowered[k] -= 1
                out.append((c * alpha[k], tuple(lowered), s))
            if s != 0.0:
                raised = list(alpha)
                raised[k] += 1
                out.append((c * s, tuple(raised), s - 2.0))
        return _PolyRadial(out)

    def __call__(self, x, r):
        val = np.zeros(x.shape[0])
        for c, alpha, s in self.terms:
            term = np.full(x.shape[0], c)
            for k in range(3):
                if alpha[k]:
                    term = term * x[:, k] ** alpha[k]
            val += term * r**s
        return val


def _naturals(values):
    """Whether every value is a non-negative integer; a bool is not one."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0 for v in values)


def _perturbation_term(t):
    """(target, i, j, (coeff, angular, s)) of one perturbation term, else ConfigError."""
    if not (isinstance(t, dict) and {"i", "j", "coeff", "decay"} <= set(t) <= {"target", "i", "j", "coeff", "decay", "angular"}):
        raise ConfigError(f"perturbation term {t!r} must map i, j, coeff, decay and optionally target and angular")
    target, i, j, ang = t.get("target", "g"), t["i"], t["j"], t.get("angular", (0, 0, 0))
    if target not in ("g", "K"):
        raise ConfigError(f"unknown perturbation target {target!r}")
    if not (_naturals((i, j)) and max(i, j) < 3):
        raise ConfigError(f"perturbation component ({i!r}, {j!r}) must be integers in 0..2")
    if not (isinstance(ang, (list, tuple)) and len(ang) == 3 and _naturals(ang)):
        raise ConfigError(f"perturbation angular exponents must be three non-negative integers, got {ang!r}")
    coeff, decay = (float(_finite_array(t[k], (), repr(k))) for k in ("coeff", "decay"))
    if decay < 0.5:
        raise ConfigError(f"perturbation decay {decay} < 1/2 is outside the admissible class")
    ang = tuple(int(a) for a in ang)
    return target, i, j, (coeff, ang, -decay - sum(ang))


class PerturbationProvider(DataProvider):
    """Flat data plus decaying angular-polynomial perturbations.

    Each term adds coeff * r^-decay * prod_k (x_k/r)^angular_k to one
    symmetrized component of g or K.  Terms with decay < 1/2 are rejected:
    slower fall-off leaves the admissible decay class; a malformed term
    raises ConfigError.  Each target holds one table {(i, j): _PolyRadial}
    of the components with terms (an off-diagonal term is filed under (i, j)
    and (j, i)), and one evaluator, _derivatives, forms any derivative order
    of a table: g = delta + order 0, dg = order 1 and ddg = order 2; K =
    order 0 and dK = order 1.
    """

    horizon = 0.0
    inner_radius = 1.0

    def __init__(self, terms):
        if not isinstance(terms, (list, tuple)):
            raise ConfigError(f"perturbation terms must be a list of mappings, got {terms!r}")
        filed = {"g": {}, "K": {}}
        for t in terms:
            target, i, j, entry = _perturbation_term(t)
            for ij in {(i, j), (j, i)}:
                filed[target].setdefault(ij, []).append(entry)
        self._g, self._K = ({ij: _PolyRadial(entries) for ij, entries in filed[k].items()} for k in ("g", "K"))

    @staticmethod
    def _derivatives(table, x, r, order):
        """out[i, j, k_1, .., k_order, n] = d_k_1 .. d_k_order of each component of table, components first."""
        out = np.zeros((3, 3) + (3,) * order + (x.shape[0],))
        for ij, poly in table.items():
            polys = {(): poly}
            for _ in range(order):
                polys = {ks + (k,): p.diff(k) for ks, p in polys.items() for k in range(3)}
            for ks, p in polys.items():
                out[ij + ks] += p(x, r)
        return out

    def metric_jet(self, x):
        x, r = self._check(x)
        g = _EYE[:, :, None] + self._derivatives(self._g, x, r, 0)
        dg = self._derivatives(self._g, x, r, 1)
        return MetricJet(_points_first(g), _points_first(dg), _deferred(partial(self._derivatives, self._g), x, r, 2))

    def extrinsic_jet(self, x):
        x, r = self._check(x)
        K = self._derivatives(self._K, x, r, 0)
        return ExtrinsicJet(_points_first(K), _deferred(partial(self._derivatives, self._K), x, r, 1))


# -- provider configs -------------------------------------------------------

# the keys each provider kind reads, besides `kind`
KIND_KEYS = {
    "euclidean": (),
    "schwarzschild_canonical": ("mass",),
    "schwarzschild_graphical": ("mass", "u"),
    "translated": ("center", "inner"),
    "rotated": ("rotation", "inner"),
    "custom_perturbation": ("perturbation_terms",),
}


def _config_array(config, key, shape, default=None):
    """config[key] as a float array of the given shape of finite numbers, else ConfigError."""
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"{config['kind']} requires {key!r}")
    return _finite_array(value, shape, repr(key))


def build_provider(config) -> DataProvider:
    """The catalog provider that a JSON config mapping describes.

    `kind` is a key of KIND_KEYS, which lists the other keys that kind reads:
    `mass`, `u` (default (1, 0, 0)), `center`, `rotation`,
    `perturbation_terms`, and the nested `inner` config of the translated and
    rotated kinds.  A missing, malformed or unread entry raises ConfigError.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"provider config must be a JSON object, got {config!r}")
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in KIND_KEYS:
        raise ConfigError(f"unknown provider kind {kind!r}; choose from {tuple(KIND_KEYS)}")
    unread = sorted(set(config) - {"kind", *KIND_KEYS[kind]})
    if unread:
        raise ConfigError(f"{kind} does not read the config keys {unread}; it reads {KIND_KEYS[kind]}")
    if kind == "euclidean":
        return EuclideanProvider()
    if kind == "schwarzschild_canonical":
        return SchwarzschildProvider(float(_config_array(config, "mass", ())))
    if kind == "schwarzschild_graphical":
        mass = float(_config_array(config, "mass", ()))
        return GraphicalSchwarzschildProvider(mass, _config_array(config, "u", (3,), (1.0, 0.0, 0.0)))
    if kind == "custom_perturbation":
        return PerturbationProvider(config.get("perturbation_terms", []))
    if config.get("inner") is None:
        raise ConfigError(f"{kind} requires 'inner'")
    inner = build_provider(config["inner"])
    if kind == "translated":
        return TranslatedProvider(inner, _config_array(config, "center", (3,)))
    return RotatedProvider(inner, _config_array(config, "rotation", (3, 3)))


# -- curvature / constraint operations --------------------------------------

def _bracket(dg):
    """bracket[n, d, b, c] = d_b g_dc + d_c g_db - d_d g_bc, with dg[i, j, k] = d_k g_ij."""
    return np.einsum("ndcb->ndbc", dg) + dg - np.einsum("nbcd->ndbc", dg)


def christoffel(jet: MetricJet, derivative=False):
    """The jet's Christoffel symbols Gamma^a_bc, and d_e Gamma^a_bc [n, a, b, c, e] if asked."""
    if not derivative:
        return jet.Gam
    ddg = jet.ddg
    n = ddg.shape[0]
    dbracket = np.einsum("ndcbe->ndbce", ddg) + ddg - np.einsum("nbcde->ndbce", ddg)
    # d_e g^ad bracket_dbc: one (a, d) @ (d, bc) product per (n, e), moved to [n, a, b, c, e]
    dginv_bracket = np.matmul(jet.dginv.transpose(0, 3, 1, 2), _bracket(jet.dg).reshape(n, 1, 3, 9))
    dGam = 0.5 * (
        dginv_bracket.reshape(n, 3, 3, 3, 3).transpose(0, 2, 3, 4, 1)
        + np.matmul(jet.ginv, dbracket.reshape(n, 3, 27)).reshape(n, 3, 3, 3, 3)
    )
    return jet.Gam, dGam


def trace_derivative(mj: MetricJet, ej: ExtrinsicJet):
    """d_k tr K = d_k g^ab K_ab + g^ab d_k K_ab."""
    return np.einsum("nabk,nab->nk", mj.dginv, ej.K) + np.einsum("nab,nabk->nk", mj.ginv, ej.dK)


def covariant_derivative(mj: MetricJet, ej: ExtrinsicJet):
    """nabla_k K_ij = d_k K_ij - Gamma^l_ki K_lj - Gamma^l_kj K_il."""
    Gam, K = mj.Gam, ej.K
    return (
        ej.dK
        - np.einsum("nlki,nlj->nijk", Gam, K)
        - np.einsum("nlkj,nil->nijk", Gam, K)
    )


def ricci_scalar_curvature(jet: MetricJet):
    """Ricci tensor and scalar curvature from a metric jet."""
    Gam, dGam = christoffel(jet, derivative=True)
    n = Gam.shape[0]
    # Gam^k_il Gam^l_kj as one (i, kl) @ (kl, j) product per point
    Gam_ikl = np.ascontiguousarray(Gam.transpose(0, 2, 1, 3))
    ric = (
        np.einsum("nkijk->nij", dGam)
        - np.einsum("nkkji->nij", dGam)
        + np.einsum("nkkl,nlij->nij", Gam, Gam)
        - np.matmul(Gam_ikl.reshape(n, 3, 9), Gam_ikl.reshape(n, 9, 3))
    )
    scal = np.einsum("nij,nij->n", jet.ginv, ric)
    return ric, scal


def _normal_contractions(mj: MetricJet, ej: ExtrinsicJet, nu):
    """Ric(nu, nu) and nu^k d_k tr K - nabla_nu K(nu, nu) at vectors nu[n, i], contracted directly.

    The same numbers as ricci_scalar_curvature's Ricci tensor and
    trace_derivative / covariant_derivative contracted with nu, without
    d Gamma, the full Ricci tensor or nabla K.  With Gam = Gamma^a_bc (the
    jet's own), B^k_l = Gamma^k_jl nu^j, Gamma^l_nn = B^l_j nu^j,
    Dg_ij = d_nu g_ij and c_q = g^kp d_k g_pq, the Ricci tensor
    d_k Gamma^k_ij - d_j Gamma^k_ki + Gamma^k_kl Gamma^l_ij - Gamma^k_jl Gamma^l_ik
    contracts to

        Ric(nu, nu) = g^kd (Y_dk - Z_kd / 2 - V_dk / 2) - c_q Gamma^q_nn
                      + tr((g^-1 Dg)^2) / 2 + Gamma^k_kl Gamma^l_nn - tr(B^2),

    where Y_dk = d_k d_i g_dj nu^i nu^j, Z_kd = d_k d_d g_ij nu^i nu^j and
    V_dk = d_i d_j g_dk nu^i nu^j are the three contractions of ddg with
    nu nu (from d_k g^ad = -g^ap d_k g_pq g^qd and
    Gamma^k_ki = g^kd d_i g_dk / 2), and

        nu.d tr K - nabla_nu K(nu, nu) = tr(g^-1 d_nu K) - tr(g^-1 Dg g^-1 K)
                                          - d_nu K(nu, nu) + 2 Gamma^l_nn K_lj nu^j.
    """
    n = nu.shape[0]
    ginv, dg, Gam, K = mj.ginv, mj.dg, mj.Gam, ej.K
    col = nu[:, :, None]
    B = (Gam.reshape(n, 9, 3) @ col).reshape(n, 3, 3)   # Gamma^k_lj nu^j = Gamma^k_jl nu^j
    Gnn = (B @ col)[:, :, 0]
    Dg = (dg.reshape(n, 9, 3) @ col).reshape(n, 3, 3)
    gDg = ginv @ Dg
    c = np.einsum("nkp,npqk->nq", ginv, dg)
    # ddg[n, i, j, k, l] = d_k d_l g_ij contracted with nu on its last index, then on one more
    X = mj.ddg.reshape(n, 27, 3) @ col                   # [d, j, k]: d_k d_i g_dj nu^i
    Y = np.einsum("ndjk,nj->ndk", X.reshape(n, 3, 3, 3), nu)
    V = (X.reshape(n, 9, 3) @ col).reshape(n, 3, 3)      # [d, k] from d_j d_i g_dk nu^i nu^j
    Z = (nu[:, None, :] @ (nu[:, None, :] @ mj.ddg.reshape(n, 3, 27)).reshape(n, 3, 9)).reshape(n, 3, 3)
    ricnn = (
        np.einsum("nkd,ndk->n", ginv, Y - 0.5 * V) - 0.5 * np.einsum("nkd,nkd->n", ginv, Z)
        - np.einsum("nq,nq->n", c, Gnn)
        + 0.5 * np.einsum("nab,nba->n", gDg, gDg)
        + np.einsum("nkkl,nl->n", Gam, Gnn)
        - np.einsum("nkl,nlk->n", B, B)
    )
    DK = (ej.dK.reshape(n, 9, 3) @ col).reshape(n, 3, 3)
    Knu = (K @ col)[:, :, 0]
    kscal = (
        np.einsum("nab,nba->n", ginv, DK) - np.einsum("nab,nba->n", gDg, ginv @ K)
        - np.einsum("ni,nij,nj->n", nu, DK, nu) + 2.0 * np.einsum("nl,nl->n", Gnn, Knu)
    )
    return ricnn, kscal


def conjugate_momentum(jet: MetricJet, K):
    """pi = (tr K) g - K."""
    trK = np.einsum("nij,nij->n", jet.ginv, K)
    return trK[:, None, None] * jet.g - K


def _constraints(mj: MetricJet, ej: ExtrinsicJet):
    """mu and J from the jets of one point set (see constraint_densities)."""
    ginv, K = mj.ginv, ej.K
    _, scal = ricci_scalar_curvature(mj)
    Kup = np.einsum("nia,njb,nab->nij", ginv, ginv, K)
    K2 = np.einsum("nij,nij->n", Kup, K)
    trK = np.einsum("nij,nij->n", ginv, K)
    mu = 0.5 * (scal - K2 + trK**2)
    J = np.einsum("nik,nijk->nj", ginv, covariant_derivative(mj, ej)) - trace_derivative(mj, ej)
    return mu, J


def constraint_densities(prov, p):
    """Energy density mu and momentum one-form J at chart points.

    mu = (Scal - |K|^2 + (tr K)^2) / 2,
    J_j = g^{ik} nabla_k K_ij - d_j tr K.
    """
    return _constraints(prov.metric_jet(p), prov.extrinsic_jet(p))
