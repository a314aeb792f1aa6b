"""Initial-data providers: pointwise metric/extrinsic-curvature jets in the asymptotic chart.

Every provider returns exact analytic jets (values plus first and second
derivatives of the metric, values plus first derivatives of the extrinsic
curvature); finite differencing appears only in test oracles.  Providers
take points of shape (n, 3), and the curvature operations take the jets they
return.  Index layout:

    g[n, i, j]              metric components
    dg[n, i, j, k]          d_k g_ij
    ddg[n, i, j, k, l]      d_k d_l g_ij
    K[n, i, j]              extrinsic curvature
    dK[n, i, j, k]          d_k K_ij

A MetricJet owns the geometry derived from it: its read-only ginv[n, a, b],
dginv[n, a, b, k] = d_k g^ab and Gam[n, a, b, c] = Gamma^a_bc are each formed
once, when first read, so every consumer of a point set shares one inverse
and one set of Christoffel symbols.

The catalog covers the flat chart, the Schwarzschild slice in areal
coordinates g = N^-2 dr^2 + r^2 dOmega^2 with N = sqrt(1 - 2m/r), the
bounded-height graphical slice over it cut out by t = sin(ln r) + u.x/r,
translated/rotated wrappers, and power-law angular perturbations of the flat
data.  Negative mass is allowed (no horizon); the inner chart radius is
1.05 * max(0, 2m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    HorizonReached,
    NotOrthogonal,
    PointInsideCore,
    SingularMetric,
    SliceNotSpacelike,
)
from .spectral import get_grid

_EYE = np.eye(3)


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MetricJet:
    """Metric jet; ginv, dginv and Gam are formed once, when first read."""

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    @cached_property
    def ginv(self):
        det = np.linalg.det(self.g)
        if np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)):
            raise SingularMetric("metric not invertible")
        return _read_only(np.linalg.inv(self.g))

    @cached_property
    def dginv(self):
        """dginv[n, a, b, k] = d_k g^ab = -g^ap g^bq d_k g_pq."""
        return _read_only(-np.einsum("nap,nbq,npqk->nabk", self.ginv, self.ginv, self.dg))

    @cached_property
    def Gam(self):
        """Christoffel symbols Gam[n, a, b, c] = Gamma^a_bc."""
        return _read_only(0.5 * np.einsum("nad,ndbc->nabc", self.ginv, _bracket(self.dg)))


@dataclass(frozen=True)
class ExtrinsicJet:
    K: np.ndarray
    dK: np.ndarray


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ConfigError(f"points must have shape (n, 3), got {x.shape}")
    return x


def _radial_tensors(r, n, d1, d2=None, d3=None):
    """Cartesian derivative tensors of a radial function f(r).

    d1, d2, d3 are nodal values of f', f'', f'''.  Returns (grad, hess, third)
    where entries beyond the supplied order are None.
    """
    grad = d1[:, None] * n
    hess = None
    third = None
    if d2 is not None:
        nn = n[:, :, None] * n[:, None, :]
        hess = d2[:, None, None] * nn + (d1 / r)[:, None, None] * (_EYE - nn)
    if d3 is not None:
        nnn = n[:, :, None, None] * n[:, None, :, None] * n[:, None, None, :]
        sym = (
            _EYE[None, :, :, None] * n[:, None, None, :]
            + _EYE[None, :, None, :] * n[:, None, :, None]
            + _EYE[None, None, :, :] * n[:, :, None, None]
        )
        third = (
            d3[:, None, None, None] * nnn
            + (d2 / r)[:, None, None, None] * (sym - 3.0 * nnn)
            + (d1 / r**2)[:, None, None, None] * (3.0 * nnn - sym)
        )
    return grad, hess, third


class DataProvider:
    """Immutable pointwise evaluator of an initial data set in its chart."""

    inner_radius = 0.0

    def _check(self, x):
        x = _as_points(x)
        r = np.linalg.norm(x, axis=1)
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
    """Flat chart: g = delta, K = 0; dg, ddg, K and dK are read-only broadcast zeros."""

    def metric_jet(self, x):
        x, _ = self._check(x)
        n = x.shape[0]
        g = np.broadcast_to(_EYE, (n, 3, 3)).copy()
        return MetricJet(g, np.broadcast_to(0.0, (n, 3, 3, 3)), np.broadcast_to(0.0, (n, 3, 3, 3, 3)))

    def extrinsic_jet(self, x):
        x, _ = self._check(x)
        n = x.shape[0]
        return ExtrinsicJet(np.broadcast_to(0.0, (n, 3, 3)), np.broadcast_to(0.0, (n, 3, 3, 3)))


class SchwarzschildProvider(DataProvider):
    """Time-symmetric Schwarzschild slice in areal coordinates.

    Cartesian components: g_ij = delta_ij + psi(r) x_i x_j with
    psi = 2m / (r^2 (r - 2m)), which is the Cartesian form of
    N^-2 dr^2 + r^2 dOmega^2.  Works for m < 0 as well.
    """

    def __init__(self, mass):
        if mass == 0.0:
            raise ConfigError("mass parameter must be nonzero")
        self.mass = float(mass)
        self.inner_radius = 1.05 * max(0.0, 2.0 * self.mass)

    def _check(self, x):
        x = _as_points(x)
        r = np.linalg.norm(x, axis=1)
        if self.mass > 0 and np.any(r <= 2.0 * self.mass):
            raise HorizonReached(f"r <= 2m = {2 * self.mass:.6g}")
        if np.any(r <= self.inner_radius):
            raise PointInsideCore(
                f"point with |x| = {r.min():.6g} inside core radius {self.inner_radius:.6g}"
            )
        return x, r

    def _psi(self, r):
        m = self.mass
        u = r - 2.0 * m
        psi = 2.0 * m / (r**2 * u)
        dpsi = 2.0 * m * (-2.0 / (r**3 * u) - 1.0 / (r**2 * u**2))
        ddpsi = 2.0 * m * (6.0 / (r**4 * u) + 4.0 / (r**3 * u**2) + 2.0 / (r**2 * u**3))
        return psi, dpsi, ddpsi

    def metric_jet(self, x):
        x, r = self._check(x)
        nvec = x / r[:, None]
        psi, dpsi, ddpsi = self._psi(r)
        xx = x[:, :, None] * x[:, None, :]
        g = _EYE + psi[:, None, None] * xx
        # d_k (psi x_i x_j) = psi' n_k x_i x_j + psi (delta_ik x_j + delta_jk x_i)
        sym_ik = _EYE[None, :, None, :] * x[:, None, :, None] + _EYE[None, None, :, :] * x[:, :, None, None]
        dg = dpsi[:, None, None, None] * nvec[:, None, None, :] * xx[:, :, :, None] + psi[:, None, None, None] * sym_ik
        nn = nvec[:, :, None] * nvec[:, None, :]
        ddg = (
            ddpsi[:, None, None, None, None] * nn[:, None, None, :, :] * xx[:, :, :, None, None]
            + (dpsi / r)[:, None, None, None, None] * (_EYE - nn)[:, None, None, :, :] * xx[:, :, :, None, None]
            + dpsi[:, None, None, None, None]
            * (
                nvec[:, None, None, :, None] * sym_ik[:, :, :, None, :]
                + nvec[:, None, None, None, :] * sym_ik[:, :, :, :, None]
            )
            + psi[:, None, None, None, None]
            * (
                _EYE[None, :, None, :, None] * _EYE[None, None, :, None, :]
                + _EYE[None, None, :, :, None] * _EYE[None, :, None, None, :]
            )
        )
        return MetricJet(g, dg, ddg)

    def extrinsic_jet(self, x):
        x, _ = self._check(x)
        n = x.shape[0]
        return ExtrinsicJet(np.zeros((n, 3, 3)), np.zeros((n, 3, 3, 3)))


class GraphicalSchwarzschildProvider(DataProvider):
    """Graphical time-slice t = T(x) over the canonical Schwarzschild slice.

    T(x) = sin(ln r) + u.x / r.  The induced metric and second fundamental
    form (future-pointing normal) are

        (g_T)_ij = g_ij - N^2 T_,i T_,j
        (K_T)_ij = [T_,i N_,j + T_,j N_,i + N Hess_ij T
                    - N^2 T_,i T_,j dN(grad_g T)] / sqrt(1 - N^2 |dT|_g^2)

    with all covariant operations taken in the canonical slice metric g.
    The data is vacuum: mu = 0 and J = 0 identically.
    """

    def __init__(self, mass, u):
        if mass == 0.0:
            raise ConfigError("mass parameter must be nonzero")
        self.mass = float(mass)
        self.u = np.asarray(u, dtype=float).reshape(3)
        self.base = SchwarzschildProvider(mass)
        self.inner_radius = self.base.inner_radius

    def _check(self, x):
        return self.base._check(x)

    def _T_jets(self, x, r):
        """dT, ddT, dddT for T = sin(ln r) + (u.x)/r."""
        lr = np.log(r)
        s, c = np.sin(lr), np.cos(lr)
        nvec = x / r[:, None]
        # sin(ln r) part
        s1 = c / r
        s2 = -(s + c) / r**2
        s3 = (3.0 * s + c) / r**3
        gS, hS, tS = _radial_tensors(r, nvec, s1, s2, s3)
        # (u.x) * rho(r) part with rho = 1/r
        rho = 1.0 / r
        r1 = -1.0 / r**2
        r2 = 2.0 / r**3
        r3 = -6.0 / r**4
        gR, hR, tR = _radial_tensors(r, nvec, r1, r2, r3)
        ux = x @ self.u
        dT = gS + self.u[None, :] * rho[:, None] + ux[:, None] * gR
        ddT = (
            hS
            + self.u[None, :, None] * gR[:, None, :]
            + self.u[None, None, :] * gR[:, :, None]
            + ux[:, None, None] * hR
        )
        dddT = (
            tS
            + self.u[None, :, None, None] * hR[:, None, :, :]
            + self.u[None, None, :, None] * hR[:, :, None, :]
            + self.u[None, None, None, :] * hR[:, :, :, None]
            + ux[:, None, None, None] * tR
        )
        return dT, ddT, dddT

    def _N_jets(self, x, r):
        m = self.mass
        nvec = x / r[:, None]
        N = np.sqrt(1.0 - 2.0 * m / r)
        N1 = m / (r**2 * N)
        N2 = -2.0 * m / (r**3 * N) - m**2 / (r**4 * N**3)
        gN, hN, _ = _radial_tensors(r, nvec, N1, N2)
        return N, gN, hN

    def _spacelike_factor(self, ginv, dT, N):
        """grad_g T, |dT|^2_g and W = sqrt(1 - N^2 |dT|^2_g); raises where W^2 <= 0."""
        gradT = np.einsum("nab,nb->na", ginv, dT)
        dT2 = np.einsum("na,na->n", dT, gradT)
        w2 = 1.0 - N**2 * dT2
        if np.any(w2 <= 0.0):
            raise SliceNotSpacelike("1 - N^2 |dT|^2 <= 0")
        return gradT, dT2, np.sqrt(w2)

    def metric_jet(self, x):
        x, r = self._check(x)
        base = self.base.metric_jet(x)
        g, dg, ddg = base.g, base.dg, base.ddg
        dT, ddT, dddT = self._T_jets(x, r)
        # N^2 = 1 - 2m/r is radial with simple derivatives; sqrt(N2) is _N_jets' N
        m = self.mass
        nvec = x / r[:, None]
        N2 = 1.0 - 2.0 * m / r
        self._spacelike_factor(base.ginv, dT, np.sqrt(N2))
        dN2, ddN2, _ = _radial_tensors(r, nvec, 2.0 * m / r**2, -4.0 * m / r**3)
        TT = dT[:, :, None] * dT[:, None, :]
        gT = g - N2[:, None, None] * TT
        dTT = ddT[:, :, None, :] * dT[:, None, :, None] + dT[:, :, None, None] * ddT[:, None, :, :]
        dgT = dg - dN2[:, None, None, :] * TT[:, :, :, None] - N2[:, None, None, None] * dTT
        ddTT = (
            dddT[:, :, None, :, :] * dT[:, None, :, None, None]
            + ddT[:, :, None, :, None] * ddT[:, None, :, None, :]
            + ddT[:, :, None, None, :] * ddT[:, None, :, :, None]
            + dT[:, :, None, None, None] * dddT[:, None, :, :, :]
        )
        ddgT = (
            ddg
            - ddN2[:, None, None, :, :] * TT[:, :, :, None, None]
            - dN2[:, None, None, :, None] * dTT[:, :, :, None, :]
            - dN2[:, None, None, None, :] * dTT[:, :, :, :, None]
            - N2[:, None, None, None, None] * ddTT
        )
        return MetricJet(gT, dgT, ddgT)

    def extrinsic_jet(self, x):
        x, r = self._check(x)
        base = self.base.metric_jet(x)
        ginv, dginv = base.ginv, base.dginv
        dT, ddT, dddT = self._T_jets(x, r)
        N, dN, ddN = self._N_jets(x, r)
        Gam, dGam = christoffel(base, derivative=True)
        hessT = ddT - np.einsum("nkij,nk->nij", Gam, dT)
        dhessT = (
            dddT
            - np.einsum("nkijl,nk->nijl", dGam, dT)
            - np.einsum("nkij,nkl->nijl", Gam, ddT)
        )
        gradT, dT2, W = self._spacelike_factor(ginv, dT, N)
        m = self.mass
        nvec = x / r[:, None]
        N2 = N**2
        dN2 = (2.0 * m / r**2)[:, None] * nvec
        # c1 = dN(grad_g T)
        c1 = np.einsum("na,na->n", dN, gradT)
        dc1 = (
            np.einsum("nak,nab,nb->nk", ddN, ginv, dT)
            + np.einsum("na,nabk,nb->nk", dN, dginv, dT)
            + np.einsum("na,nab,nbk->nk", dN, ginv, ddT)
        )
        TT = dT[:, :, None] * dT[:, None, :]
        dTT = ddT[:, :, None, :] * dT[:, None, :, None] + dT[:, :, None, None] * ddT[:, None, :, :]
        D = (
            dT[:, :, None] * dN[:, None, :]
            + dT[:, None, :] * dN[:, :, None]
            + N[:, None, None] * hessT
            - (N2 * c1)[:, None, None] * TT
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
        # W_k: d_k W = -(dN2 |dT|^2 + N^2 d_k |dT|^2) / (2 W)
        ddT2 = (
            np.einsum("nabk,na,nb->nk", dginv, dT, dT)
            + 2.0 * np.einsum("nab,nak,nb->nk", ginv, ddT, dT)
        )
        dW = -(dN2 * dT2[:, None] + N2[:, None] * ddT2) / (2.0 * W[:, None])
        K = D / W[:, None, None]
        dK = dD / W[:, None, None, None] - D[:, :, :, None] * dW[:, None, None, :] / (W**2)[:, None, None, None]
        return ExtrinsicJet(K, dK)


class TranslatedProvider(DataProvider):
    """Chart translation: evaluates the inner provider at x - c."""

    def __init__(self, inner, center):
        self.inner = inner
        self.center = np.asarray(center, dtype=float).reshape(3)

    @property
    def inner_radius(self):
        # conservative bound: the core ball shifted by c fits in this radius
        return self.inner.inner_radius + np.linalg.norm(self.center)

    def metric_jet(self, x):
        return self.inner.metric_jet(_as_points(x) - self.center)

    def extrinsic_jet(self, x):
        return self.inner.extrinsic_jet(_as_points(x) - self.center)


class RotatedProvider(DataProvider):
    """Chart rotation: tensors transform with one O factor per index."""

    def __init__(self, inner, rotation):
        O = np.asarray(rotation, dtype=float).reshape(3, 3)
        if np.max(np.abs(O.T @ O - _EYE)) > 1e-12:
            raise NotOrthogonal("rotation matrix is not orthogonal to 1e-12")
        self.inner = inner
        self.O = O

    @property
    def inner_radius(self):
        return self.inner.inner_radius

    def metric_jet(self, x):
        jet = self.inner.metric_jet(_as_points(x) @ self.O)  # x @ O = O^T applied to rows
        O = self.O
        g = np.einsum("ia,jb,nab->nij", O, O, jet.g)
        dg = np.einsum("ia,jb,kc,nabc->nijk", O, O, O, jet.dg)
        ddg = np.einsum("ia,jb,kc,ld,nabcd->nijkl", O, O, O, O, jet.ddg)
        return MetricJet(g, dg, ddg)

    def extrinsic_jet(self, x):
        jet = self.inner.extrinsic_jet(_as_points(x) @ self.O)
        O = self.O
        K = np.einsum("ia,jb,nab->nij", O, O, jet.K)
        dK = np.einsum("ia,jb,kc,nabc->nijk", O, O, O, jet.dK)
        return ExtrinsicJet(K, dK)


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


class PerturbationProvider(DataProvider):
    """Flat data plus decaying angular-polynomial perturbations.

    Each term adds coeff * r^-decay * prod_k (x_k/r)^angular_k to one
    symmetrized component of g or K.  Terms with decay < 1/2 are rejected:
    slower fall-off leaves the admissible decay class.
    """

    inner_radius = 1.0

    def __init__(self, terms, inner_radius=1.0):
        self.inner_radius = float(inner_radius)
        self.g_terms = [[[] for _ in range(3)] for _ in range(3)]
        self.k_terms = [[[] for _ in range(3)] for _ in range(3)]
        for t in terms:
            target = t.get("target", "g")
            i, j = int(t["i"]), int(t["j"])
            coeff = float(t["coeff"])
            decay = float(t["decay"])
            ang = tuple(int(a) for a in t.get("angular", (0, 0, 0)))
            if decay < 0.5:
                raise ConfigError(f"perturbation decay {decay} < 1/2 is outside the admissible class")
            s = -decay - sum(ang)
            entry = (coeff, ang, s)
            table = self.g_terms if target == "g" else self.k_terms
            if target not in ("g", "K"):
                raise ConfigError(f"unknown perturbation target {target!r}")
            table[i][j].append(entry)
            if i != j:
                table[j][i].append(entry)
        self._gp = [[_PolyRadial(self.g_terms[i][j]) for j in range(3)] for i in range(3)]
        self._kp = [[_PolyRadial(self.k_terms[i][j]) for j in range(3)] for i in range(3)]
        self._gp1 = [[[self._gp[i][j].diff(k) for k in range(3)] for j in range(3)] for i in range(3)]
        self._gp2 = [
            [[[self._gp1[i][j][k].diff(l) for l in range(3)] for k in range(3)] for j in range(3)]
            for i in range(3)
        ]
        self._kp1 = [[[self._kp[i][j].diff(k) for k in range(3)] for j in range(3)] for i in range(3)]

    def metric_jet(self, x):
        x, r = self._check(x)
        n = x.shape[0]
        g = np.broadcast_to(_EYE, (n, 3, 3)).copy()
        dg = np.zeros((n, 3, 3, 3))
        ddg = np.zeros((n, 3, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                if not self.g_terms[i][j]:
                    continue
                g[:, i, j] += self._gp[i][j](x, r)
                for k in range(3):
                    dg[:, i, j, k] += self._gp1[i][j][k](x, r)
                    for l in range(3):
                        ddg[:, i, j, k, l] += self._gp2[i][j][k][l](x, r)
        return MetricJet(g, dg, ddg)

    def extrinsic_jet(self, x):
        x, r = self._check(x)
        n = x.shape[0]
        K = np.zeros((n, 3, 3))
        dK = np.zeros((n, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                if not self.k_terms[i][j]:
                    continue
                K[:, i, j] += self._kp[i][j](x, r)
                for k in range(3):
                    dK[:, i, j, k] += self._kp1[i][j][k](x, r)
        return ExtrinsicJet(K, dK)


# -- provider specs ---------------------------------------------------------

KINDS = (
    "euclidean",
    "schwarzschild_canonical",
    "schwarzschild_graphical",
    "translated",
    "rotated",
    "custom_perturbation",
)


@dataclass
class DataProviderSpec:
    """Serializable description of a catalog provider."""

    kind: str
    mass: float | None = None
    u: tuple | None = None
    center: tuple | None = None
    rotation: tuple | None = None
    perturbation_terms: list = field(default_factory=list)
    inner: "DataProviderSpec | None" = None

    def to_dict(self):
        d = {"kind": self.kind}
        if self.mass is not None:
            d["mass"] = self.mass
        if self.u is not None:
            d["u"] = list(self.u)
        if self.center is not None:
            d["center"] = list(self.center)
        if self.rotation is not None:
            d["rotation"] = [list(row) for row in self.rotation]
        if self.perturbation_terms:
            d["perturbation_terms"] = self.perturbation_terms
        if self.inner is not None:
            d["inner"] = self.inner.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        if "kind" not in d:
            raise ConfigError("provider spec needs a 'kind' field")
        kind = d["kind"]
        if kind not in KINDS:
            raise ConfigError(f"unknown provider kind {kind!r}; choose from {KINDS}")
        inner = cls.from_dict(d["inner"]) if "inner" in d and d["inner"] else None
        return cls(
            kind=kind,
            mass=d.get("mass"),
            u=tuple(d["u"]) if "u" in d and d["u"] is not None else None,
            center=tuple(d["center"]) if "center" in d and d["center"] is not None else None,
            rotation=tuple(tuple(r) for r in d["rotation"]) if d.get("rotation") is not None else None,
            perturbation_terms=list(d.get("perturbation_terms", [])),
            inner=inner,
        )

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def build_provider(spec: DataProviderSpec) -> DataProvider:
    if spec.kind == "euclidean":
        return EuclideanProvider()
    if spec.kind == "schwarzschild_canonical":
        if spec.mass is None:
            raise ConfigError("schwarzschild_canonical requires a mass")
        return SchwarzschildProvider(spec.mass)
    if spec.kind == "schwarzschild_graphical":
        if spec.mass is None:
            raise ConfigError("schwarzschild_graphical requires a mass")
        u = spec.u if spec.u is not None else (1.0, 0.0, 0.0)
        return GraphicalSchwarzschildProvider(spec.mass, u)
    if spec.kind == "translated":
        if spec.inner is None or spec.center is None:
            raise ConfigError("translated requires 'inner' and 'center'")
        return TranslatedProvider(build_provider(spec.inner), spec.center)
    if spec.kind == "rotated":
        if spec.inner is None or spec.rotation is None:
            raise ConfigError("rotated requires 'inner' and 'rotation'")
        return RotatedProvider(build_provider(spec.inner), spec.rotation)
    if spec.kind == "custom_perturbation":
        return PerturbationProvider(spec.perturbation_terms)
    raise ConfigError(f"unknown provider kind {spec.kind!r}")


def as_provider(spec) -> DataProvider:
    """The provider itself, or the one a DataProviderSpec describes."""
    return spec if isinstance(spec, DataProvider) else build_provider(spec)


# -- curvature / constraint operations --------------------------------------

def _bracket(dg):
    """bracket[n, d, b, c] = d_b g_dc + d_c g_db - d_d g_bc, with dg[i, j, k] = d_k g_ij."""
    return np.einsum("ndcb->ndbc", dg) + dg - np.einsum("nbcd->ndbc", dg)


def christoffel(jet: MetricJet, derivative=False):
    """The jet's Christoffel symbols Gamma^a_bc, and d_e Gamma^a_bc [n, a, b, c, e] if asked."""
    if not derivative:
        return jet.Gam
    ddg = jet.ddg
    dbracket = np.einsum("ndcbe->ndbce", ddg) + ddg - np.einsum("nbcde->ndbce", ddg)
    dGam = 0.5 * (
        np.einsum("nade,ndbc->nabce", jet.dginv, _bracket(jet.dg))
        + np.einsum("nad,ndbce->nabce", jet.ginv, dbracket)
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
    ric = (
        np.einsum("nkijk->nij", dGam)
        - np.einsum("nkkji->nij", dGam)
        + np.einsum("nkkl,nlij->nij", Gam, Gam)
        - np.einsum("nkil,nlkj->nij", Gam, Gam)
    )
    scal = np.einsum("nij,nij->n", jet.ginv, ric)
    return ric, scal


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


def constraint_densities(spec, p):
    """Energy density mu and momentum one-form J at chart points.

    mu = (Scal - |K|^2 + (tr K)^2) / 2,
    J_j = g^{ik} nabla_k K_ij - d_j tr K.
    """
    prov = as_provider(spec)
    return _constraints(prov.metric_jet(p), prov.extrinsic_jet(p))


# -- decay diagnostics -------------------------------------------------------

@dataclass
class DecayReport:
    """Sampled decay ratios against the admissible fall-off rates.

    ratio_* arrays are per-radius sups of the left-hand side of the decay
    inequalities divided by the right-hand side; rt_* are the analogous
    parity (odd/even) ratios at reference rate gamma = 1.  Fitted exponents
    are reported without a pass/fail judgment.
    """

    radii: np.ndarray
    eps: float
    ratio_metric: np.ndarray
    ratio_extrinsic: np.ndarray
    ratio_constraints: np.ndarray
    rt_metric_odd: np.ndarray
    rt_momentum_even: np.ndarray
    rt_constraints_odd: np.ndarray
    sup_g_minus_delta: np.ndarray
    sup_K: np.ndarray
    sup_mu_J: np.ndarray
    sup_g_odd: np.ndarray
    fitted_exponents: dict


def _maxabs(a, axes):
    return np.max(np.abs(a), axis=axes)


def _fit_exponent(radii, sups):
    mask = sups > 0
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(radii[mask]), np.log(sups[mask]), 1)[0]
    return float(-slope)


def decay_check(spec, radii, eps, lmax=16):
    """Sample the decay inequalities and parity conditions on coordinate spheres."""
    prov = as_provider(spec)
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ConfigError("radii must be strictly increasing")
    grid = get_grid(lmax)
    om = grid.unit_vectors()["o"]
    rows = {k: [] for k in (
        "ratio1", "ratio2", "ratio3", "rt1", "rt2", "rt3",
        "sup_g", "sup_K", "sup_muJ", "sup_godd",
    )}
    for r in radii:
        xp = r * om
        xm = -xp
        mj_p, mj_m = prov.metric_jet(xp), prov.metric_jet(xm)
        ej_p, ej_m = prov.extrinsic_jet(xp), prov.extrinsic_jet(xm)
        mu_p, J_p = _constraints(mj_p, ej_p)
        mu_m, J_m = _constraints(mj_m, ej_m)
        sup_g = _maxabs(mj_p.g - _EYE, (1, 2)).max()
        lhs1 = _maxabs(mj_p.g - _EYE, (1, 2)) + r * _maxabs(mj_p.dg, (1, 2, 3)) + r**2 * _maxabs(mj_p.ddg, (1, 2, 3, 4))
        rows["ratio1"].append(lhs1.max() / r ** (-0.5 - eps))
        lhs2 = _maxabs(ej_p.K, (1, 2)) + r * _maxabs(ej_p.dK, (1, 2, 3))
        rows["ratio2"].append(lhs2.max() / r ** (-1.5 - eps))
        lhs3 = np.abs(mu_p) + np.linalg.norm(J_p, axis=1)
        rows["ratio3"].append(lhs3.max() / r ** (-3.0 - eps))
        # parity parts: f_odd(x) = (f(x) - f(-x))/2; derivatives alternate sign
        g_odd = 0.5 * (mj_p.g - mj_m.g)
        dg_odd = 0.5 * (mj_p.dg + mj_m.dg)
        ddg_odd = 0.5 * (mj_p.ddg - mj_m.ddg)
        lhs_rt1 = _maxabs(g_odd, (1, 2)) + r * _maxabs(dg_odd, (1, 2, 3)) + r**2 * _maxabs(ddg_odd, (1, 2, 3, 4))
        rows["rt1"].append(lhs_rt1.max() / r ** (-1.0 - eps))
        pi_p = conjugate_momentum(mj_p, ej_p.K)
        pi_m = conjugate_momentum(mj_m, ej_m.K)
        dpi_p = _dpi(mj_p, ej_p)
        dpi_m = _dpi(mj_m, ej_m)
        pi_even = 0.5 * (pi_p + pi_m)
        dpi_even = 0.5 * (dpi_p - dpi_m)
        lhs_rt2 = _maxabs(pi_even, (1, 2)) + r * _maxabs(dpi_even, (1, 2, 3))
        rows["rt2"].append(lhs_rt2.max() / r ** (-2.0 - eps))
        mu_odd = 0.5 * (mu_p - mu_m)
        J_odd = 0.5 * (J_p + J_m)
        lhs_rt3 = np.abs(mu_odd) + np.linalg.norm(J_odd, axis=1)
        rows["rt3"].append(lhs_rt3.max() / r ** (-3.5 - eps))
        rows["sup_g"].append(sup_g)
        rows["sup_K"].append(_maxabs(ej_p.K, (1, 2)).max())
        rows["sup_muJ"].append(lhs3.max())
        rows["sup_godd"].append(_maxabs(g_odd, (1, 2)).max())
    arr = {k: np.asarray(v) for k, v in rows.items()}
    fitted = {
        "g_minus_delta": _fit_exponent(radii, arr["sup_g"]),
        "K": _fit_exponent(radii, arr["sup_K"]),
        "mu_J": _fit_exponent(radii, arr["sup_muJ"]),
        "g_odd": _fit_exponent(radii, arr["sup_godd"]),
    }
    return DecayReport(
        radii=radii,
        eps=eps,
        ratio_metric=arr["ratio1"],
        ratio_extrinsic=arr["ratio2"],
        ratio_constraints=arr["ratio3"],
        rt_metric_odd=arr["rt1"],
        rt_momentum_even=arr["rt2"],
        rt_constraints_odd=arr["rt3"],
        sup_g_minus_delta=arr["sup_g"],
        sup_K=arr["sup_K"],
        sup_mu_J=arr["sup_muJ"],
        sup_g_odd=arr["sup_godd"],
        fitted_exponents=fitted,
    )


def _dpi(mj: MetricJet, ej: ExtrinsicJet):
    """d_k pi_ij for pi = (tr K) g - K."""
    trK = np.einsum("nab,nab->n", mj.ginv, ej.K)
    return (
        trace_derivative(mj, ej)[:, None, None, :] * mj.g[:, :, :, None]
        + trK[:, None, None, None] * mj.dg
        - ej.dK
    )
