"""Sphere discretization: Gauss-Legendre grid, real spherical harmonics, transforms.

The grid couples Gauss-Legendre colatitudes (lmax+1 of them) with 2*lmax+2
equispaced longitudes, so products of basis functions with combined degree up
to 2*lmax+1 are integrated exactly.  The basis is the real orthonormal
spherical-harmonic basis on the unit sphere; coefficients are stored flat,
ordered by (l, m) with index l**2 + l + m.

Transforms are dense matrix applications: synthesize is Y @ coeffs, analyze is
Y.T @ (w * values).  Separable transforms (an rfft along phi, one Legendre
GEMM per m) are not implemented, though they would now pay for the 625 columns
of an operator matrix at lmax 24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BandLimitTooSmall, NonpositiveRadius, ShapeMismatch

MIN_LMAX = 4


def n_coeffs(lmax):
    return (lmax + 1) ** 2


def coeff_index(l, m):
    """Flat index of the (l, m) real harmonic, m in [-l, l]."""
    return l * l + l + m


def lm_arrays(lmax):
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(lmax + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(lmax + 1)])
    return ls, ms


def _normalized_legendre(lmax, theta):
    """Fully normalized associated Legendre P_lm(cos theta) and d/dtheta.

    Normalization is such that int_0^pi P_lm^2 sin(theta) dtheta = 1/(2 pi),
    i.e. the m=0 harmonics are P_l0 themselves and the m>0 harmonics pick up a
    sqrt(2) azimuthal factor.  No Condon-Shortley phase.  Returns arrays of
    shape (lmax+1, lmax+1, len(theta)) indexed [l, m, node], zero for m > l;
    nodes run last so each recurrence step is a contiguous row operation.
    """
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    n = theta.shape[0]
    P = np.zeros((lmax + 1, lmax + 1, n))
    P[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, lmax + 1):
        P[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * P[m - 1, m - 1]
    for m in range(0, lmax):
        P[m + 1, m] = math.sqrt(2.0 * m + 3.0) * ct * P[m, m]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((2.0 * l - 1.0) * (2.0 * l + 1.0) / ((l - m) * (l + m)))
            b = math.sqrt(
                (2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m)
                / ((2.0 * l - 3.0) * (l - m) * (l + m))
            )
            P[l, m] = a * ct * P[l - 1, m] - b * P[l - 2, m]
    # dP/dtheta from sin(theta) P' = l cos(theta) P_lm - c_lm P_{l-1,m}
    dP = np.zeros_like(P)
    for m in range(0, lmax + 1):
        for l in range(m, lmax + 1):
            c = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > 0 else 0.0
            low = P[l - 1, m] if l >= 1 else 0.0
            dP[l, m] = (l * ct * P[l, m] - c * low) / st
    return P, dP


def real_sph_basis(lmax, theta, phi):
    """Real orthonormal harmonics and their theta-derivatives at given angles.

    theta, phi are flat arrays of equal length; returns (Y, Yt) of shape
    (npoints, (lmax+1)**2).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    P, dP = _normalized_legendre(lmax, theta)
    nb = n_coeffs(lmax)
    # filled one harmonic per contiguous row, transposed once at the end
    Y = np.zeros((nb, theta.shape[0]))
    Yt = np.zeros_like(Y)
    sq2 = math.sqrt(2.0)
    for l in range(lmax + 1):
        Y[coeff_index(l, 0)] = P[l, 0]
        Yt[coeff_index(l, 0)] = dP[l, 0]
    for m in range(1, lmax + 1):
        cm, sm = np.cos(m * phi), np.sin(m * phi)
        for l in range(m, lmax + 1):
            Y[coeff_index(l, m)] = sq2 * P[l, m] * cm
            Y[coeff_index(l, -m)] = sq2 * P[l, m] * sm
            Yt[coeff_index(l, m)] = sq2 * dP[l, m] * cm
            Yt[coeff_index(l, -m)] = sq2 * dP[l, m] * sm
    return np.ascontiguousarray(Y.T), np.ascontiguousarray(Yt.T)


@dataclass
class SphereGrid:
    """Gauss-Legendre x equispaced-longitude quadrature grid with transforms."""

    lmax: int
    theta: np.ndarray          # colatitudes, shape (ntheta,)
    phi: np.ndarray            # longitudes, shape (nphi,)
    w: np.ndarray              # node weights (flattened), sum = 4 pi
    Y: np.ndarray = field(repr=False)       # (nnodes, nbasis)
    Yt: np.ndarray = field(repr=False)      # d/dtheta
    ls: np.ndarray = field(repr=False)
    ms: np.ndarray = field(repr=False)

    @property
    def ntheta(self):
        return self.theta.shape[0]

    @property
    def nphi(self):
        return self.phi.shape[0]

    @property
    def nnodes(self):
        return self.ntheta * self.nphi

    @property
    def nbasis(self):
        return n_coeffs(self.lmax)

    def mesh(self):
        """(theta, phi) node arrays, flattened theta-major."""
        TH, PH = np.meshgrid(self.theta, self.phi, indexing="ij")
        return TH.ravel(), PH.ravel()

    def unit_vectors(self):
        """Unit directions omega and their first/second angular derivatives.

        Returns dict with keys 'o', 'ot', 'op', 'ott', 'otp', 'opp', each of
        shape (nnodes, 3).
        """
        th, ph = self.mesh()
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        o = np.stack([st * cp, st * sp, ct], axis=-1)
        ot = np.stack([ct * cp, ct * sp, -st], axis=-1)
        op = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
        ott = -o
        otp = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=-1)
        opp = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=-1)
        return {"o": o, "ot": ot, "op": op, "ott": ott, "otp": otp, "opp": opp}

    # -- transforms -------------------------------------------------------

    def _check_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.nnodes:
            raise ShapeMismatch(
                f"expected {self.nnodes} nodal values, got {values.shape[-1]}"
            )
        if not np.all(np.isfinite(values)):
            raise ShapeMismatch("nodal values must be finite")
        return values

    def analyze(self, values):
        """Forward transform: nodal values -> real harmonic coefficients."""
        values = self._check_values(values)
        return (values * self.w) @ self.Y

    def synthesize(self, coeffs):
        """Inverse transform: coefficients -> nodal values."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.nbasis:
            raise ShapeMismatch(
                f"expected {self.nbasis} coefficients, got {coeffs.shape[-1]}"
            )
        return coeffs @ self.Y.T

    def d_phi_coeffs(self, coeffs):
        """Coefficients of the longitude derivative of the synthesized field."""
        # d/dphi maps cos(m phi) -> -m sin(m phi) and sin(m phi) -> m cos(m phi)
        return (-self.ms * np.asarray(coeffs, dtype=float))[..., self.partner(self.lmax)]

    def synth_jet(self, coeffs):
        """Nodal value and first/second angular derivatives of a field.

        Returns dict with keys 'f', 'ft', 'fp', 'ftt', 'ftp', 'fpp'.  The
        second theta-derivative uses the harmonic ODE
        d2Y/dtheta2 = -cot(theta) dY/dtheta - (l(l+1) - m^2/sin^2) Y,
        which is exact on the (pole-free) Gauss nodes.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        th, _ = self.mesh()
        ct, st = np.cos(th), np.sin(th)
        dphi = self.d_phi_coeffs(coeffs)
        f = coeffs @ self.Y.T
        ft = coeffs @ self.Yt.T
        fp = dphi @ self.Y.T
        ftp = dphi @ self.Yt.T
        fpp = self.d_phi_coeffs(dphi) @ self.Y.T
        lap_c = self.ls * (self.ls + 1.0)
        m2 = self.ms.astype(float) ** 2
        ftt = -(ct / st) * ft - (lap_c * coeffs) @ self.Y.T + ((m2 * coeffs) @ self.Y.T) / st**2
        return {"f": f, "ft": ft, "fp": fp, "ftt": ftt, "ftp": ftp, "fpp": fpp}

    def partner(self, lmax):
        """(l, -m) partner p_j of each harmonic j up to lmax: d/dphi Y_j = -m_j Y_{p_j}."""
        return np.arange(n_coeffs(lmax)) - 2 * self.ms[: n_coeffs(lmax)]

    def operator_matrix(self, a, lmax):
        """Base-band matrix of a0 u + a1 u_t + a2 u_p + a3 u_tt + a4 u_tp + a5 u_pp.

        `a` holds the six nodal fields; entry [k, j] projects the action on
        harmonic j onto harmonic k, for j, k < n_coeffs(lmax).  The harmonic
        ODE folds the second derivatives into columns of Y, Yt and their
        partners; the projection is one GEMM onto the base band.
        """
        nb = n_coeffs(lmax)
        a0, a1, a2, a3, a4, a5 = (self.w * np.asarray(f, dtype=float) for f in a)
        th, _ = self.mesh()
        ct, st = np.cos(th), np.sin(th)
        ls, ms = self.ls[:nb], self.ms[:nb]
        # u_tt = -cot u_t - l(l+1) u + m^2 u / sin^2 and u_pp = -m^2 u per harmonic
        out = np.multiply.outer(a3, -(ls * (ls + 1.0)))
        out += np.multiply.outer(a3 / st**2 - a5, ms.astype(float) ** 2)
        out += a0[:, None]
        out *= self.Y[:, :nb]
        out += self.Yt[:, :nb] * (a1 - a3 * ct / st)[:, None]
        # u_p of harmonic j is -m_j times harmonic p_j, and m_{p_j} = -m_j
        dphi = self.Y[:, :nb] * np.multiply.outer(a2, ms)
        dphi += self.Yt[:, :nb] * np.multiply.outer(a4, ms)
        out += dphi[:, self.partner(lmax)]
        return (out.T @ self.Y[:, :nb]).T

    def integrate(self, values):
        """Quadrature of nodal values against the round measure sin(theta) dtheta dphi."""
        values = self._check_values(values)
        return values @ self.w


def build_grid(lmax):
    """Build the quadrature grid and transform matrices for a band limit."""
    if lmax < MIN_LMAX:
        raise BandLimitTooSmall(f"band limit {lmax} < {MIN_LMAX}")
    x, wgl = leggauss(lmax + 1)
    order = np.argsort(-x)  # theta ascending
    theta = np.arccos(x[order])
    wtheta = wgl[order]
    nphi = 2 * lmax + 2
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    w = np.repeat(wtheta, nphi) * (2.0 * np.pi / nphi)
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    Y, Yt = real_sph_basis(lmax, TH.ravel(), PH.ravel())
    ls, ms = lm_arrays(lmax)
    for a in (theta, phi, w, Y, Yt, ls, ms):
        a.flags.writeable = False
    return SphereGrid(lmax=lmax, theta=theta, phi=phi, w=w, Y=Y, Yt=Yt, ls=ls, ms=ms)


@lru_cache(maxsize=32)
def get_grid(lmax):
    """Cached grid of a band limit; its arrays are read-only."""
    return build_grid(lmax)


def dealias_lmax(lmax):
    """Band limit of the working grid used for pointwise nonlinear products."""
    return (3 * lmax + 1) // 2 + 1


def pad_coeffs(coeffs, lmax_from, lmax_to):
    """Zero-pad a coefficient vector to a larger band limit."""
    if lmax_to < lmax_from:
        raise ShapeMismatch("target band limit smaller than source")
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(coeffs.shape[:-1] + (n_coeffs(lmax_to),))
    out[..., : n_coeffs(lmax_from)] = coeffs
    return out


def truncate_coeffs(coeffs, lmax_to):
    """Drop coefficients above a band limit."""
    return np.asarray(coeffs, dtype=float)[..., : n_coeffs(lmax_to)]


def laplace_round(coeffs, r):
    """Laplace-Beltrami of a field on the round sphere of radius r.

    Acts diagonally in the harmonic basis: each degree-l block is multiplied
    by -l(l+1)/r**2.
    """
    if r <= 0:
        raise NonpositiveRadius(f"radius {r} <= 0")
    coeffs = np.asarray(coeffs, dtype=float)
    nb = coeffs.shape[-1]
    lmax = int(round(math.sqrt(nb))) - 1
    if n_coeffs(lmax) != nb:
        raise ShapeMismatch(f"coefficient vector length {nb} is not a square")
    ls, _ = lm_arrays(lmax)
    return -(ls * (ls + 1.0)) / r**2 * coeffs
