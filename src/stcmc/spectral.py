"""Sphere discretization: Gauss-Legendre grid, real spherical harmonics, transforms.

The grid couples Gauss-Legendre colatitudes (lmax+1 of them) with 2*lmax+2
equispaced longitudes, so products of basis functions with combined degree up
to 2*lmax+1 are integrated exactly.  The basis is the real orthonormal
spherical-harmonic basis on the unit sphere; coefficients are stored flat,
ordered by (l, m) with index l**2 + l + m.

Transforms are separable (Driscoll & Healy, Adv. Appl. Math. 15, 202, 1994;
Schaeffer, G^3 14, 751, 2013): an FFT along phi and one Legendre product per
order m.  A grid keeps the normalized P_lm, dP_lm/dtheta and d2P_lm/dtheta2 at
its colatitudes, not a dense (nodes x harmonics) basis.  Only the solver's
matrix assembly reads a dense basis, and only its base band, built from those
tables on first use per band limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BandLimitTooSmall, NonpositiveRadius, ShapeMismatch

MIN_LMAX = 4


def n_coeffs(lmax):
    return (lmax + 1) ** 2


def coeff_index(l, m):
    """Flat index of the (l, m) real harmonic, m in [-l, l]."""
    return l * l + l + m


def _band_limit(nb):
    """lmax of a flat coefficient vector of length nb."""
    lmax = int(round(math.sqrt(nb))) - 1
    if n_coeffs(lmax) != nb:
        raise ShapeMismatch(f"coefficient vector length {nb} is not a square")
    return lmax


def lm_arrays(lmax):
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(lmax + 1)])
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(lmax + 1)])
    return ls, ms


def _legendre_orders(lmax, ct, st):
    """Yield (m, P) with P[l - m] = P_lm(cos theta) for l = m..lmax.

    Normalization as in _normalized_legendre; one three-term recurrence in l
    per order m, seeded by the sectoral P_mm.  Nothing divides by sin(theta),
    so the poles are regular.
    """
    pmm = np.full(ct.shape, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(lmax + 1):
        if m > 0:
            pmm = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * pmm
        P = np.empty((lmax + 1 - m,) + ct.shape)
        P[0] = pmm
        if m < lmax:
            P[1] = math.sqrt(2.0 * m + 3.0) * ct * pmm
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((2.0 * l - 1.0) * (2.0 * l + 1.0) / ((l - m) * (l + m)))
            b = math.sqrt(
                (2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m)
                / ((2.0 * l - 3.0) * (l - m) * (l + m))
            )
            P[l - m] = a * ct * P[l - m - 1] - b * P[l - m - 2]
        yield m, P


def _normalized_legendre(lmax, theta):
    """Fully normalized associated Legendre P_lm(cos theta) and d/dtheta.

    Normalization is such that int_0^pi P_lm^2 sin(theta) dtheta = 1/(2 pi),
    i.e. the m=0 harmonics are P_l0 themselves and the m>0 harmonics pick up a
    sqrt(2) azimuthal factor.  No Condon-Shortley phase.  Returns arrays of
    shape (lmax+1, lmax+1, len(theta)) indexed [l, m, node], zero for m > l.
    """
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    P = np.zeros((lmax + 1, lmax + 1, theta.shape[0]))
    for m, Pm in _legendre_orders(lmax, ct, st):
        P[m:, m] = Pm
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
    (npoints, (lmax+1)**2).  A dense reference: the grid transforms and
    synthesize_at do not use it.
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


def synthesize_at(coeffs, theta, phi):
    """Field of flat harmonic coefficients at scattered directions.

    The degrees of each order m are summed against its Legendre recurrence,
    so no (points x harmonics) matrix is formed; the poles are regular.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lmax = _band_limit(coeffs.shape[-1])
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    out = np.zeros(theta.shape)
    for m, P in _legendre_orders(lmax, np.cos(theta), np.sin(theta)):
        l = np.arange(m, lmax + 1)
        if m == 0:
            out += coeffs[l * l + l] @ P
            continue
        cos_sin = coeffs[np.stack([l * l + l + m, l * l + l - m])] @ P
        out += math.sqrt(2.0) * (cos_sin[0] * np.cos(m * phi) + cos_sin[1] * np.sin(m * phi))
    return out


@dataclass
class SphereGrid:
    """Gauss-Legendre x equispaced-longitude quadrature grid with transforms.

    `legendre[m, q * ntheta + i, l]` holds P_lm (q = 0), dP_lm/dtheta (q = 1)
    and d2P_lm/dtheta2 (q = 2) at colatitude i, with the sqrt(2) of the m > 0
    harmonics folded in and zeros for l < m.  Coefficients map into
    (order m, degree l, cos/sin) slots through `spectral_index`.
    """

    lmax: int
    theta: np.ndarray          # colatitudes, shape (ntheta,)
    phi: np.ndarray            # longitudes, shape (nphi,)
    w: np.ndarray              # node weights (flattened), sum = 4 pi
    legendre: np.ndarray = field(repr=False)        # (lmax+1, 3 ntheta, lmax+1)
    spectral_index: np.ndarray = field(repr=False)  # flat (l, m) -> (|m|, l, m < 0)
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

    @cached_property
    def _mesh(self):
        TH, PH = np.meshgrid(self.theta, self.phi, indexing="ij")
        return _read_only(TH.ravel(), PH.ravel())

    def mesh(self):
        """(theta, phi) node arrays, flattened theta-major; read-only."""
        return self._mesh

    @cached_property
    def _unit_vectors(self):
        th, ph = self.mesh()
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        o = np.stack([st * cp, st * sp, ct], axis=-1)
        ot = np.stack([ct * cp, ct * sp, -st], axis=-1)
        op = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
        ott = -o
        otp = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=-1)
        opp = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=-1)
        keys = ("o", "ot", "op", "ott", "otp", "opp")
        return MappingProxyType(dict(zip(keys, _read_only(o, ot, op, ott, otp, opp))))

    def unit_vectors(self):
        """Unit directions omega and their first/second angular derivatives.

        Returns a read-only mapping with keys 'o', 'ot', 'op', 'ott', 'otp',
        'opp', each of shape (nnodes, 3).
        """
        return self._unit_vectors

    @cached_property
    def _base(self):
        return {}

    def base_basis(self, lmax):
        """Dense (Y, Y_theta) of the harmonics up to lmax at the nodes.

        Shape (nnodes, n_coeffs(lmax)) each, built from the Legendre tables
        once per band limit and kept read-only; the matrix assemblies of the
        solver read it.
        """
        if lmax not in self._base:
            nb = n_coeffs(lmax)
            ls, ms = self.ls[:nb], self.ms[:nb]
            am = np.abs(ms)
            nt = self.ntheta
            mphi = np.multiply.outer(self.phi, am)
            trig = np.where(ms >= 0, np.cos(mphi), np.sin(mphi))
            # table[|m_j|, q * nt + i, l_j] * trig(m_j phi), node i * nphi + k
            Y, Yt = (
                (self.legendre[am, q * nt : (q + 1) * nt, ls].T[:, None, :] * trig).reshape(self.nnodes, nb)
                for q in (0, 1)
            )
            self._base[lmax] = _read_only(Y, Yt)
        return self._base[lmax]

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
        lead = values.shape[:-1]
        nt, M = self.ntheta, self.lmax + 1
        k = math.prod(lead)
        # nphi = 2 M: the orders m <= lmax stop below the Nyquist frequency
        F = np.fft.rfft(values.reshape(k, nt, self.nphi))[..., :M] * self.w[:: self.nphi, None]
        # (m, theta, field) with each field's real and imaginary part adjacent
        F = np.ascontiguousarray(F.transpose(2, 1, 0)).view(np.float64)
        out = np.matmul(self.legendre[:, :nt].transpose(0, 2, 1), F)
        # sum_j f_j cos(m phi_j) = Re F_m and sum_j f_j sin(m phi_j) = -Im F_m
        out = out.reshape(M * M, k, 2).transpose(1, 0, 2).reshape(k, 2 * M * M)[:, self.spectral_index]
        out[:, self.ms < 0] *= -1.0
        return out.reshape(lead + (self.nbasis,))

    def _legendre_sums(self, coeffs, rows):
        """Legendre sums of each order m against table rows, as phi spectra.

        Returns complex (field, row, m): A_m - i B_m for the cos and sin sums
        A_m, B_m, halved for m > 0, so that an inverse rfft without the
        1/nphi factor sums the orders into nodal values.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != self.nbasis:
            raise ShapeMismatch(
                f"expected {self.nbasis} coefficients, got {coeffs.shape[-1]}"
            )
        k = math.prod(coeffs.shape[:-1])
        M = self.lmax + 1
        S = np.zeros((k, 2 * M * M))
        S[:, self.spectral_index] = coeffs.reshape(k, self.nbasis) * self._synthesis_scale
        S = S.reshape(k, M * M, 2).transpose(1, 0, 2).reshape(M, M, 2 * k)
        return np.matmul(self.legendre[:, rows], S).view(np.complex128).T

    @cached_property
    def _synthesis_scale(self):
        return np.where(self.ms == 0, 1.0, np.where(self.ms > 0, 0.5, -0.5))

    def _nodal(self, spectra, lead):
        """(..., field, theta, m) spectra -> (..., *lead, nnodes) nodal values."""
        out = np.fft.irfft(spectra, n=self.nphi, norm="forward")
        return out.reshape(out.shape[:-3] + lead + (self.nnodes,))

    def synthesize(self, coeffs):
        """Inverse transform: coefficients -> nodal values."""
        C = self._legendre_sums(coeffs, slice(0, self.ntheta))
        # the Nyquist order stays zero: m <= lmax < nphi / 2
        X = np.zeros(C.shape[:-1] + (C.shape[-1] + 1,), dtype=np.complex128)
        X[..., :-1] = C
        return self._nodal(X, np.shape(coeffs)[:-1])

    def synth_jet(self, coeffs):
        """Nodal value and first/second angular derivatives of a field.

        Returns dict with keys 'f', 'ft', 'fp', 'ftt', 'ftp', 'fpp'.  The
        theta-derivatives come from the tabulated dP and d2P; d/dphi acts on
        the order-m spectra as multiplication by i m.
        """
        nt, M = self.ntheta, self.lmax + 1
        C = self._legendre_sums(coeffs, slice(None))
        C = C.reshape(C.shape[0], 3, nt, M).swapaxes(0, 1)
        X = np.zeros((6,) + C.shape[1:-1] + (M + 1,), dtype=np.complex128)
        X[:3, ..., :M] = C                                  # f, ft, ftt from P, dP, d2P
        m = np.arange(M + 0.0)
        np.multiply(C[:2], 1j * m, out=X[3:5, ..., :M])     # fp, ftp
        np.multiply(C[0], -m * m, out=X[5, ..., :M])        # fpp
        f, ft, ftt, fp, ftp, fpp = self._nodal(X, np.shape(coeffs)[:-1])
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
        Y, Yt = self.base_basis(lmax)
        a0, a1, a2, a3, a4, a5 = (self.w * np.asarray(f, dtype=float) for f in a)
        th, _ = self.mesh()
        ct, st = np.cos(th), np.sin(th)
        ls, ms = self.ls[:nb], self.ms[:nb]
        # u_tt = -cot u_t - l(l+1) u + m^2 u / sin^2 and u_pp = -m^2 u per harmonic
        out = np.multiply.outer(a3, -(ls * (ls + 1.0)))
        out += np.multiply.outer(a3 / st**2 - a5, ms.astype(float) ** 2)
        out += a0[:, None]
        out *= Y
        out += Yt * (a1 - a3 * ct / st)[:, None]
        # u_p of harmonic j is -m_j times harmonic p_j, and m_{p_j} = -m_j
        dphi = Y * np.multiply.outer(a2, ms)
        dphi += Yt * np.multiply.outer(a4, ms)
        out += dphi[:, self.partner(lmax)]
        return (out.T @ Y).T

    def integrate(self, values):
        """Quadrature of nodal values against the round measure sin(theta) dtheta dphi."""
        values = self._check_values(values)
        return values @ self.w


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def build_grid(lmax):
    """Build the quadrature grid and its Legendre tables for a band limit."""
    if lmax < MIN_LMAX:
        raise BandLimitTooSmall(f"band limit {lmax} < {MIN_LMAX}")
    x, wgl = leggauss(lmax + 1)
    order = np.argsort(-x)  # theta ascending
    theta = np.arccos(x[order])
    wtheta = wgl[order]
    nphi = 2 * lmax + 2
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    w = np.repeat(wtheta, nphi) * (2.0 * np.pi / nphi)
    P, dP = _normalized_legendre(lmax, theta)
    # harmonic ODE, exact at the pole-free Gauss nodes:
    # d2P/dtheta2 = -cot(theta) dP/dtheta - (l(l+1) - m^2/sin^2) P
    l = np.arange(lmax + 1.0)[:, None, None]
    m = np.arange(lmax + 1.0)[None, :, None]
    ct, st = np.cos(theta), np.sin(theta)
    d2P = -(ct / st) * dP - (l * (l + 1.0) - m**2 / st**2) * P
    scale = np.where(m > 0, math.sqrt(2.0), 1.0)
    legendre = np.ascontiguousarray((np.concatenate([P, dP, d2P], axis=2) * scale).transpose(1, 2, 0))
    ls, ms = lm_arrays(lmax)
    spectral_index = (np.abs(ms) * (lmax + 1) + ls) * 2 + (ms < 0)
    _read_only(theta, phi, w, legendre, spectral_index, ls, ms)
    return SphereGrid(
        lmax=lmax, theta=theta, phi=phi, w=w, legendre=legendre,
        spectral_index=spectral_index, ls=ls, ms=ms,
    )


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
    ls, _ = lm_arrays(_band_limit(coeffs.shape[-1]))
    return -(ls * (ls + 1.0)) / r**2 * coeffs
