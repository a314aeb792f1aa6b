"""Sphere discretization: Gauss-Legendre grid, real spherical harmonics, transforms.

The grid couples Gauss-Legendre colatitudes (lmax+1 of them) with 2*lmax+2
equispaced longitudes, so products of basis functions with combined degree up
to 2*lmax+1 are integrated exactly.  The basis is the real orthonormal
spherical-harmonic basis on the unit sphere; coefficients are stored flat,
ordered by (l, m) with index l**2 + l + m.

Transforms are separable (Driscoll & Healy, Adv. Appl. Math. 15, 202, 1994;
Schaeffer, G^3 14, 751, 2013): an FFT along phi and one Legendre product per
order m.  A grid keeps the normalized P_lm, dP_lm/dtheta and d2P_lm/dtheta2 at
its colatitudes and cos(m phi), sin(m phi) with their phi-derivatives at its
longitudes, not a dense (nodes x harmonics) basis.  The Galerkin matrices of
the solver (bilinear) separate the same way: phi-sums per latitude, then one
Legendre contraction per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
from numpy.polynomial.legendre import leggauss

from .chart import _read_only
from .errors import BandLimitTooSmall, ShapeMismatch

MIN_LMAX = 4

# synth_jet key -> (Legendre table q: P, dP or d2P; order of the phi-derivative)
_JET_DERIVATIVES = {"f": (0, 0), "ft": (1, 0), "fp": (0, 1), "ftt": (2, 0), "ftp": (1, 1), "fpp": (0, 2)}


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


@lru_cache(maxsize=32)
def _legendre_steps(lmax):
    """Read-only constants of _legendre_orders: (step offsets, sectoral factors, step-1 factors, (a, b) per step, order rows)."""
    M, orders = lmax + 1, np.arange(lmax + 1)
    start = np.concatenate(([0], np.cumsum(np.arange(M, 0, -1))))  # step k: M - k orders
    sectoral = np.array([math.sqrt((2.0 * m + 1.0) / (2.0 * m)) for m in range(1, M)])
    first = np.sqrt(2.0 * orders[: M - 1] + 3.0)
    steps = []
    for k in range(2, M):
        m, l = orders[: M - k], orders[: M - k] + k
        a = np.sqrt((2.0 * l - 1.0) * (2.0 * l + 1.0) / ((l - m) * (l + m)))
        b = np.sqrt((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m) / ((2.0 * l - 3.0) * (l - m) * (l + m)))
        steps.append((_read_only(a), _read_only(b)))
    gathers = tuple(_read_only(start[: M - m] + m) for m in range(M))
    return _read_only(start), _read_only(sectoral), _read_only(first), tuple(steps), gathers


def _legendre_orders(lmax, ct, st):
    """Yield (m, P) with P[l - m] = P_lm(cos theta) for l = m..lmax.

    Fully normalized, int_0^pi P_lm^2 sin(theta) dtheta = 1/(2 pi): the m = 0
    harmonics are P_l0 themselves and the m > 0 harmonics pick up a sqrt(2)
    azimuthal factor.  No Condon-Shortley phase.  The three-term recurrence in
    l runs for every order at once: step k sets degree m + k of each order m
    with m + k <= lmax, seeded by the sectoral P_mm (one running product over
    the orders).  Each entry takes the same scalar coefficients and operations
    as a recurrence run order by order; the coefficients are the band's
    cached _legendre_steps.  The steps are stored packed, step k in rows
    start[k] + m, so the table holds the triangle l >= m only, and each order
    is gathered from it when yielded.  Nothing divides by sin(theta), so the
    poles are regular.
    """
    M = lmax + 1
    col = (-1,) + (1,) * ct.ndim  # a coefficient per order, broadcast over the points
    start, sectoral, first, steps, gathers = _legendre_steps(lmax)
    T = np.empty((start[-1],) + ct.shape)  # T[start[k] + m] = P_{m + k, m}
    T[0] = math.sqrt(1.0 / (4.0 * math.pi))
    # P_mm = P_{m-1, m-1} (c_m st), the product taken in the order of the per-order recurrence
    np.multiply(sectoral.reshape(col), st, out=T[1:M])
    np.multiply.accumulate(T[:M], axis=0, out=T[:M])
    T[start[1] : start[1] + M - 1] = first.reshape(col) * ct * T[: M - 1]
    for k, (a, b) in enumerate(steps, 2):
        prev1, prev2 = T[start[k - 1] : start[k - 1] + M - k], T[start[k - 2] : start[k - 2] + M - k]
        T[start[k] : start[k] + M - k] = a.reshape(col) * ct * prev1 - b.reshape(col) * prev2
    for m in range(M):
        yield m, T[gathers[m]]


def _legendre_jets(lmax, theta):
    """Yield (m, P, dP) per order m: P as in _legendre_orders and dP = dP/dtheta.

    dP from sin(theta) dP_lm = l cos(theta) P_lm - c_lm P_{l-1,m}, one
    vector expression over l per order; it divides by sin(theta), so theta
    must avoid the poles.
    """
    ct, st = np.cos(theta), np.sin(theta)
    for m, P in _legendre_orders(lmax, ct, st):
        l = np.arange(m, lmax + 1)
        num = l[:, None] * ct * P
        # c_lm = 0 at l = m, where P_{l-1,m} is absent
        c = np.sqrt((l[1:] * l[1:] - m * m) * (2.0 * l[1:] + 1.0) / (2.0 * l[1:] - 1.0))
        num[1:] -= c[:, None] * P[:-1]
        yield m, P, num / st


def real_sph_basis(lmax, theta, phi):
    """Real orthonormal harmonics and their theta-derivatives at given angles.

    theta, phi are flat arrays of equal length; returns (Y, Yt) of shape
    (npoints, (lmax+1)**2).  A dense reference: the grid transforms, bilinear
    and synthesize_at do not use it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    nb = n_coeffs(lmax)
    # filled one harmonic per contiguous row, transposed once at the end
    Y = np.zeros((nb, theta.shape[0]))
    Yt = np.zeros_like(Y)
    sq2 = math.sqrt(2.0)
    for m, P, dP in _legendre_jets(lmax, theta):
        k = coeff_index(np.arange(m, lmax + 1), 0)
        if m == 0:
            Y[k], Yt[k] = P, dP
            continue
        cm, sm = np.cos(m * phi), np.sin(m * phi)
        Y[k + m], Y[k - m] = sq2 * P * cm, sq2 * P * sm
        Yt[k + m], Yt[k - m] = sq2 * dP * cm, sq2 * dP * sm
    return np.ascontiguousarray(Y.T), np.ascontiguousarray(Yt.T)


@lru_cache(maxsize=32)
def _order_rows(lmax):
    """Read-only coefficient rows of each order m: l^2 + l at m = 0, else the stacked (cos, sin) rows l^2 + l +- m."""
    ls = [np.arange(m, lmax + 1) for m in range(lmax + 1)]
    return tuple(_read_only(np.stack([l * l + l + m, l * l + l - m]) if m else l * l + l) for m, l in enumerate(ls))


def synthesize_at(coeffs, theta, phi):
    """Field of flat harmonic coefficients at scattered directions.

    The degrees of each order m are summed against its Legendre recurrence,
    so no (points x harmonics) matrix is formed; the poles are regular.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lmax = _band_limit(coeffs.shape[-1])
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    mphi = np.multiply.outer(np.arange(1, lmax + 1), phi)
    cos, sin = np.cos(mphi), np.sin(mphi)
    out = np.zeros(theta.shape)
    for (m, P), rows in zip(_legendre_orders(lmax, np.cos(theta), np.sin(theta)), _order_rows(lmax)):
        cs = coeffs[rows] @ P
        out += cs if m == 0 else math.sqrt(2.0) * (cs[0] * cos[m - 1] + cs[1] * sin[m - 1])
    return out


@dataclass
class SphereGrid:
    """Gauss-Legendre x equispaced-longitude quadrature grid with transforms.

    `legendre[m, q * ntheta + i, l]` holds P_lm (q = 0), dP_lm/dtheta (q = 1)
    and d2P_lm/dtheta2 (q = 2) at colatitude i, with the sqrt(2) of the m > 0
    harmonics folded in and zeros for l < m.  `trig[d, k, m, c]` holds the
    d-th phi-derivative (d = 0, 1, 2) of cos(m phi) (c = 0) and sin(m phi)
    (c = 1) at longitude k.  Coefficients map into (order m, degree l,
    cos/sin) slots through `spectral_index`.
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
    def mesh(self):
        """(theta, phi) node arrays, flattened theta-major; read-only."""
        TH, PH = np.meshgrid(self.theta, self.phi, indexing="ij")
        return _read_only(TH.ravel()), _read_only(PH.ravel())

    @cached_property
    def unit_vectors(self):
        """Unit directions omega and their first/second angular derivatives.

        A read-only mapping with keys 'o', 'ot', 'op', 'ott', 'otp', 'opp',
        each of shape (nnodes, 3).
        """
        th, ph = self.mesh
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        o = np.stack([st * cp, st * sp, ct], axis=-1)
        ot = np.stack([ct * cp, ct * sp, -st], axis=-1)
        op = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
        ott = -o
        otp = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=-1)
        opp = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=-1)
        keys = ("o", "ot", "op", "ott", "otp", "opp")
        return MappingProxyType(dict(zip(keys, map(_read_only, (o, ot, op, ott, otp, opp)))))

    @cached_property
    def trig(self):
        """The phi table `trig[d, k, m, c]` of bilinear; read-only, built on first use."""
        mphi = np.multiply.outer(self.phi, np.arange(self.lmax + 1))
        cos_sin = np.stack([np.cos(mphi), np.sin(mphi)], axis=-1)
        m = np.arange(self.lmax + 1.0)[:, None]
        # d/dphi (cos, sin)(m phi) = m (-sin, cos)(m phi); d2/dphi2 = -m^2
        return _read_only(np.stack([cos_sin, m * cos_sin[..., ::-1] * [-1.0, 1.0], -(m**2) * cos_sin]))

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
        return self._legendre_analysis(F, slice(0, nt)).reshape(lead + (self.nbasis,))

    def _legendre_analysis(self, spectra, rows):
        """Weighted phi spectra (field, row, m) -> (field, nbasis) coefficients, contracted against table rows.

        The transpose of _legendre_sums: each field's spectra are summed over
        the rows against the rows' Legendre values of every harmonic.
        """
        k, M = spectra.shape[0], self.lmax + 1
        # (m, row, field) with each field's real and imaginary part adjacent
        S = np.ascontiguousarray(spectra.transpose(2, 1, 0)).view(np.float64)
        out = np.matmul(self.legendre[:, rows].transpose(0, 2, 1), S)
        # sum_j f_j cos(m phi_j) = Re F_m and sum_j f_j sin(m phi_j) = -Im F_m
        out = out.reshape(M * M, k, 2).transpose(1, 0, 2).reshape(k, 2 * M * M)[:, self.spectral_index]
        out[:, self.ms < 0] *= -1.0
        return out

    def _legendre_sums(self, coeffs, rows):
        """Legendre sums of each order m against table rows, as phi spectra.

        Returns complex (field, row, m): A_m - i B_m for the cos and sin sums
        A_m, B_m, halved for m > 0, so that an inverse rfft without the
        1/nphi factor sums the orders into nodal values.  The coefficients
        may have any band up to the grid's; the degrees above it are zero.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        nb = coeffs.shape[-1]
        if _band_limit(nb) > self.lmax:
            raise ShapeMismatch(f"{nb} coefficients exceed the grid's {self.nbasis} (band {self.lmax})")
        k = math.prod(coeffs.shape[:-1])
        M = self.lmax + 1
        S = np.zeros((k, 2 * M * M))
        S[:, self.spectral_index[:nb]] = coeffs.reshape(k, nb) * self._synthesis_scale[:nb]
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
        """Inverse transform: coefficients of any band up to the grid's -> nodal values."""
        C = self._legendre_sums(coeffs, slice(0, self.ntheta))
        # the Nyquist order stays zero: m <= lmax < nphi / 2
        X = np.zeros(C.shape[:-1] + (C.shape[-1] + 1,), dtype=np.complex128)
        X[..., :-1] = C
        return self._nodal(X, np.shape(coeffs)[:-1])

    def synth_jet(self, coeffs, order=2):
        """Nodal value and angular derivatives to `order` (1 or 2) of a field of any band up to the grid's.

        Returns dict with keys 'f', 'ft', 'fp' and, at order 2, 'ftt', 'ftp',
        'fpp'.  The theta-derivatives come from the tabulated dP and d2P;
        d/dphi acts on the order-m spectra as multiplication by i m.
        """
        nt, M, nq = self.ntheta, self.lmax + 1, order + 1
        C = self._legendre_sums(coeffs, slice(0, nq * nt))
        C = C.reshape(C.shape[0], nq, nt, M).swapaxes(0, 1)
        X = np.zeros((3 * order,) + C.shape[1:-1] + (M + 1,), dtype=np.complex128)
        X[:nq, ..., :M] = C                                        # f, ft, ftt from P, dP, d2P
        m = np.arange(M + 0.0)
        np.multiply(C[:order], 1j * m, out=X[nq : nq + order, ..., :M])  # fp, ftp
        if order == 2:
            np.multiply(C[0], -m * m, out=X[5, ..., :M])           # fpp
        f, ft, *rest = self._nodal(X, np.shape(coeffs)[:-1])
        if order == 1:
            return {"f": f, "ft": ft, "fp": rest[0]}
        ftt, fp, ftp, fpp = rest
        return {"f": f, "ft": ft, "fp": fp, "ftt": ftt, "ftp": ftp, "fpp": fpp}

    def _analyze_jet(self, fields):
        """Transpose of synth_jet: entry k sums the quadratures of each field against D_t Y_k, t its key.

        fields maps synth_jet keys to nodal fields of one shape (..., nnodes),
        and the result holds every harmonic of the grid's band per leading
        index; for the six fields a_t f, its leading n_coeffs(lmax) entries
        are operator_matrix(a, lmax)^T applied to the coefficients of f.
        d/dphi moves onto the phi spectra as multiplication by -i m (the
        transpose of synth_jet's i m), and the given fields that share a theta
        table (P, dP or d2P) are summed before its one Legendre contraction.
        """
        keys = list(fields)
        values = self._check_values(np.stack([fields[key] for key in keys]))
        lead = values.shape[1:-1]
        nt, M, k = self.ntheta, self.lmax + 1, math.prod(lead)
        F = np.fft.rfft(values.reshape(len(keys), k, nt, self.nphi))[..., :M] * self.w[:: self.nphi, None]
        qs = [_JET_DERIVATIVES[key][0] for key in keys]
        q0, nq = min(qs), max(qs) - min(qs) + 1
        im = -1j * np.arange(M)
        factors = (1.0, im, im * im)
        G = np.zeros((k, nq, nt, M), dtype=np.complex128)
        for Ft, key in zip(F, keys):
            q, d = _JET_DERIVATIVES[key]
            G[:, q - q0] += Ft * factors[d]
        return self._legendre_analysis(G.reshape(k, nq * nt, M), slice(q0 * nt, (q0 + nq) * nt)).reshape(lead + (self.nbasis,))

    def bilinear(self, terms, lmax):
        """Base-band matrix of a sum of bilinear forms, by quadrature.

        `terms` holds (left, right, f): synth_jet keys ('f', 'ft', 'fp',
        'ftt', 'ftp', 'fpp') of the derivatives D_left, D_right and a nodal
        field f.  Entry [k, j] is the sum over terms of the quadrature of
        f (D_left Y_k)(D_right Y_j), for j, k < n_coeffs(lmax).

        Each derivative of Y is a Legendre table in theta times a `trig`
        factor in phi, so the sum separates: one phi-sum per latitude and
        pair of (order, cos/sin) slots, the right theta table folded in per
        harmonic j, and one theta contraction per left order m.
        """
        nb = n_coeffs(lmax)
        M, nt, nphi = lmax + 1, self.ntheta, self.nphi
        ls, ms = self.ls[:nb], self.ms[:nb]
        slots = 2 * np.abs(ms) + (ms < 0)
        trig = self.trig[:, :, :M].reshape(3, nphi, 2 * M)
        leg = self.legendre[:M].reshape(M, 3, nt, -1)[..., :M]   # [m, q, i, l]
        right = leg[np.abs(ms), :, :, ls].transpose(1, 2, 0)       # [q, i, j]
        # left derivative -> right theta table -> weighted field times the
        # right trig factor, [longitude, latitude, slot_j]
        groups = {}
        for lkey, rkey, f in terms:
            q, d = _JET_DERIVATIVES[rkey]
            fw = (self.w * np.asarray(f, dtype=float)).reshape(nt, nphi).T[:, :, None] * trig[d][:, None, :]
            sums = groups.setdefault(_JET_DERIVATIVES[lkey], {})
            sums[q] = sums[q] + fw if q in sums else fw
        # phi-sums G[m_k, c_k, i, slot_j] against the left trig factor, and the
        # left theta tables stacked along the contracted (left, i) axis
        folds = [
            [((trig[d].T @ fw.reshape(nphi, -1)).reshape(M, 2, nt, 2 * M), right[q]) for q, fw in sums.items()]
            for (_, d), sums in groups.items()
        ]
        left = np.concatenate([leg[:, q] for q, _ in groups], axis=1)  # [m, (left, i), l]
        out = np.empty((M, 2, M, nb))
        for m in range(M):
            # per order, so the folded (cos/sin, (left, i), j) block stays in cache;
            # l < m rows of the table are zero and stay unset
            W = np.concatenate([sum(G[m][..., slots] * P for G, P in fold) for fold in folds], axis=1)
            np.matmul(left[m, :, m:].T, W, out=out[m, :, m:])
        return out.reshape(2 * M * M, nb)[slots * M + ls]

    def operator_matrix(self, a, lmax):
        """Base-band matrix of a0 u + a1 u_t + a2 u_p + a3 u_tt + a4 u_tp + a5 u_pp.

        `a` holds the six nodal fields; entry [k, j] projects the action on
        harmonic j onto harmonic k, for j, k < n_coeffs(lmax).
        """
        return self.bilinear([("f", key, f) for key, f in zip(_JET_DERIVATIVES, a, strict=True)], lmax)

    def integrate(self, values):
        """Quadrature of nodal values against the round measure sin(theta) dtheta dphi."""
        values = self._check_values(values)
        return values @ self.w


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
    ct, st = np.cos(theta), np.sin(theta)
    legendre = np.zeros((lmax + 1, 3 * theta.shape[0], lmax + 1))
    for m, P, dP in _legendre_jets(lmax, theta):
        # harmonic ODE, exact at the pole-free Gauss nodes:
        # d2P/dtheta2 = -cot(theta) dP/dtheta - (l(l+1) - m^2/sin^2) P
        l = np.arange(m, lmax + 1.0)[:, None]
        d2P = -(ct / st) * dP - (l * (l + 1.0) - m**2 / st**2) * P
        legendre[m, :, m:] = np.concatenate([P, dP, d2P], axis=1).T * (math.sqrt(2.0) if m > 0 else 1.0)
    ls, ms = lm_arrays(lmax)
    spectral_index = (np.abs(ms) * (lmax + 1) + ls) * 2 + (ms < 0)
    for a in (theta, phi, w, legendre, spectral_index, ls, ms):
        _read_only(a)
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
