import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stcmc.errors import BandLimitTooSmall, ShapeMismatch
from stcmc.solver import laplace_spectrum
from stcmc.spectral import (
    build_grid,
    coeff_index,
    dealias_lmax,
    get_grid,
    lm_arrays,
    n_coeffs,
    pad_coeffs,
    real_sph_basis,
    synthesize_at,
    truncate_coeffs,
)
from stcmc.surfaces import GraphSurface, surface_frames

G8 = build_grid(8)
G16 = build_grid(16)


def test_weights_sum_to_sphere_area():
    assert abs(G8.w.sum() - 4 * np.pi) < 1e-13


def test_second_moment_of_direction():
    om = G8.unit_vectors["o"]
    val = G8.integrate(om[:, 0] ** 2)
    assert abs(val - 4 * np.pi / 3) < 1e-13


def test_orthonormality_l3m2():
    c = np.zeros(G16.nbasis)
    c[coeff_index(3, 2)] = 1.0
    y = G16.synthesize(c)
    assert abs(G16.integrate(y * y) - 1.0) < 1e-12


def test_full_gram_matrix_identity():
    gram = G16.analyze(G16.synthesize(np.eye(G16.nbasis)))
    assert np.max(np.abs(gram - np.eye(G16.nbasis))) < 1e-12


def _dense_jet(lmax, c, th, ph):
    """Every synth_jet key from the dense basis: partners for d/dphi, the harmonic ODE for d2/dtheta2."""
    Y, Yt = real_sph_basis(lmax, th, ph)
    ls, ms = lm_arrays(lmax)
    partner = np.arange(n_coeffs(lmax)) - 2 * ms
    dphi = (-ms * c)[..., partner]
    st, ct = np.sin(th), np.cos(th)
    return {
        "f": c @ Y.T,
        "ft": c @ Yt.T,
        "fp": dphi @ Y.T,
        "ftt": -(ct / st) * (c @ Yt.T) - ((ls * (ls + 1.0)) * c) @ Y.T + ((ms**2.0 * c) @ Y.T) / st**2,
        "ftp": dphi @ Yt.T,
        "fpp": (-ms * dphi)[..., partner] @ Y.T,
    }


@pytest.mark.parametrize("lmax", [4, 8, 16, 37])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transforms_match_dense_basis(lmax, lead):
    grid = get_grid(lmax)
    th, ph = grid.mesh
    rng = np.random.default_rng(lmax + len(lead))
    c = rng.normal(size=lead + (grid.nbasis,))
    values = rng.normal(size=lead + (grid.nnodes,))
    Y, _ = real_sph_basis(lmax, th, ph)

    def rel(x, ref):
        assert x.shape == ref.shape
        return np.max(np.abs(x - ref)) / np.max(np.abs(ref))

    assert rel(grid.analyze(values), (values * grid.w) @ Y) <= 1e-13
    assert rel(grid.synthesize(c), c @ Y.T) <= 1e-13
    jet = grid.synth_jet(c)
    ref = _dense_jet(lmax, c, th, ph)
    assert list(jet) == list(ref)
    for key in ref:
        assert rel(jet[key], ref[key]) <= 1e-13, key


def test_constant_has_only_monopole():
    c = G8.analyze(np.ones(G8.nnodes))
    assert abs(c[0] - np.sqrt(4 * np.pi)) < 1e-13
    assert np.max(np.abs(c[1:])) < 1e-13


def test_coordinate_function_is_pure_dipole():
    om = G8.unit_vectors["o"]
    c = G8.analyze(om[:, 0])
    mask = np.ones(G8.nbasis, bool)
    for m in (-1, 0, 1):
        mask[coeff_index(1, m)] = False
    assert np.max(np.abs(c[mask])) < 1e-13
    assert abs(c[coeff_index(1, 1)] - np.sqrt(4 * np.pi / 3)) < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_round_trip_on_bandlimited_fields(seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=G8.nbasis)
    c2 = G8.analyze(G8.synthesize(c))
    assert np.max(np.abs(c2 - c)) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_parseval(seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=G8.nbasis)
    f = G8.synthesize(c)
    assert abs(G8.integrate(f * f) - c @ c) < 1e-11


def test_basis_theta_derivative_matches_finite_differences():
    th = np.array([0.4, 1.1, 2.3])
    ph = np.array([0.3, 2.0, 5.1])
    h = 1e-6
    Yp, _ = real_sph_basis(10, th + h, ph)
    Ym, _ = real_sph_basis(10, th - h, ph)
    _, Yt = real_sph_basis(10, th, ph)
    assert np.max(np.abs((Yp - Ym) / (2 * h) - Yt)) < 1e-8


def test_synth_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    c = rng.normal(size=G8.nbasis)
    th, ph = G8.mesh
    h = 1e-6
    jet = G8.synth_jet(c)
    for key, dth, dph in (("ft", h, 0.0), ("fp", 0.0, h)):
        Yp, _ = real_sph_basis(8, th + dth, ph + dph)
        Ym, _ = real_sph_basis(8, th - dth, ph - dph)
        fd = (Yp @ c - Ym @ c) / (2 * h)
        assert np.max(np.abs(fd - jet[key])) < 1e-7
    # second derivatives via nested differences of the analytic first ones
    _, Ytp = real_sph_basis(8, th, ph + h)
    _, Ytm = real_sph_basis(8, th, ph - h)
    fd_tp = (Ytp @ c - Ytm @ c) / (2 * h)
    assert np.max(np.abs(fd_tp - jet["ftp"])) < 1e-7


@pytest.mark.parametrize("grid,lmax", [(G8, 8), (G8, 5), (G16, 10)])
def test_basis_jet_matches_synth_jet(grid, lmax):
    # operator_matrix equals the product-rule projection of random fields
    # against the synth_jet of identity rows
    nb = n_coeffs(lmax)
    jet = grid.synth_jet(np.eye(nb, grid.nbasis))
    a = np.random.default_rng(lmax).normal(size=(6, grid.nnodes))
    out = sum(ak[:, None] * jet[key].T for ak, key in zip(a, ("f", "ft", "fp", "ftt", "ftp", "fpp")))
    ref = truncate_coeffs(grid.analyze(out.T), lmax).T
    mat = grid.operator_matrix(a, lmax)
    assert mat.shape == (nb, nb)
    assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cached_grid_is_read_only():
    grid = get_grid(8)
    tables = [getattr(grid, name) for name in ("theta", "phi", "w", "legendre", "trig", "spectral_index", "ls", "ms")]
    for table in tables + [*grid.mesh, *grid.unit_vectors.values()]:
        with pytest.raises(ValueError):
            table[0] = 0
    with pytest.raises(TypeError):
        grid.unit_vectors["o"] = np.zeros((grid.nnodes, 3))


def test_mesh_and_unit_vectors_are_cached_read_only():
    grid = get_grid(8)
    TH, PH = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    th, ph = grid.mesh
    assert np.array_equal(th, TH.ravel()) and np.array_equal(ph, PH.ravel())
    st_, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    zero = np.zeros_like(th)
    expected = {
        "o": np.stack([st_ * cp, st_ * sp, ct], axis=-1),
        "ot": np.stack([ct * cp, ct * sp, -st_], axis=-1),
        "op": np.stack([-st_ * sp, st_ * cp, zero], axis=-1),
        "ott": -np.stack([st_ * cp, st_ * sp, ct], axis=-1),
        "otp": np.stack([-ct * sp, ct * cp, zero], axis=-1),
        "opp": np.stack([-st_ * cp, -st_ * sp, zero], axis=-1),
    }
    uv = grid.unit_vectors
    assert uv is grid.unit_vectors and grid.mesh[0] is th
    assert list(uv) == list(expected)
    for key, val in expected.items():
        assert np.array_equal(uv[key], val)
        with pytest.raises(ValueError):
            uv[key][0, 0] = 1.0
    for a in (th, ph):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_operator_matrix_holds_no_full_width_basis(euclid):
    grid = get_grid(37)
    a = np.random.default_rng(2).normal(size=(6, grid.nnodes))
    grid.operator_matrix(a, 24)
    laplace_spectrum(surface_frames(euclid, GraphSurface.round([0, 0, 0], 5.0, 24)), k=4)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif hasattr(obj, "items"):
            for v in obj.values():
                yield from arrays(v)
        elif isinstance(obj, (tuple, list)):
            for v in obj:
                yield from arrays(v)

    sizes = [a.size for a in arrays(vars(grid))]
    assert sizes and max(sizes) < grid.nnodes * n_coeffs(24)


def test_pad_truncate_round_trip():
    rng = np.random.default_rng(7)
    c = rng.normal(size=n_coeffs(6))
    padded = pad_coeffs(c, 6, 10)
    assert padded.shape == (n_coeffs(10),)
    assert np.array_equal(truncate_coeffs(padded, 6), c)


def test_dealias_band_limit_covers_products():
    assert dealias_lmax(24) >= 36


def test_synthesis_reads_the_band_from_the_coefficients():
    grid = get_grid(13)
    c = np.random.default_rng(8).normal(size=(2, n_coeffs(8)))
    padded = pad_coeffs(c, 8, 13)
    assert np.array_equal(grid.synthesize(c), grid.synthesize(padded))
    jet, jet_padded = grid.synth_jet(c), grid.synth_jet(padded)
    assert list(jet) == list(jet_padded)
    for key in jet:
        assert np.array_equal(jet[key], jet_padded[key]), key


def test_errors():
    with pytest.raises(BandLimitTooSmall):
        build_grid(3)
    with pytest.raises(ShapeMismatch):
        G8.analyze(np.ones(5))
    for transform in (G8.synthesize, G8.synth_jet):
        with pytest.raises(ShapeMismatch, match="not a square"):
            transform(np.ones(7))
        with pytest.raises(ShapeMismatch, match="exceed the grid"):
            transform(np.ones(n_coeffs(9)))
    with pytest.raises(ShapeMismatch):
        synthesize_at(np.zeros(5), [1.0], [0.0])
    nan_nodes = np.ones(G8.nnodes)
    nan_nodes[3] = np.nan
    with pytest.raises(ShapeMismatch):
        G8.analyze(nan_nodes)
    with pytest.raises(ShapeMismatch):
        G8.integrate(nan_nodes)


def test_lm_arrays_layout():
    ls, ms = lm_arrays(3)
    assert ls[coeff_index(2, -1)] == 2
    assert ms[coeff_index(2, -1)] == -1
    assert len(ls) == n_coeffs(3)
