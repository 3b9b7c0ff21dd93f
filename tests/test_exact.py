import numpy as np
import pytest

from mildns.exact import (
    AliasingError,
    homogeneous_data,
    landau_eval,
    landau_residual,
    landau_shell_samples,
    rescale,
)
from mildns.fields import SpectralVectorField
from mildns.grid import make_grid
from mildns.norms import lp_norm


def test_landau_validation():
    with pytest.raises(ValueError):
        landau_eval(0.5, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        landau_eval(2.0, [[0.0, 0.0, 0.0]])


def test_landau_homogeneity():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, (40, 3))
    u1, p1 = landau_eval(2.0, x)
    u2, p2 = landau_eval(2.0, 3.0 * x)
    assert np.abs(3.0 * u2 - u1).max() < 1e-12 * np.abs(u1).max()
    assert np.abs(9.0 * p2 - p1).max() < 1e-12 * np.abs(p1).max()


def test_landau_axisymmetry():
    # rotating about the x1 axis rotates the velocity the same way
    theta = 0.7
    R = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(theta), -np.sin(theta)],
            [0.0, np.sin(theta), np.cos(theta)],
        ]
    )
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 2.0, (40, 3))
    u, p = landau_eval(-2.5, x)
    u_rot, p_rot = landau_eval(-2.5, x @ R.T)
    assert np.abs(u_rot - u @ R.T).max() < 1e-12 * np.abs(u).max()
    assert np.abs(p_rot - p).max() < 1e-12 * np.abs(p).max()


def test_landau_residual_small():
    rng = np.random.default_rng(2)
    pts = landau_shell_samples(1.5, 50, rng)
    res, div, rel = landau_residual(1.5, pts)
    assert res < 1e-7
    assert div < 1e-9
    assert rel.shape == (50,)


def test_landau_residual_rejects_origin_neighborhood():
    with pytest.raises(ValueError):
        landau_residual(2.0, np.array([[0.1, 0.0, 0.0]]))


def test_shell_samples_respect_constraints():
    rng = np.random.default_rng(3)
    c = -1.5
    pts = landau_shell_samples(c, 200, rng, r_min=0.5, r_max=4.0, margin=0.3)
    r = np.sqrt((pts**2).sum(axis=1))
    assert pts.shape == (200, 3)
    assert r.min() >= 0.5 and r.max() <= 4.0
    assert np.abs(c * r - pts[:, 0]).min() >= 0.3


def test_homogeneous_data_properties():
    g = make_grid(32, 40.0)
    f = homogeneous_data(g, 0.5, delta_cells=2.0)
    assert f.max_divergence_ratio() < 1e-12
    assert np.abs(f.coeffs[:, 0, 0, 0]).max() == 0.0  # mean-free
    phys = f.to_physical()
    # windowed to near zero at the box boundary (dealiasing ringing only)
    assert np.abs(phys[:, 0, :, :]).max() < 0.01 * np.abs(phys).max()


def test_homogeneous_data_matches_smoothed_profile():
    g = make_grid(64, 40.0)
    a = 1.0
    f = homogeneous_data(g, a, delta_cells=2.0)
    phys = f.to_physical()
    mag = np.sqrt((phys**2).sum(axis=0))
    c = g.n // 2
    delta = 2.0 * g.dx
    # inside the window the magnitude follows a r / (r^2 + delta^2)
    for cells in (6, 8, 12):
        r = cells * g.dx
        expect = a * r / (r**2 + delta**2)
        got = mag[c + cells, c, c]
        assert abs(got - expect) < 0.02 * expect


def test_homogeneous_data_validation():
    g = make_grid(16, 10.0)
    with pytest.raises(ValueError):
        homogeneous_data(g, 1.0, delta_cells=1.0)


def localized_band_limited_field(grid, width=0.58, max_mode=15):
    """Smooth field that is both spatially contained and band-limited.

    The Gaussian envelope width balances spatial decay at the half-box
    against spectral decay at the dilation-doubled band edge, so integer
    rescaling is alias-free to rounding.
    """
    X, Y, Z = grid.meshgrid()
    L = grid.length
    env = np.exp(
        -((X - L / 2) ** 2 + (Y - L / 2) ** 2 + (Z - L / 2) ** 2) / (2 * width**2)
    )
    samples = np.stack(
        [env, env * np.cos(2 * np.pi * X / L), env * np.sin(2 * np.pi * Y / L)]
    )
    f = SpectralVectorField.from_physical(grid, samples)
    idx = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    keep1 = np.abs(idx) <= max_mode
    keepr = np.arange(grid.n // 2 + 1) <= max_mode
    mask = keep1[:, None, None] & keep1[None, :, None] & keepr[None, None, :]
    return SpectralVectorField(grid, f.coeffs * mask)


def test_rescale_integer_is_exact_resampling():
    g = make_grid(64, 8.0)
    f = localized_band_limited_field(g)
    f2 = rescale(f, 2.0)
    a = f.to_physical()
    b = f2.to_physical()
    c = g.n // 2
    src = c + 2 * (np.arange(g.n) - c)
    valid = (src >= 0) & (src < g.n)
    expect = np.zeros_like(a)
    sv = src[valid]
    expect[np.ix_(range(3), valid, valid, valid)] = 2.0 * a[np.ix_(range(3), sv, sv, sv)]
    assert np.abs(b - expect).max() < 1e-10 * np.abs(a).max()


def test_rescale_norm_scaling():
    g = make_grid(64, 8.0)
    f = localized_band_limited_field(g)
    lam = 2.0
    for p in (2.0, 3.0):
        got = lp_norm(rescale(f, lam).to_physical(), p, g.cell_volume)
        expect = lam ** (1.0 - 3.0 / p) * lp_norm(f.to_physical(), p, g.cell_volume)
        assert abs(got - expect) < 1e-8 * expect


def test_rescale_rational_round_trip():
    g = make_grid(64, 8.0)
    f = localized_band_limited_field(g)
    back = rescale(rescale(f, 1.5), 2.0 / 3.0)
    err = np.abs(back.to_physical() - f.to_physical()).max()
    assert err < 1e-9 * np.abs(f.to_physical()).max()


def test_rescale_identity_and_validation():
    g = make_grid(16, 4.0)
    f = localized_band_limited_field(g, width=0.4, max_mode=4)
    same = rescale(f, 1.0)
    assert np.array_equal(same.coeffs, f.coeffs)
    with pytest.raises(ValueError):
        rescale(f, 0.0)
    with pytest.raises(ValueError):
        rescale(f, np.pi)


def test_rescale_alias_guard():
    g = make_grid(16, 4.0)
    rng = np.random.default_rng(5)
    f = SpectralVectorField.from_physical(
        g, rng.standard_normal((3,) + g.physical_shape)
    )
    with pytest.raises(AliasingError):
        rescale(f, 2.0)
