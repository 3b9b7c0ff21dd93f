import math

import numpy as np
import pytest

from mildns.fields import SpectralVectorField
from mildns.grid import make_grid
from mildns.kernels import (
    ContainmentError,
    SupportError,
    _gauss_legendre,
    combined_multiplier,
    compute_Cl,
    heat_multiplier,
    hyper_multiplier,
    kernel_realspace,
    kernel_realspace_t,
    kernel_table,
    l1_semigroup_gap,
    make_kernel_table,
    mollifier_symbol,
)


def test_multiplier_validation():
    g = make_grid(8, 1.0)
    with pytest.raises(ValueError):
        heat_multiplier(g, -0.1)
    with pytest.raises(ValueError):
        hyper_multiplier(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        combined_multiplier(g, 1.0, -3.0)


def test_semigroup_law():
    g = make_grid(16, 5.0)
    a = heat_multiplier(g, 0.3).values * heat_multiplier(g, 0.7).values
    b = heat_multiplier(g, 1.0).values
    assert np.abs(a - b).max() < 1e-14
    ah = hyper_multiplier(g, 0.3, 4.0).values * hyper_multiplier(g, 0.7, 4.0).values
    bh = hyper_multiplier(g, 1.0, 4.0).values
    assert np.abs(ah - bh).max() < 1e-14


def test_combined_is_product():
    g = make_grid(16, 5.0)
    prod = heat_multiplier(g, 0.8).values * hyper_multiplier(g, 0.8, 3.0).values
    comb = combined_multiplier(g, 0.8, 3.0).values
    assert np.abs(prod - comb).max() < 1e-15


def test_identity_at_time_zero():
    g = make_grid(8, 1.0)
    assert np.all(heat_multiplier(g, 0.0).values == 1.0)
    assert np.all(combined_multiplier(g, 0.0, 4.0).values == 1.0)


def test_kernel_ell2_is_gaussian():
    # p_2(r, 1) = (4 pi)^(-3/2) exp(-r^2/4)
    for r in (0.0, 0.5, 1.0, 2.0, 4.0):
        exact = (4.0 * math.pi) ** -1.5 * math.exp(-(r**2) / 4.0)
        assert abs(kernel_realspace(2.0, r) - exact) < 1e-10


def test_kernel_ell1_is_poisson():
    # p_1(r, 1) = (1/pi^2) (1 + r^2)^(-2)
    for r in (0.0, 0.5, 1.0, 3.0):
        exact = 1.0 / (math.pi**2 * (1.0 + r**2) ** 2)
        assert abs(kernel_realspace(1.0, r) - exact) < 1e-9


def test_kernel_self_similar_scaling():
    for ell, t in ((2.0, 4.0), (4.0, 3.0)):
        r = 1.3
        direct = kernel_realspace_t(ell, r, t)
        rescaled = t ** (-3.0 / ell) * kernel_realspace(ell, r * t ** (-1.0 / ell))
        assert abs(direct - rescaled) < 1e-12
    with pytest.raises(ValueError):
        kernel_realspace_t(4.0, 1.0, 0.0)


@pytest.mark.parametrize("ell", [1.5, 3.0, 4.0])
def test_table_matches_adaptive_quadrature(ell):
    radii = np.array([0.0, 0.3, 1.0, 2.7, 6.0])
    table = kernel_table(ell, radii)
    for r, v in zip(radii, table):
        assert abs(v - kernel_realspace(ell, r)) < 1e-9


def test_hyper_kernel_changes_sign():
    # for ell > 2 the kernel is not a positive density
    tab = make_kernel_table(4.0, 12.0, 1024)
    assert tab.values.min() < -1e-5
    assert tab.values.max() > 0
    tab2 = make_kernel_table(2.0, 12.0, 1024)
    assert tab2.values.min() > 0


def test_cl_unit_mass_regime():
    for ell in (1.0, 1.5, 2.0):
        res = compute_Cl(ell)
        assert abs(res.value - 1.0) <= 1e-4
        assert abs(res.signed_mass - 1.0) <= 1e-4


def test_cl_exceeds_one_for_hyper():
    res = compute_Cl(4.0)
    assert res.value > 1.001
    # total integral stays 1 (the symbol is 1 at xi = 0)
    assert abs(res.signed_mass - 1.0) <= 1e-4
    res3 = compute_Cl(3.0)
    assert res3.value > 1.001
    assert abs(res3.signed_mass - 1.0) <= 1e-4


def test_cl_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        compute_Cl(0.0)


def test_hyper_semigroup_l1_amplification_bounded():
    # || S_l(1) f ||_1 <= C_l || f ||_1 on the grid, with discretization slack
    g = make_grid(96, 32.0)
    cl = compute_Cl(4.0).value
    rng = np.random.default_rng(3)
    mult = hyper_multiplier(g, 1.0, 4.0)
    for _ in range(3):
        f = rng.standard_normal(g.physical_shape)
        sf = g.backward(mult.apply_scalar(g.forward(f)))
        ratio = np.abs(sf).sum() / np.abs(f).sum()
        assert ratio <= cl + 0.05


def test_gap_scale_invariant_at_ell2():
    g = make_grid(128, 32.0)
    gaps = [l1_semigroup_gap(2.0, t, g) for t in (1.0, 2.0, 4.0)]
    spread = (max(gaps) - min(gaps)) / max(gaps)
    assert spread < 0.01


def test_gap_obeys_the_stated_rate_as_a_bound():
    # the claimed envelope C t^-(1/2 - 1/l) dominates the measured gap;
    # the measured decay is in fact faster (see the acceptance suite)
    g = make_grid(128, 32.0)
    for ell in (3.0, 4.0):
        ts = np.array([1.0, 2.0, 4.0])
        gaps = np.array([l1_semigroup_gap(ell, t, g) for t in ts])
        envelope = gaps[0] * (ts / ts[0]) ** -(0.5 - 1.0 / ell)
        assert np.all(gaps <= envelope * 1.05)
        assert gaps[-1] < gaps[0]


def test_gap_guards():
    g = make_grid(16, 8.0)
    with pytest.raises(ContainmentError):
        l1_semigroup_gap(4.0, 0.01, g)  # under-resolved
    with pytest.raises(ContainmentError):
        l1_semigroup_gap(4.0, 100.0, g)  # not contained
    with pytest.raises(ValueError):
        l1_semigroup_gap(4.0, 0.0, g)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 400])
def test_gauss_legendre_rule(n):
    x, w = _gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(x) > 0) and np.abs(x - xr).max() < 1e-14
    # leggauss's own weights are off by up to ~3e-12 of the largest at n = 400
    assert np.abs(w - wr).max() < 1e-11 * wr.max()
    # exact for every monomial of degree below 2n
    for d in range(0, 2 * n, max(1, n // 8)):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(np.dot(w, x**d) - exact) < 1e-14


def test_mollifier_symbol_properties():
    g = make_grid(32, 8.0)
    spec = mollifier_symbol(g, 4 * g.dx)
    vals = spec.values
    assert abs(vals[0, 0, 0] - 1.0) < 1e-12  # unit mass
    assert np.abs(vals).max() <= 1.0 + 1e-9
    assert np.isrealobj(vals)


def test_mollifier_width_ordering():
    # wider mollifier damps a fixed high mode more
    g = make_grid(32, 8.0)
    narrow = mollifier_symbol(g, 2 * g.dx).values
    wide = mollifier_symbol(g, 6 * g.dx).values
    mid = (8, 0, 0)
    assert wide[mid] < narrow[mid]


def test_mollifier_kappa_zero_is_identity():
    g = make_grid(16, 4.0)
    vals = mollifier_symbol(g, 0.0).values
    assert np.all(vals == 1.0)


def test_mollifier_support_guard():
    g = make_grid(16, 4.0)
    with pytest.raises(SupportError):
        mollifier_symbol(g, 2.5)
    with pytest.raises(ValueError):
        mollifier_symbol(g, -1.0)


def test_mollifier_smooths_a_field():
    g = make_grid(32, 8.0)
    rng = np.random.default_rng(4)
    f = SpectralVectorField.from_physical(
        g, rng.standard_normal((3,) + g.physical_shape)
    )
    smoothed = mollifier_symbol(g, 4 * g.dx).multiplier().apply(f)
    hi = g.k_sq > (0.5 * np.abs(g.k_axis).max()) ** 2
    before = np.abs(f.coeffs[:, hi]).sum()
    after = np.abs(smoothed.coeffs[:, hi]).sum()
    assert after < 0.5 * before
