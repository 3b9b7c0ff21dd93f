import math

import numpy as np
import pytest

from mildns.fields import SpectralVectorField
from mildns.grid import make_grid
from mildns.kernels import (
    ContainmentError,
    SupportError,
    _gauss_legendre,
    compute_Cl,
    kernel_realspace,
    kernel_table,
    l1_semigroup_gap,
    mollifier_symbol,
)


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


@pytest.mark.parametrize("ell", [1.5, 3.0, 4.0])
def test_table_matches_adaptive_quadrature(ell):
    radii = np.array([0.0, 0.3, 1.0, 2.7, 6.0])
    table = kernel_table(ell, radii)
    for r, v in zip(radii, table):
        assert abs(v - kernel_realspace(ell, r)) < 1e-9


def test_hyper_kernel_changes_sign():
    # for ell > 2 the kernel is not a positive density
    radii = np.linspace(0.0, 12.0, 1024)
    values = kernel_table(4.0, radii)
    assert values.min() < -1e-5
    assert values.max() > 0
    assert kernel_table(2.0, radii).min() > 0


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
    symbol = np.exp(-g.k_sq**2)  # exp(-t |xi|^4) at t = 1
    for _ in range(3):
        f = rng.standard_normal(g.physical_shape)
        sf = g.backward(g.forward(f) * symbol)
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
    vals = mollifier_symbol(g, 4 * g.dx)
    assert abs(vals[0, 0, 0] - 1.0) < 1e-12  # unit mass
    assert np.abs(vals).max() <= 1.0 + 1e-9
    assert np.isrealobj(vals)


def test_mollifier_width_ordering():
    # wider mollifier damps a fixed high mode more
    g = make_grid(32, 8.0)
    narrow = mollifier_symbol(g, 2 * g.dx)
    wide = mollifier_symbol(g, 6 * g.dx)
    mid = (8, 0, 0)
    assert wide[mid] < narrow[mid]


def test_mollifier_kappa_zero_is_identity():
    g = make_grid(16, 4.0)
    vals = mollifier_symbol(g, 0.0)
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
    smoothed = f.coeffs * mollifier_symbol(g, 4 * g.dx)
    hi = g.k_sq > (0.5 * np.abs(g.k_axis).max()) ** 2
    before = np.abs(f.coeffs[:, hi]).sum()
    after = np.abs(smoothed[:, hi]).sum()
    assert after < 0.5 * before
