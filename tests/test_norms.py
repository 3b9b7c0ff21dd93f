import math

import numpy as np
import pytest

from mildns.fields import SpectralVectorField
from mildns.grid import make_grid
from mildns.norms import (
    DecayCurve,
    decay_exponent,
    decay_functional,
    fit_slope,
    lp_norm,
    weak_lp_norm,
    write_curve_csv,
)


N = 12
VOL = (1.0 / N) ** 3


def test_lp_norm_matches_numpy():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((N, N, N))
    for p in (1.0, 2.0, 3.0, 6.0):
        direct = (np.abs(f) ** p).sum() * VOL
        assert abs(lp_norm(f, p, VOL) - direct ** (1 / p)) < 1e-12
    assert lp_norm(f, math.inf, VOL) == np.abs(f).max()
    with pytest.raises(ValueError):
        lp_norm(f, 0.5, VOL)


def test_weak_norm_validation():
    f = np.ones((N, N, N))
    with pytest.raises(ValueError):
        weak_lp_norm(f, 1.0, VOL)
    with pytest.raises(ValueError):
        weak_lp_norm(f, math.inf, VOL)


def test_weak_norm_of_indicator():
    # for f = 1_A the set-average sup is |A|^(1/p), attained at E = A
    f = np.zeros((N, N, N))
    f.ravel()[:37] = 1.0
    measure = 37 * VOL
    for p in (1.5, 3.0, 4.0):
        assert abs(weak_lp_norm(f, p, VOL) - measure ** (1.0 / p)) < 1e-12


def test_weak_norm_never_exceeds_strong():
    rng = np.random.default_rng(1)
    for i in range(25):
        f = rng.standard_normal((N, N, N)) * np.exp(rng.standard_normal((N, N, N)))
        for p in (1.5, 3.0, 6.0):
            assert weak_lp_norm(f, p, VOL) <= lp_norm(f, p, VOL) * (1 + 1e-12)


def test_weak_norm_dominates_random_sets():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((N, N, N))
    p = 3.0
    q = p / (p - 1)
    norm = weak_lp_norm(f, p, VOL)
    flat = np.abs(f).ravel()
    for _ in range(2000):
        size = int(rng.integers(1, flat.size + 1))
        idx = rng.choice(flat.size, size=size, replace=False)
        avg = flat[idx].sum() * VOL / (size * VOL) ** (1.0 / q)
        assert avg <= norm * (1 + 1e-12)


def test_weak_norm_scaling():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((N, N, N))
    assert abs(weak_lp_norm(5.0 * f, 3.0, VOL) - 5.0 * weak_lp_norm(f, 3.0, VOL)) < 1e-12


def test_weak_holder_unit_constant_on_random_fields():
    # set-average weak Holder at 1/r = 1/p + 1/q holds with constant 1
    rng = np.random.default_rng(4)
    for (p, q, r) in ((3.0, 3.0, 1.5), (6.0, 2.0, 1.5)):
        for _ in range(25):
            f = rng.standard_normal((N, N, N))
            g = rng.standard_normal((N, N, N)) * np.exp(rng.standard_normal((N, N, N)))
            num = weak_lp_norm(f * g, r, VOL)
            den = weak_lp_norm(f, p, VOL) * weak_lp_norm(g, q, VOL)
            assert num <= den * (1 + 1e-9)


def test_weak_holder_constant_one_is_not_universal():
    # a deliberately arranged pure power-law pair pushes the set-average
    # ratio above 1, so the unit constant is a typical-field property,
    # not a pointwise theorem for this discrete functional
    size = N**3
    s = np.arange(1, size + 1, dtype=float)
    f = s ** (-1.0 / 3.0)
    g = f.copy()
    num = weak_lp_norm((f * g).reshape(N, N, N), 1.5, VOL)
    den = weak_lp_norm(f.reshape(N, N, N), 3.0, VOL) ** 2
    assert num > den * 1.05


def test_weak_young_convolution_bound():
    # 1 + 1/r = 1/p + 1/q at (p, q, r) = (3/2, 3/2, 3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = np.abs(rng.standard_normal((N, N, N))) ** (1 + 2 * rng.random())
        g = np.abs(rng.standard_normal((N, N, N))) ** (1 + 2 * rng.random())
        conv = np.real(np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(g))) * VOL
        num = weak_lp_norm(conv, 3.0, VOL)
        den = lp_norm(f, 1.5, VOL) * weak_lp_norm(g, 1.5, VOL)
        assert num <= den * 1.01


def test_interpolation_between_weak_norms():
    # for 3 < q < p, splitting at the optimal level Lambda:
    # ||f||_q^q <= q [ N3^3 L^(q-3)/(q-3) + Np^p L^(q-p)/(p-q) ]
    rng = np.random.default_rng(6)
    p, q = 6.0, 4.0
    for _ in range(20):
        f = rng.standard_normal((N, N, N)) * np.exp(2 * rng.standard_normal((N, N, N)))
        n3 = weak_lp_norm(f, 3.0, VOL)
        np_ = weak_lp_norm(f, p, VOL)
        lam = (np_**p / n3**3) ** (1.0 / (p - 3.0))
        bound = q * (
            n3**3 * lam ** (q - 3) / (q - 3) + np_**p * lam ** (q - p) / (p - q)
        )
        assert lp_norm(f, q, VOL) ** q <= bound * (1 + 1e-9)


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DecayCurve(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    c = DecayCurve(np.array([2.0, 1.0]), np.array([4.0, 5.0]))
    assert list(c.times) == [1.0, 2.0]  # sorted on construction
    assert list(c.values) == [5.0, 4.0]


def test_fit_slope_recovers_power_law():
    ts = np.geomspace(1.0, 100.0, 20)
    curve = DecayCurve(ts, 3.7 * ts**-1.25)
    sf = fit_slope(curve, (1.0, 100.0))
    assert abs(sf.slope + 1.25) < 1e-10
    assert sf.stderr < 1e-10
    assert curve.fitted_slope == sf.slope
    with pytest.raises(ValueError):
        fit_slope(curve, (1.0, 1.5))  # too few points


def test_decay_exponent():
    assert decay_exponent(3.0) == 0.0
    assert abs(decay_exponent(4.0) - 0.125) < 1e-15
    assert abs(decay_exponent(6.0) - 0.25) < 1e-15


def test_decay_functional_weights_heat_flow():
    # pure heat flow of a single mode: value = t^((1-3/p)/2) e^(-t k^2) ||u0||_p
    g = make_grid(16, 2 * np.pi)
    X, _, _ = g.meshgrid()
    u0 = SpectralVectorField.from_physical(
        g, np.stack([np.cos(2 * X), np.zeros_like(X), np.zeros_like(X)])
    )
    times = np.array([0.0, 0.1, 0.2, 0.4])
    fields = [
        SpectralVectorField(g, np.exp(-t * g.k_sq) * u0.coeffs) for t in times
    ]
    p = 4.0
    curve = decay_functional(times, fields, p)
    base = lp_norm(u0.to_physical(), p, g.cell_volume)
    expect = times[1:] ** decay_exponent(p) * np.exp(-4.0 * times[1:]) * base
    assert curve.times.size == 3  # t = 0 dropped
    assert np.abs(curve.values - expect).max() < 1e-10
    assert curve.kind == "lp"


def test_curve_csv_round_trip(tmp_path):
    ts = np.geomspace(1, 10, 5)
    curve = DecayCurve(ts, ts**-0.5, "demo", 4.0, "lp")
    fit_slope(curve, (1.0, 10.0))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve, ["note"])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value,functional,p,kind"
    assert len([l for l in lines if not l.startswith("#")]) == 6
    data = [l.split(",") for l in lines[1:6]]
    assert np.allclose([float(d[0]) for d in data], ts)
    assert any(l.startswith("# slope=") for l in lines)
    assert lines[-1] == "# note"
