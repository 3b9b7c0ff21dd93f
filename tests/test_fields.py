import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildns.fields import (
    SpectralVectorField,
    dealias,
    dealias_mask,
    divergence,
    gradient,
    leray_project,
    nonlinear_term,
    mollified_nonlinear_term,
)
from mildns import grid
from mildns.grid import make_grid
from mildns.kernels import mollifier_symbol
from mildns.solver import ModelSpec


def l2_inner(f, h):
    """L^2 inner product sum_i <f_i, h_i>, weighted as in ``Grid3.spectral_energy``."""
    g = f.grid
    prod = (f.coeffs * np.conj(h.coeffs)).real * g.hermitian_weight[..., : f.coeffs.shape[-1]]
    return float(prod.sum()) * g.cell_volume / g.n**3


def random_field(grid, seed, solenoidal=False):
    rng = np.random.default_rng(seed)
    f = SpectralVectorField.from_physical(
        grid, rng.standard_normal((3,) + grid.physical_shape)
    )
    if solenoidal:
        f = leray_project(dealias(f))
        f.coeffs[:, 0, 0, 0] = 0.0
    return f


def test_projector_idempotent():
    g = make_grid(16, 2.0)
    f = random_field(g, 0)
    once = leray_project(f)
    twice = leray_project(once)
    scale = np.abs(once.coeffs).max()
    assert np.abs(twice.coeffs - once.coeffs).max() < 1e-13 * scale


def test_projected_field_is_divergence_free():
    g = make_grid(16, 5.0)
    f = leray_project(random_field(g, 1))
    assert f.max_divergence_ratio() < 1e-12
    d = divergence(f)
    assert np.abs(d).max() < 1e-10 * np.abs(f.coeffs).max()


def test_projector_preserves_gradients_nothing():
    # P annihilates pure gradients
    g = make_grid(16, 2 * np.pi)
    rng = np.random.default_rng(2)
    phi = g.forward(rng.standard_normal(g.physical_shape))
    grad = SpectralVectorField(g, np.stack([1j * g.kx * phi, 1j * g.ky * phi, 1j * g.kz * phi]))
    proj = leray_project(grad)
    assert np.abs(proj.coeffs).max() < 1e-12 * np.abs(grad.coeffs).max()


def test_divergence_of_gradient_is_laplacian():
    g = make_grid(16, 3.0)
    rng = np.random.default_rng(3)
    phi = g.forward(rng.standard_normal(g.physical_shape))
    lap = divergence(gradient(g, phi))
    assert np.allclose(lap, -g.k_sq * phi)


def test_dealias_mask_symmetric():
    # at n = 12 the cutoff (2/3) xi_max = 4 (2 pi / L) is itself a mode, and
    # the rule drops it: 4 + 4 aliases onto -4
    g = make_grid(12, 1.0)
    mask = dealias_mask(g)
    cutoff = (2.0 / 3.0) * np.abs(g.k_axis).max() * (1 - 1e-12)
    keep = (
        (np.abs(g.kx) < cutoff)
        & (np.abs(g.ky) < cutoff)
        & (np.abs(g.kz) < cutoff)
    )
    assert np.array_equal(mask, keep)
    assert np.count_nonzero(mask[:, 0, 0]) == 7


def test_round_trip_physical():
    g = make_grid(16, 2.0)
    f = random_field(g, 4)
    again = SpectralVectorField.from_physical(g, f.to_physical())
    assert np.abs(again.coeffs - f.coeffs).max() < 1e-10


def spectral_convolution(grid, a_phys, b_phys):
    """Direct cyclic convolution of full spectra: no FFT product trick."""
    n = grid.n
    A = np.fft.fftn(a_phys) / n**3
    B = np.fft.fftn(b_phys) / n**3
    C = np.zeros_like(A)
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                if A[ix, iy, iz] == 0:
                    continue
                C += A[ix, iy, iz] * np.roll(
                    np.roll(np.roll(B, ix, 0), iy, 1), iz, 2
                )
    return C


def test_nonlinear_term_matches_convolution_oracle():
    g = make_grid(8, 2 * np.pi)
    u = random_field(g, 6, solenoidal=True)
    v = random_field(g, 7, solenoidal=True)
    got = nonlinear_term(u, v)

    n = g.n
    mask = dealias_mask(g)
    half = slice(0, n // 2 + 1)
    up, vp = u.to_physical(), v.to_physical()
    tensor = np.empty((3, 3) + g.spectral_shape, dtype=complex)
    for i in range(3):
        for k in range(3):
            tensor[i, k] = spectral_convolution(g, up[i], vp[k])[:, :, half] * n**3
    kv = (g.kx, g.ky, g.kz)
    div = np.stack(
        [sum(1j * kv[k] * tensor[i, k] for k in range(3)) for i in range(3)]
    )
    expected = leray_project(dealias(SpectralVectorField(g, div))).coeffs
    scale = max(np.abs(expected).max(), 1.0)
    assert np.abs(got.coeffs - expected).max() < 1e-10 * scale


def _nonlinear_reference(u, v):
    """Nine separate product transforms, the full-spectrum divergence, dealias, Leray."""
    g = u.grid
    up, vp = u.to_physical(), v.to_physical()
    kv = (g.kx, g.ky, g.kz)
    div = np.stack(
        [1j * sum(kv[k] * g.forward(up[i] * vp[k]) for k in range(3)) for i in range(3)]
    )
    return leray_project(dealias(SpectralVectorField(g, div))).coeffs


@pytest.mark.parametrize("n", [16, 18])
def test_nonlinear_term_equals_full_spectrum_reference(n):
    g = make_grid(n, 5.0)
    u = random_field(g, 30, solenoidal=True)
    v = random_field(g, 31, solenoidal=True)
    assert np.array_equal(nonlinear_term(u, v).coeffs, _nonlinear_reference(u, v))
    # the symmetric path (u passed twice, one object) gives the values of the
    # general path exactly; two views of one array and a copy take the
    # general path and must match ref bit for bit too
    ref = _nonlinear_reference(u, u.copy())
    traj = np.stack([u.coeffs, v.coeffs])
    views = (SpectralVectorField(g, traj[0]), SpectralVectorField(g, traj[0]))
    for a, b in ((u, u), views, (u, u.copy())):
        assert np.array_equal(nonlinear_term(a, b).coeffs, ref)
    out = nonlinear_term(u, u).coeffs
    assert not out[..., ~dealias_mask(g)[0, 0]].any()  # z-frequencies past the 2/3 cutoff


def test_nonlinear_term_bilinear():
    g = make_grid(16, 2.0)
    u = random_field(g, 8, solenoidal=True)
    v = random_field(g, 9, solenoidal=True)
    w = random_field(g, 10, solenoidal=True)
    lhs = nonlinear_term(
        SpectralVectorField(g, 2.0 * u.coeffs + w.coeffs, is_solenoidal=True), v
    )
    rhs = 2.0 * nonlinear_term(u, v).coeffs + nonlinear_term(w, v).coeffs
    assert np.abs(lhs.coeffs - rhs).max() < 1e-10 * np.abs(rhs).max()


def test_nonlinear_term_orthogonality():
    # <P div(u (x) u), u> = 0 for solenoidal dealiased u
    g = make_grid(16, 2 * np.pi)
    u = random_field(g, 11, solenoidal=True)
    b = nonlinear_term(u, u)
    inner = l2_inner(b, u)
    assert abs(inner) < 1e-10 * u.l2_norm() ** 2


def test_mollified_nonlinear_reduces_to_plain():
    g = make_grid(16, 4.0)
    u = random_field(g, 12, solenoidal=True)
    a = mollified_nonlinear_term(u, u, np.ones(g.spectral_shape))
    b = nonlinear_term(u, u)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_mollified_nonlinear_smooths_first_argument():
    g = make_grid(16, 4.0)
    u = random_field(g, 13, solenoidal=True)
    symbol = mollifier_symbol(g, 2 * g.dx)
    a = mollified_nonlinear_term(u, u, symbol)
    b = nonlinear_term(SpectralVectorField(g, u.coeffs * symbol), u)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * max(np.abs(b.coeffs).max(), 1.0)


def test_l2_norm_matches_physical():
    g = make_grid(16, 3.0)
    f = random_field(g, 16)
    phys = f.to_physical()
    direct = np.sqrt((phys**2).sum() * g.cell_volume)
    assert abs(f.l2_norm() - direct) < 1e-10 * direct


# ---------------------------------------------------------------------------
# Properties of the operators on band blocks


def band_field(grid, seed):
    """Random real, mean-free, solenoidal field stored as a band block."""
    band = grid.band
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3,) + band.shape) + 1j * rng.standard_normal((3,) + band.shape)
    c = band.gather(grid.forward(grid.backward(c)))  # the block of a real field
    f = leray_project(SpectralVectorField(grid, c))
    f.coeffs[:, 0, 0, 0] = 0.0
    return f


band_grids = st.builds(
    make_grid, st.sampled_from([8, 12, 16, 18]), st.floats(0.5, 50.0)
)
seeds = st.integers(0, 2**32 - 1)
band_settings = settings(max_examples=25, deadline=None)


@band_settings
@given(band_grids, seeds)
def test_band_leray_is_an_idempotent_projection_onto_solenoidal_fields(g, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) + g.band.shape
    f = SpectralVectorField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    once = leray_project(f)
    twice = leray_project(once)
    assert once.coeffs.shape == shape
    assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-13 * np.abs(once.coeffs).max()
    assert once.max_divergence_ratio() <= 1e-12


@band_settings
@given(band_grids, seeds, st.sampled_from(["ns", "hyper"]))
def test_band_nonlinear_term_conserves_energy(g, seed, kind):
    # <N(u, u), u> = 0: transport by a solenoidal field moves no energy
    model = ModelSpec(kind, g, ell=4.0)
    u = band_field(g, seed)
    n = model.nonlinear(u, u)
    assert n.coeffs.shape == u.coeffs.shape
    assert abs(l2_inner(n, u)) <= 1e-12 * n.l2_norm() * u.l2_norm()


@band_settings
@given(band_grids, seeds, st.floats(-3.0, 3.0))
def test_band_nonlinear_term_is_bilinear(g, seed, a):
    u, v, w = (band_field(g, seed + i) for i in range(3))

    def field(c):
        return SpectralVectorField(g, c)

    for lhs, rhs in (
        (nonlinear_term(field(a * u.coeffs + w.coeffs), v),
         a * nonlinear_term(u, v).coeffs + nonlinear_term(w, v).coeffs),
        (nonlinear_term(u, field(a * v.coeffs + w.coeffs)),
         a * nonlinear_term(u, v).coeffs + nonlinear_term(u, w).coeffs),
    ):
        scale = max(np.abs(rhs).max(), np.abs(lhs.coeffs).max())
        assert np.abs(lhs.coeffs - rhs).max() <= 1e-12 * scale


def test_band_nonlinear_term_is_the_block_of_the_half_spectrum_one():
    g = make_grid(16, 5.0)
    u, v = band_field(g, 40), band_field(g, 41)
    full_u, full_v = (SpectralVectorField(g, g.band.pad(f.coeffs)) for f in (u, v))
    assert np.array_equal(g.band.pad(nonlinear_term(u, v).coeffs),
                          nonlinear_term(full_u, full_v).coeffs)
    assert np.array_equal(g.band.pad(nonlinear_term(u, u).coeffs),
                          nonlinear_term(full_u, full_u).coeffs)


@pytest.mark.parametrize("layout", ["band", "half"])
def test_nonlinear_term_has_the_same_bits_serial_and_pooled(monkeypatch, layout):
    # --threads 1 runs every transform in the calling thread, 2 shares them with the pool
    g = make_grid(16, 5.0)
    u, v = band_field(g, 50), band_field(g, 51)
    if layout == "half":
        u, v = (SpectralVectorField(g, g.band.pad(f.coeffs)) for f in (u, v))
    results = {}
    for threads in (1, 2):
        monkeypatch.setattr(grid, "_FFT_WORKERS", threads)
        results[threads] = [nonlinear_term(u, u).coeffs, nonlinear_term(u, v).coeffs]
    for serial, pooled in zip(results[1], results[2]):
        assert np.array_equal(serial.view(np.uint8), pooled.view(np.uint8))


def test_a_failed_pooled_evaluation_raises_its_error_and_the_next_one_works(monkeypatch):
    monkeypatch.setattr(grid, "_FFT_WORKERS", 2)
    g = make_grid(16, 5.0)
    u = band_field(g, 52)
    wrong = SpectralVectorField(g, np.ones((3, 5, 5, 5), dtype=complex))
    with pytest.raises(ValueError, match="does not match grid"):
        nonlinear_term(wrong, u)
    monkeypatch.setattr(grid, "_FFT_WORKERS", 1)
    serial = nonlinear_term(u, u).coeffs
    monkeypatch.setattr(grid, "_FFT_WORKERS", 2)
    assert np.array_equal(nonlinear_term(u, u).coeffs, serial)
