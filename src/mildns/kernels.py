"""Real-space dissipation kernels, the L^1 semigroup gap and the mollifier.

The kernel of exp(-t (-Laplace)^{l/2}) in 3D reduces to a radial
oscillatory integral

    p_l(r, 1) = (1 / (2 pi^2 r)) * int_0^inf exp(-rho^l) rho sin(rho r) drho

with the self-similar form p_l(x, t) = t^(-3/l) p_l(x t^(-1/l), 1).
This module evaluates it by quadrature, computes the L^1 mass C_l,
measures the L^1 gap between the combined and plain heat semigroups,
and builds the compactly supported mollifier symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .grid import Grid3


class QuadratureError(RuntimeError):
    """Raised when a quadrature result cannot be certified."""


class ContainmentError(ValueError):
    """Raised when a kernel is unresolved or does not fit the box."""


# ---------------------------------------------------------------------------
# Real-space kernel p_l(r, 1) and its L^1 mass


def _rho_cutoff(ell: float) -> float:
    # exp(-rho^l) below 1e-16 past this point
    return (16.0 * math.log(10.0)) ** (1.0 / ell)


def kernel_realspace(ell: float, r: float) -> float:
    """p_l(|x|=r, t=1) by adaptive quadrature with oscillation handling."""
    if ell <= 0:
        raise ValueError(f"dissipation order must be positive, got ell={ell}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got r={r}")
    rho_star = _rho_cutoff(ell)
    if r == 0.0:
        # non-oscillatory limit: (1/(2 pi^2)) Gamma(3/l)/l
        return gamma_fn(3.0 / ell) / (ell * 2.0 * math.pi**2)
    val, err = integrate.quad(
        lambda rho: math.exp(-(rho**ell)) * rho,
        0.0,
        rho_star,
        weight="sin",
        wvar=r,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    if err > 1e-9 + 1e-6 * abs(val):
        raise QuadratureError(
            f"oscillatory quadrature did not converge at ell={ell}, r={r}: "
            f"error estimate {err:.3e}"
        )
    return val / (2.0 * math.pi**2 * r)


@lru_cache(maxsize=32)
def _panel_rule(ell: float, r_max: float):
    """Composite Gauss-Legendre nodes on [0, rho*], sized for sin(rho r_max)."""
    rho_star = _rho_cutoff(ell)
    half_period = math.pi / max(r_max, 1.0)
    n_panels = max(64, int(math.ceil(rho_star / min(half_period, 0.5))))
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, rho_star, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x16[None, :]).ravel()
    weights = (half[:, None] * w16[None, :]).ravel()
    return nodes, weights * np.exp(-(nodes**ell)) * nodes


def kernel_table(ell: float, radii: np.ndarray) -> np.ndarray:
    """Vectorized p_l(r, 1) over an array of radii (panel-aligned GL rule)."""
    radii = np.asarray(radii, dtype=float)
    nodes, fw = _panel_rule(float(ell), float(radii.max()))
    out = np.empty_like(radii)
    zero = radii == 0.0
    out[zero] = gamma_fn(3.0 / ell) / (ell * 2.0 * math.pi**2)
    rr = radii[~zero]
    # sum_j fw_j sin(rho_j r), blocked to bound the temporary size
    vals = np.empty_like(rr)
    block = 256
    for i in range(0, rr.size, block):
        rb = rr[i : i + block]
        vals[i : i + block] = np.sin(np.outer(rb, nodes)) @ fw
    out[~zero] = vals / (2.0 * math.pi**2 * rr)
    return out


def _tail_coefficient(ell: float) -> float:
    """Leading large-r coefficient K in p_l(r,1) ~ K r^(-3-l)."""
    return gamma_fn(ell + 2.0) * abs(math.sin(math.pi * ell / 2.0)) / (2.0 * math.pi**2)


def _algebraic_tail(ell: float, r_cut: float) -> float:
    """4 pi int_{r_cut}^inf K r^(-3-l) r^2 dr, the asymptotic tail mass."""
    return 4.0 * math.pi * _tail_coefficient(ell) / (ell * r_cut**ell)


@dataclass
class ClResult:
    """L^1 mass of p_l(., 1) with certification data."""

    ell: float
    value: float
    error_estimate: float
    tail_bound: float
    signed_mass: float


def _cl_single(ell: float, r_cut: float, n_points: int):
    radii = np.linspace(0.0, r_cut, n_points)
    p = kernel_table(ell, radii)
    integrand_abs = 4.0 * math.pi * np.abs(p) * radii**2
    integrand_signed = 4.0 * math.pi * p * radii**2
    head_abs = integrate.simpson(integrand_abs, x=radii)
    head_signed = integrate.simpson(integrand_signed, x=radii)
    tail = _algebraic_tail(ell, r_cut)
    # the tail has a single sign at leading asymptotic order
    return head_abs + tail, head_signed + math.copysign(tail, _tail_sign(ell)), tail


def _tail_sign(ell: float) -> float:
    s = math.sin(math.pi * ell / 2.0)
    return 1.0 if s >= 0 else -1.0


def compute_Cl(ell: float, r_cut: float | None = None, n_points: int = 4096) -> ClResult:
    """C_l = || p_l(., 1) ||_1 with a two-resolution / two-cutoff certificate."""
    if ell <= 0:
        raise ValueError(f"dissipation order must be positive, got ell={ell}")
    if r_cut is None:
        r_cut = 60.0 if ell < 2 else 30.0
    v1, m1, tail1 = _cl_single(ell, r_cut, n_points)
    v2, m2, _ = _cl_single(ell, 1.25 * r_cut, 2 * n_points)
    err = abs(v1 - v2) + abs(m1 - m2)
    if err > 1e-4:
        raise QuadratureError(
            f"C_l certification failed at ell={ell}: resolutions disagree by {err:.3e}"
        )
    return ClResult(ell, v2, err, tail1, m2)


# ---------------------------------------------------------------------------
# L^1 semigroup approximation gap (combined vs heat)


def l1_semigroup_gap(ell: float, t: float, grid: Grid3) -> float:
    """|| p_l(t) * p(t/2) - p(t/2) ||_1 on the periodic grid.

    Both kernels must be resolved (width >= 4 cells) and contained
    (width <= L/8) so periodization error stays below measurement noise.
    """
    if t <= 0:
        raise ValueError(f"gap time must be positive, got t={t}")
    heat_width = math.sqrt(t)  # std of p(., t/2) per axis
    hyper_width = t ** (1.0 / ell)
    min_w = min(heat_width, hyper_width)
    max_w = max(heat_width, hyper_width)
    if min_w < 4.0 * grid.dx * (1 - 1e-12):
        raise ContainmentError(
            f"kernel under-resolved: width {min_w:.3g} < 4 cells ({4 * grid.dx:.3g})"
        )
    if max_w > grid.length / 8.0 * (1 + 1e-12):
        raise ContainmentError(
            f"kernel not contained: width {max_w:.3g} > L/8 ({grid.length / 8:.3g})"
        )
    ksq = grid.k_sq
    kmag_l = ksq ** (ell / 2.0)
    m_heat = np.exp(-(t / 2.0) * ksq)
    diff = np.exp(-t * kmag_l) * m_heat - m_heat
    # with these conventions the cell volume cancels exactly:
    # sum |IDFT(m)| / cellvol * cellvol
    phys = grid.backward(diff)
    return float(np.abs(phys).sum())


# ---------------------------------------------------------------------------
# Mollifier family


class SupportError(ValueError):
    """Mollifier support does not fit inside the box."""


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on (-1, 1).

    Newton's method on the three-term recurrence from the usual cosine
    guesses.  Unlike numpy's leggauss it calls no eigensolver: the threaded
    LAPACK call behind leggauss(400) can stall for most of a second on its
    first use in a process that already runs FFT worker threads.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")

    def legendre_pair(x):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)  # P_n and P_n'

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre_pair(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps:
            break
    _, dp = legendre_pair(x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@lru_cache(maxsize=8)
def _bump_rule(n_nodes: int = 400):
    x, w = _gauss_legendre(n_nodes)
    r = 0.5 * (x + 1.0)  # map to (0, 1)
    w = 0.5 * w
    profile = np.exp(-1.0 / (1.0 - r**2))
    return r, w, profile


def bump_symbol(k: np.ndarray) -> np.ndarray:
    """omega^(k), the radial Fourier transform of the unit-width bump."""
    k = np.asarray(k, dtype=float)
    r, w, profile = _bump_rule()
    moment2 = float((w * profile * r**2).sum())
    c = 1.0 / (4.0 * math.pi * moment2)  # c 4 pi int_0^1 exp(-1/(1-r^2)) r^2 dr = 1
    flat = k.ravel()
    out = np.empty_like(flat)
    small = np.abs(flat) < 1e-8
    out[small] = 4.0 * math.pi * c * moment2  # == 1 by normalization
    kb = flat[~small]
    vals = np.empty_like(kb)
    block = 4096
    fw = w * profile * r
    for i in range(0, kb.size, block):
        kk = kb[i : i + block]
        vals[i : i + block] = np.sin(np.outer(kk, r)) @ fw / kk
    out[~small] = 4.0 * math.pi * c * vals
    return out.reshape(k.shape)


def mollifier_symbol(grid: Grid3, kappa: float) -> np.ndarray:
    """omega_kappa^(xi) = omega^(kappa xi) of the bump on the half spectrum.

    The symbol is real with omega_kappa^(0) = 1; kappa = 0 gives ones.
    """
    if kappa < 0:
        raise ValueError(f"mollifier width must be nonnegative, got kappa={kappa}")
    if kappa > grid.length / 2.0:
        raise SupportError(
            f"mollifier support radius {kappa} exceeds half box {grid.length / 2}"
        )
    if kappa == 0.0:
        return np.ones(grid.spectral_shape)
    kmag = np.sqrt(grid.k_sq)
    smax = float(kappa * kmag.max())
    table_s = np.linspace(0.0, smax, 4096)
    table_v = bump_symbol(table_s)
    table_v /= table_v[0]  # enforce unit mass exactly
    return np.interp(kappa * kmag, table_s, table_v)
