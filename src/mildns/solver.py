"""Mild-solution machinery for the three models (plain, mollified, hyperviscous).

The Duhamel integral is discretized by product integration on a graded
time grid: the propagator factor is kept exact per Fourier mode and only
the nonlinear integrand is interpolated linearly between nodes.  The
resulting system is solved node by node in time order, by fixed-point
(Picard) iteration at each node on its one implicit term; an exponential
time-differencing marcher provides an independent oracle for the same
spatially discrete system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SpectralVectorField,
    leray_project,
    mollified_nonlinear_term,
    nonlinear_term,
)
from .grid import Grid3
from .kernels import mollifier_symbol


class PicardDivergenceError(RuntimeError):
    """A node's Picard iteration stopped contracting (data too large for the small ball)."""


class BlowupError(RuntimeError):
    """Time marcher aborted on unbounded growth."""


# ---------------------------------------------------------------------------
# Forcing


class NoForcing:
    kind = "none"

    def spectral_force(self, grid: Grid3, t: float):
        return None


@dataclass
class SteadyGaussianForce:
    """F(x) = b * p(x, sigma^2 / 2): a Gaussian surrogate of b delta_0.

    Mean-free on the torus (the zero mode is dropped), with continuum
    Fourier transform b_i exp(-sigma^2 |xi|^2 / 2).
    """

    b: tuple
    sigma: float
    kind = "steady_delta"

    def spectral_force(self, grid: Grid3, t: float) -> np.ndarray:
        envelope = np.exp(-0.5 * self.sigma**2 * grid.k_sq) / grid.cell_volume
        out = np.stack([bi * envelope for bi in self.b]).astype(complex)
        out[:, 0, 0, 0] = 0.0
        return out


@dataclass
class DivergenceForcing:
    """F = div V with the tensor potential V supplied per time.

    ``v_spectral(grid, t)`` must return the (3, 3) + spectral tensor
    V^_{ik}; the force spectrum is F^_i = i xi_k V^_{ik}.
    """

    v_spectral: object
    kind = "divergence_form"

    def spectral_force(self, grid: Grid3, t: float) -> np.ndarray:
        V = self.v_spectral(grid, t)
        kv = (grid.kx, grid.ky, grid.kz)
        out = np.empty((3,) + grid.spectral_shape, dtype=complex)
        for i in range(3):
            out[i] = 1j * (kv[0] * V[i, 0] + kv[1] * V[i, 1] + kv[2] * V[i, 2])
        out[:, 0, 0, 0] = 0.0
        return out


# ---------------------------------------------------------------------------
# Models


@dataclass
class ModelSpec:
    """One of the three systems: ns | mollified(kappa) | hyper(ell)."""

    kind: str
    grid: Grid3
    kappa: float = 0.0
    ell: float | None = None
    forcing: object = field(default_factory=NoForcing)

    def __post_init__(self):
        if self.kind not in ("ns", "mollified", "hyper"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "mollified" and self.kappa < 0:
            raise ValueError("mollifier width must be nonnegative")
        if self.kind == "hyper":
            if self.ell is None or self.ell < 2:
                raise ValueError("hyperviscous model needs ell >= 2")
        self._mollifier = None

    def dissipation_exponent(self) -> np.ndarray:
        """mu(xi) with propagator exp(-t mu)."""
        g = self.grid
        if self.kind == "hyper":
            return g.k_sq + g.k_sq ** (self.ell / 2.0)
        return g.k_sq

    def propagator_values(self, t: float) -> np.ndarray:
        return np.exp(-t * self.dissipation_exponent())

    def nonlinear(self, u: SpectralVectorField, v: SpectralVectorField):
        """The spatial integrand P div (u~ (x) v) for this model."""
        if self.kind == "mollified" and self.kappa > 0:
            if self._mollifier is None:
                self._mollifier = mollifier_symbol(self.grid, self.kappa).multiplier()
            return mollified_nonlinear_term(u, v, self._mollifier)
        return nonlinear_term(u, v)


# ---------------------------------------------------------------------------
# Trajectories


def graded_times(T: float, M: int, gamma: float = 2.0) -> np.ndarray:
    """t_m = T (m/M)^gamma: early-time resolution matching the t^(1/2) scale."""
    if T <= 0 or M < 1:
        raise ValueError("need T > 0 and at least one step")
    return T * (np.arange(M + 1) / M) ** gamma


@dataclass
class TimeGridSolution:
    """A velocity trajectory sampled on a (possibly graded) time grid."""

    grid: Grid3
    times: np.ndarray
    coeffs: np.ndarray  # (M+1, 3) + spectral_shape
    meta: dict = field(default_factory=dict)

    def node(self, m: int) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.coeffs[m], is_solenoidal=True)

    def fields(self):
        return [self.node(m) for m in range(len(self.times))]

    @classmethod
    def zeros(cls, grid: Grid3, times: np.ndarray) -> "TimeGridSolution":
        c = np.zeros((len(times), 3) + grid.spectral_shape, dtype=complex)
        return cls(grid, np.asarray(times, dtype=float), c)

    def node_l2(self, m: int) -> float:
        return self.node(m).l2_norm()

    def max_l2(self) -> float:
        return max(self.node_l2(m) for m in range(len(self.times)))


def _check_same_grid(u: TimeGridSolution, v: TimeGridSolution):
    if u.grid != v.grid or len(u.times) != len(v.times) or not np.allclose(
        u.times, v.times
    ):
        raise ValueError("trajectories live on different grids")


def _interval_weights(mu: np.ndarray, dt: float):
    """Product-integration weights for one interval of length dt.

    Returns (decay, w_new, w_old): the contribution of the interval to
    int_0^dt exp(-s mu) G(t - s) ds with G linear between the endpoint
    values G_new (zero lag) and G_old (lag dt).
    """
    h = dt * mu
    decay = np.exp(-h)
    small = h < 1e-3
    hs = np.where(small, 1.0, h)  # avoid 0/0; the small branch is replaced below
    phi1 = -np.expm1(-hs) / hs
    psi = (-np.expm1(-hs) - hs * np.exp(-hs)) / hs**2
    phi1 = np.where(small, 1.0 - h / 2.0 + h**2 / 6.0 - h**3 / 24.0, phi1)
    psi = np.where(small, 0.5 - h / 3.0 + h**2 / 8.0 - h**3 / 30.0, psi)
    w_old = dt * psi
    w_new = dt * (phi1 - psi)
    if not (np.all(np.isfinite(w_old)) and np.all(np.isfinite(w_new))):
        raise FloatingPointError("quadrature weights are not finite")
    return decay, w_new, w_old


def duhamel_bilinear(
    u: TimeGridSolution, v: TimeGridSolution, model: ModelSpec
) -> TimeGridSolution:
    """B(u, v)(t_m) = -int_0^{t_m} propagator(t_m - tau) N(u, v)(tau) dtau.

    Uses the semigroup recursion B_m = decay * B_{m-1} + local integral,
    which is exact for the product-integration rule.
    """
    _check_same_grid(u, v)
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(u.grid, u.times)
    g_old = model.nonlinear(u.node(0), v.node(0)).coeffs
    for m in range(1, len(u.times)):
        dt = u.times[m] - u.times[m - 1]
        decay, w_new, w_old = _interval_weights(mu, dt)
        g_new = model.nonlinear(u.node(m), v.node(m)).coeffs
        out.coeffs[m] = decay * out.coeffs[m - 1] - (w_new * g_new + w_old * g_old)
        g_old = g_new
    return out


def linear_forced_term(
    u0: SpectralVectorField, model: ModelSpec, times: np.ndarray
) -> TimeGridSolution:
    """y(t_m) = propagator(t_m) u0 + Duhamel of the projected force."""
    times = np.asarray(times, dtype=float)
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(u0.grid, times)
    out.coeffs[0] = u0.coeffs
    forcing = model.forcing
    if forcing.kind == "none":
        for m in range(1, len(times)):
            out.coeffs[m] = np.exp(-times[m] * mu) * u0.coeffs
    elif forcing.kind == "steady_delta":
        f_hat = leray_project(
            SpectralVectorField(u0.grid, forcing.spectral_force(u0.grid, 0.0))
        ).coeffs
        mu_safe = np.where(mu > 0, mu, 1.0)
        for m in range(1, len(times)):
            t = times[m]
            # exact multiplier (1 - exp(-t mu)) / mu, no time quadrature
            gain = -np.expm1(-t * mu_safe) / mu_safe
            gain = np.where(mu > 0, gain, t)
            out.coeffs[m] = np.exp(-t * mu) * u0.coeffs + gain * f_hat
    else:
        pf_old = leray_project(
            SpectralVectorField(u0.grid, forcing.spectral_force(u0.grid, times[0]))
        ).coeffs
        acc = np.zeros_like(u0.coeffs)
        for m in range(1, len(times)):
            dt = times[m] - times[m - 1]
            decay, w_new, w_old = _interval_weights(mu, dt)
            pf_new = leray_project(
                SpectralVectorField(u0.grid, forcing.spectral_force(u0.grid, times[m]))
            ).coeffs
            acc = decay * acc + (w_new * pf_new + w_old * pf_old)
            pf_old = pf_new
            out.coeffs[m] = np.exp(-times[m] * mu) * u0.coeffs + acc
    return out


def picard_solve(
    y: TimeGridSolution,
    model: ModelSpec,
    tol: float = 1e-9,
    max_sweeps: int = 60,
) -> TimeGridSolution:
    """Solve u = y + B(u, u) node by node, in time order.

    Once nodes 0..m-1 are final, the product-integration rule leaves
    u_m = base_m - w_new N(u_m) with base_m = y_m + decay B_{m-1} -
    w_old N_{m-1}.  From the explicit predictor base_m - w_new N_{m-1},
    iterate u <- base_m - w_new N(u), one nonlinear evaluation each, until
    ||delta u||_2 <= tol * max-node ||y||_2, and keep the last update.  At
    most ``max_sweeps`` iterations per node; a non-finite residual, one
    that grows over 3 consecutive iterations, or no convergence raises
    PicardDivergenceError naming the node.  ``meta`` records iterations
    per node, the per-iteration maximum residual over nodes, the largest
    last-step contraction ratio and the number of nonlinear evaluations.
    """
    mu = model.dissipation_exponent()
    y_scale = y.max_l2() or 1.0  # zero data: every residual is exactly 0
    out = TimeGridSolution(y.grid, y.times, np.empty_like(y.coeffs), {})
    out.coeffs[0] = y.coeffs[0]
    n = model.nonlinear(out.node(0), out.node(0)).coeffs  # the last evaluated N
    b = np.zeros_like(y.coeffs[0])
    u, u_new, tmp = (np.empty_like(b) for _ in range(3))  # node buffers, reused
    history, ratios = [], [0.0]
    for m in range(1, len(y.times)):
        t = y.times[m]
        decay, w_new, w_old = _interval_weights(mu, t - y.times[m - 1])
        base = y.coeffs[m] + decay * b - w_old * n
        np.subtract(base, np.multiply(w_new, n, out=tmp), out=u)
        res = []
        while not res or res[-1] > tol:
            f = SpectralVectorField(y.grid, u, is_solenoidal=True)
            n = model.nonlinear(f, f).coeffs
            np.subtract(base, np.multiply(w_new, n, out=tmp), out=u_new)
            step = SpectralVectorField(y.grid, np.subtract(u_new, u, out=tmp))
            res.append(step.l2_norm() / y_scale)
            u, u_new = u_new, u
            if not np.isfinite(res[-1]):
                why = "non-finite residual"
            elif len(res) > 3 and res[-1] > res[-2] > res[-3] > res[-4]:
                why = "residual grew over 3 consecutive iterations"
            elif len(res) >= max_sweeps and res[-1] > tol:
                why = f"no convergence in {max_sweeps} iterations"
            else:
                continue
            raise PicardDivergenceError(f"node {m} at t = {t:g}: {why}; residuals {res}")
        out.coeffs[m] = u
        np.subtract(u, y.coeffs[m], out=b)
        history.append(res)
        if len(res) > 1:
            ratios.append(res[-1] / res[-2])
    iterations = [len(r) for r in history]
    sweeps = max(iterations, default=0)
    out.meta = {
        "iterations": iterations,
        "nonlinear_evals": sum(iterations) + 1,
        "residuals": [max(r[k] for r in history if len(r) > k) for k in range(sweeps)],
        "contraction_ratio": max(ratios),
        "sweeps": sweeps,
        "converged": True,
    }
    return out


def etd_march(
    u0: SpectralVectorField, model: ModelSpec, times: np.ndarray
) -> TimeGridSolution:
    """Second-order exponential time differencing (ETD2RK) marcher.

    Exact for the linear part; aborts if ||u||_inf grows tenfold.
    """
    times = np.asarray(times, dtype=float)
    g = u0.grid
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(g, times)
    out.coeffs[0] = u0.coeffs
    guard = 10.0 * max(np.abs(u0.to_physical()).max(), 1e-300)

    def rhs(coeffs: np.ndarray, t: float) -> np.ndarray:
        f = SpectralVectorField(g, coeffs, is_solenoidal=True)
        n = -model.nonlinear(f, f).coeffs
        fs = model.forcing.spectral_force(g, t)
        if fs is not None:
            n = n + leray_project(SpectralVectorField(g, fs)).coeffs
        return n

    cur = u0.coeffs.copy()
    for m in range(1, len(times)):
        dt = times[m] - times[m - 1]
        decay, w_new, w_old = _interval_weights(mu, dt)
        # ETD2RK: predictor with the phi1 weight, corrector with phi2;
        # the product-integration weights satisfy w_new + w_old = dt*phi1
        # and w_new = dt*phi2.
        n_old = rhs(cur, times[m - 1])
        pred = decay * cur + (w_new + w_old) * n_old
        n_pred = rhs(pred, times[m])
        cur = pred + w_new * (n_pred - n_old)
        out.coeffs[m] = cur
        if np.abs(SpectralVectorField(g, cur).to_physical()).max() > guard:
            raise BlowupError(f"||u||_inf exceeded 10x its initial value at t={times[m]}")
    return out


def solve(
    model: ModelSpec,
    u0: SpectralVectorField,
    times: np.ndarray,
    method: str = "picard",
    tol: float = 1e-9,
    max_sweeps: int = 60,
) -> TimeGridSolution:
    """Run the requested model from solenoidal mean-free data."""
    if method == "picard":
        y = linear_forced_term(u0, model, times)
        return picard_solve(y, model, tol=tol, max_sweeps=max_sweeps)
    if method == "etd":
        return etd_march(u0, model, times)
    raise ValueError(f"unknown method {method!r}")
