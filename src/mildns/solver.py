"""Mild-solution machinery for the three models (plain, mollified, hyperviscous).

The Duhamel integral is discretized by product integration on a graded
time grid: the propagator factor is kept exact per Fourier mode and only
the nonlinear integrand is interpolated linearly between nodes.  The
resulting system is solved node by node in time order, by fixed-point
(Picard) iteration at each node on its one implicit term; an exponential
time-differencing marcher provides an independent oracle for the same
spatially discrete system.

Data enter through ``check_solver_data``: finite, mean-free, solenoidal
and inside the 2/3 band.  The dealiased nonlinear term and the diagonal
propagators keep every trajectory inside the band, so trajectories and all
solver arithmetic live on the band block of ``Grid3.band`` (76 MB instead
of 253 MB for 39 nodes at 64^3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SpectralVectorField,
    check_solver_data,
    mollified_nonlinear_term,
    nonlinear_term,
)
# The benchmark's tracer (bench/tracing.py) patches solver.leray_project by
# name, so the name stays importable here although the solver does not call it.
from .fields import leray_project  # noqa: F401
from .grid import Grid3
from .kernels import mollifier_symbol

TOL = 1e-9  # Picard stops once a node's update is this small, relative to max-node ||y||_2
MAX_ITERATIONS = 60  # Picard iterations allowed per node


class PicardDivergenceError(RuntimeError):
    """A node's Picard iteration stopped contracting (data too large for the small ball)."""


class BlowupError(RuntimeError):
    """Time marcher aborted on unbounded growth."""


# ---------------------------------------------------------------------------
# Models


@dataclass
class ModelSpec:
    """One of the three systems: ns | mollified(kappa) | hyper(ell).

    Its operators act on band blocks (``Grid3.band``), the solver's layout.
    """

    kind: str
    grid: Grid3
    kappa: float = 0.0
    ell: float | None = None

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
        """mu(xi) on the band, with propagator exp(-t mu)."""
        k_sq = self.grid.band.k_sq
        if self.kind == "hyper":
            return k_sq + k_sq ** (self.ell / 2.0)
        return k_sq

    def nonlinear(self, u: SpectralVectorField, v: SpectralVectorField):
        """The spatial integrand P div (u~ (x) v) for this model."""
        if self.kind == "mollified" and self.kappa > 0:
            if self._mollifier is None:  # the symbol's band block, built on first use
                self._mollifier = self.grid.band.gather(mollifier_symbol(self.grid, self.kappa))
            return mollified_nonlinear_term(u, v, self._mollifier)
        return nonlinear_term(u, v)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class TimeGridSolution:
    """A velocity trajectory sampled on a (possibly graded) time grid.

    ``coeffs`` holds the band block of each node; ``node`` and ``fields``
    return half-spectrum fields, zero outside the band.
    """

    grid: Grid3
    times: np.ndarray
    coeffs: np.ndarray  # (M+1, 3) + grid.band.shape
    meta: dict = field(default_factory=dict)

    def node(self, m: int) -> SpectralVectorField:
        return SpectralVectorField(self.grid, self.grid.band.pad(self.coeffs[m]), True)

    def fields(self):
        """Yield node(m) for every node, one at a time."""
        return (self.node(m) for m in range(len(self.times)))

    @classmethod
    def zeros(cls, grid: Grid3, times: np.ndarray) -> "TimeGridSolution":
        c = np.zeros((len(times), 3) + grid.band.shape, dtype=complex)
        return cls(grid, np.asarray(times, dtype=float), c)

    def node_l2(self, m: int) -> float:
        return SpectralVectorField(self.grid, self.coeffs[m]).l2_norm()

    def storage(self) -> dict:
        """Storage of the trajectory, for ``meta``."""
        return {"trajectory_bytes": self.coeffs.nbytes, "band_shape": self.grid.band.shape}

    def max_l2(self) -> float:
        return max(self.node_l2(m) for m in range(len(self.times)))


def _check_times(times) -> np.ndarray:
    """times as a float array; ValueError naming the check unless they are
    1-D, finite, start at 0.0 and strictly increase."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"time grid: not 1-D (shape {times.shape})")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid: non-finite times")
    if times.size == 0 or times[0] != 0.0:
        raise ValueError("time grid: does not start at 0.0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid: not strictly increasing")
    return times


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
    which is exact for the product-integration rule (N's symmetric path when v is u).
    """
    if u.grid != v.grid or len(u.times) != len(v.times) or not np.allclose(
        u.times, v.times
    ):
        raise ValueError("trajectories live on different grids")
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(u.grid, u.times)
    g = u.grid

    def integrand(m):
        um = SpectralVectorField(g, u.coeffs[m])
        return model.nonlinear(um, um if v is u else SpectralVectorField(g, v.coeffs[m])).coeffs

    g_old = integrand(0)
    local, tmp = (np.empty_like(g_old) for _ in range(2))  # band buffers, reused
    for m in range(1, len(u.times)):
        dt = u.times[m] - u.times[m - 1]
        decay, w_new, w_old = _interval_weights(mu, dt)
        g_new = integrand(m)
        # B_m = decay B_{m-1} - (w_new g_new + w_old g_old), in that order
        np.multiply(w_new, g_new, out=local)
        local += np.multiply(w_old, g_old, out=tmp)
        np.multiply(decay, out.coeffs[m - 1], out=tmp)
        np.subtract(tmp, local, out=out.coeffs[m])
        g_old = g_new
    return out


def linear_forced_term(
    u0: SpectralVectorField, model: ModelSpec, times: np.ndarray
) -> TimeGridSolution:
    """y(t_m) = propagator(t_m) u0, the linear part of the mild solution.

    Raises ValueError when u0 fails ``check_solver_data`` or times fail
    ``_check_times``.
    """
    check_solver_data(u0)
    times = _check_times(times)
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(u0.grid, times)
    out.coeffs[0] = u0.grid.band.gather(u0.coeffs)
    for m in range(1, len(times)):
        out.coeffs[m] = np.exp(-times[m] * mu) * out.coeffs[0]
    return out


def picard_solve(y: TimeGridSolution, model: ModelSpec) -> TimeGridSolution:
    """Solve u = y + B(u, u) node by node, in time order.

    Once nodes 0..m-1 are final, the product-integration rule leaves
    u_m = base_m - w_new N(u_m) with base_m = y_m + decay B_{m-1} -
    w_old N_{m-1}.  From the explicit predictor base_m - w_new N_{m-1},
    iterate u <- base_m - w_new N(u), one nonlinear evaluation each, until
    ||delta u||_2 <= TOL * max-node ||y||_2, and keep the last update.  At
    most ``MAX_ITERATIONS`` iterations per node; a non-finite residual, one
    that grows over 3 consecutive iterations, or no convergence raises
    PicardDivergenceError naming the node.  ``meta`` records iterations
    per node, the per-iteration maximum residual over nodes, the largest
    last-step contraction ratio, the number of nonlinear evaluations and
    the trajectory's storage.  ``y`` and the result hold band blocks.
    Raises ValueError when ``y.times`` fail ``_check_times``.
    """
    _check_times(y.times)
    mu = model.dissipation_exponent()
    y_scale = y.max_l2() or 1.0  # zero data: every residual is exactly 0
    out = TimeGridSolution(y.grid, y.times, np.empty_like(y.coeffs), {})
    out.coeffs[0] = y.coeffs[0]
    f = SpectralVectorField(y.grid, out.coeffs[0], is_solenoidal=True)
    n = model.nonlinear(f, f).coeffs  # the last evaluated N
    b = np.zeros_like(y.coeffs[0])
    u, u_new, tmp = (np.empty_like(b) for _ in range(3))  # node buffers, reused
    history, ratios = [], [0.0]
    for m in range(1, len(y.times)):
        t = y.times[m]
        decay, w_new, w_old = _interval_weights(mu, t - y.times[m - 1])
        base = y.coeffs[m] + decay * b - w_old * n
        np.subtract(base, np.multiply(w_new, n, out=tmp), out=u)
        res = []
        while not res or res[-1] > TOL:
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
            elif len(res) >= MAX_ITERATIONS and res[-1] > TOL:
                why = f"no convergence in {MAX_ITERATIONS} iterations"
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
        **out.storage(),
    }
    return out


def etd_march(
    u0: SpectralVectorField, model: ModelSpec, times: np.ndarray
) -> TimeGridSolution:
    """Second-order exponential time differencing (ETD2RK) marcher.

    Exact for the linear part; aborts if ||u||_inf grows tenfold.  Raises
    ValueError when u0 fails ``check_solver_data`` or times fail
    ``_check_times``.
    """
    check_solver_data(u0)
    times = _check_times(times)
    g = u0.grid
    mu = model.dissipation_exponent()
    out = TimeGridSolution.zeros(g, times)
    out.coeffs[0] = g.band.gather(u0.coeffs)
    guard = 10.0 * max(np.abs(u0.to_physical()).max(), 1e-300)

    def rhs(coeffs: np.ndarray) -> np.ndarray:
        f = SpectralVectorField(g, coeffs, is_solenoidal=True)
        return -model.nonlinear(f, f).coeffs

    cur = out.coeffs[0].copy()
    for m in range(1, len(times)):
        dt = times[m] - times[m - 1]
        decay, w_new, w_old = _interval_weights(mu, dt)
        # ETD2RK: predictor with the phi1 weight, corrector with phi2;
        # the product-integration weights satisfy w_new + w_old = dt*phi1
        # and w_new = dt*phi2.
        n_old = rhs(cur)
        pred = decay * cur + (w_new + w_old) * n_old
        n_pred = rhs(pred)
        cur = pred + w_new * (n_pred - n_old)
        out.coeffs[m] = cur
        if np.abs(SpectralVectorField(g, cur).to_physical()).max() > guard:
            raise BlowupError(f"||u||_inf exceeded 10x its initial value at t={times[m]}")
    out.meta = out.storage()
    return out


def solve(model: ModelSpec, u0: SpectralVectorField, times: np.ndarray) -> TimeGridSolution:
    """Run the model from solenoidal mean-free data by Picard iteration."""
    return picard_solve(linear_forced_term(u0, model, times), model)
