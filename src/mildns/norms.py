"""Discrete norm functionals: L^p and weak-L^p norms, decay curves and slope fits.

The weak (Marcinkiewicz) norm is the set-average form
sup_E |E|^(-1/q) int_E |f|, computed exactly on the grid measure by
sorting: on a purely atomic measure the supremum is attained on
superlevel sets of |f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpectralVectorField


def _magnitude(f: np.ndarray) -> np.ndarray:
    """Euclidean magnitude of a (3, n, n, n) vector field; |f| of a scalar one."""
    if f.ndim == 4 and f.shape[0] == 3:
        return np.sqrt(np.sum(f * f, axis=0))
    return np.abs(f)


def lp_norm(f: np.ndarray, p: float, cell_volume: float) -> float:
    """(sum |f|^p cell_volume)^(1/p); max norm for p = inf."""
    if p < 1:
        raise ValueError(f"L^p norm needs p >= 1, got p={p}")
    mag = _magnitude(f)
    if math.isinf(p):
        return float(mag.max())
    return float((mag**p).sum() * cell_volume) ** (1.0 / p)


def weak_lp_norm(f: np.ndarray, p: float, cell_volume: float) -> float:
    """Set-average weak norm sup_E |E|^(-1/q) int_E |f|, 1/p + 1/q = 1."""
    if not (1 < p < math.inf):
        raise ValueError(f"weak L^p norm needs 1 < p < inf, got p={p}")
    mag = _magnitude(f).ravel()
    mag = np.sort(mag)[::-1]
    q = p / (p - 1.0)
    csum = np.cumsum(mag) * cell_volume
    sizes = np.arange(1, mag.size + 1) * cell_volume
    return float((csum / sizes ** (1.0 / q)).max())


@dataclass
class DecayCurve:
    """Time series of a norm functional with an optional fitted slope."""

    times: np.ndarray
    values: np.ndarray
    functional: str = ""
    p: float = 0.0
    kind: str = "lp"
    fitted_slope: float | None = None
    slope_stderr: float | None = None
    fit_window: tuple | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        order = np.argsort(self.times)
        self.times = self.times[order]
        self.values = self.values[order]
        if np.any(self.times <= 0):
            raise ValueError("curve times must be positive")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("curve times must be strictly increasing")


@dataclass
class SlopeFit:
    slope: float
    stderr: float
    n_points: int


def fit_slope(curve: DecayCurve, window: tuple) -> SlopeFit:
    """Ordinary least squares on log(value) vs log(t) inside the window."""
    t0, t1 = window
    mask = (curve.times >= t0) & (curve.times <= t1)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 3:
        raise ValueError(f"slope fit needs at least 3 points in window, got {t.size}")
    if np.any(v <= 0):
        raise ValueError("slope fit undefined: nonpositive curve values in window")
    x = np.log(t)
    y = np.log(v)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = t.size - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        sxx = float(((x - x.mean()) ** 2).sum())
        stderr = math.sqrt(sigma2 / sxx)
    else:
        stderr = 0.0
    curve.fitted_slope = slope
    curve.slope_stderr = stderr
    curve.fit_window = (float(t0), float(t1))
    return SlopeFit(slope, stderr, int(t.size))


def decay_exponent(p: float) -> float:
    """The weight exponent (1 - 3/p)/2 of the decay functional."""
    return (1.0 - 3.0 / p) / 2.0


def decay_functional(
    times,
    fields,
    p: float,
    kind: str = "lp",
    functional: str = "",
) -> DecayCurve:
    """Curve of t^((1-3/p)/2) * norm(u(t)) over the positive time nodes.

    ``fields`` holds one SpectralVectorField per time node; ``kind`` is
    "lp" or "weak", and vector fields are measured by their Euclidean
    magnitude.
    """
    times = np.asarray(times, dtype=float)
    ts, vals = [], []
    for t, f in zip(times, fields):
        if t <= 0:
            continue
        if not isinstance(f, SpectralVectorField):
            raise TypeError("decay_functional expects SpectralVectorField nodes")
        phys = f.to_physical()
        vol = f.grid.cell_volume
        if kind == "lp":
            nv = lp_norm(phys, p, vol)
        elif kind == "weak":
            nv = weak_lp_norm(phys, p, vol)
        else:
            raise ValueError(f"unknown norm kind {kind!r}")
        ts.append(t)
        vals.append(t ** decay_exponent(p) * nv)
    label = functional or f"t^({decay_exponent(p):.4g})*||u||_{{{p},{kind}}}"
    return DecayCurve(np.array(ts), np.array(vals), label, p, kind)


def write_curve_csv(path, curve: DecayCurve, comments: list[str] | None = None):
    """CSV schema: t,value,functional,p,kind plus '#' comment lines."""
    with open(path, "w") as fh:
        fh.write("t,value,functional,p,kind\n")
        for t, v in zip(curve.times, curve.values):
            fh.write(
                f"{float(t)!r},{float(v)!r},{curve.functional},{curve.p},{curve.kind}\n"
            )
        if curve.fitted_slope is not None:
            fh.write(
                f"# slope={curve.fitted_slope!r} stderr={curve.slope_stderr!r} "
                f"window={curve.fit_window}\n"
            )
        for line in comments or []:
            fh.write(f"# {line}\n")
