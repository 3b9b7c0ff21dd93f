"""NSF1 field snapshots and trajectory manifests.

Snapshot format: one ASCII header line
``NSF1 n=<n> L=<float> t=<float> components=3`` followed by 3*n^3
little-endian float64 physical samples, component-major, x-fastest.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fields import SpectralVectorField
from .grid import check_grid_size, make_grid


def save_field(path, f: SpectralVectorField, t: float = 0.0):
    samples = f.to_physical()
    n = f.grid.n
    header = f"NSF1 n={n} L={float(f.grid.length)!r} t={float(t)!r} components=3\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for c in range(3):
            # x-fastest: index = x + n*y + n^2*z
            block = np.ascontiguousarray(samples[c].transpose(2, 1, 0))
            fh.write(block.astype("<f8").tobytes())


def _read_header(fh):
    """(n, L, t) from the header line; ValueError naming what is wrong with it."""
    header = fh.readline().decode("ascii").strip()
    parts = header.split()
    if not parts or parts[0] != "NSF1":
        raise ValueError(f"not an NSF1 snapshot: {header!r}")
    try:
        bad = [p for p in parts[1:] if "=" not in p]
        if bad:
            raise ValueError(f"tokens without '=': {bad}")
        kv = dict(p.split("=", 1) for p in parts[1:])
        missing = [key for key in ("n", "L", "t") if key not in kv]
        if missing:
            raise ValueError(f"no {', '.join(missing)}")
        if int(kv.get("components", 3)) != 3:
            raise ValueError("NSF1 snapshots carry exactly 3 components")
        n, L = int(kv["n"]), float(kv["L"])
        check_grid_size(n, L)
        return n, L, float(kv["t"])
    except ValueError as err:
        raise ValueError(f"bad NSF1 header {header!r}: {err}") from None


def _read_samples(path):
    """(n, L, t, samples); the header is checked before the payload is read."""
    with open(path, "rb") as fh:
        n, L, t = _read_header(fh)
        raw = np.frombuffer(fh.read(3 * n**3 * 8), dtype="<f8")
    if raw.size != 3 * n**3:
        raise ValueError("truncated NSF1 snapshot")
    return n, L, t, raw.reshape(3, n, n, n).transpose(0, 3, 2, 1).copy()


def load_field(path):
    """Returns (field, t); the header is checked before the payload is read."""
    n, L, t, samples = _read_samples(path)
    return SpectralVectorField.from_physical(make_grid(n, L), samples), t


def save_trajectory(directory, traj, model_kind: str, kappa: float = 0.0, ell=None):
    """One NSF1 snapshot per node plus manifest.json."""
    os.makedirs(directory, exist_ok=True)
    names = []
    for m, t in enumerate(traj.times):
        name = f"node_{m:04d}.nsf"
        save_field(os.path.join(directory, name), traj.node(m), t)
        names.append(name)
    manifest = {
        "model": model_kind,
        "kappa": kappa,
        "ell": ell,
        "grid": {"n": traj.grid.n, "L": traj.grid.length},
        "times": [float(t) for t in traj.times],
        "snapshots": names,
        "residuals": traj.meta.get("residuals", []),
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def load_trajectory(directory):
    """Returns (times, fields, manifest); snapshots of one grid share one Grid3."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    grid, fields = None, []
    for name in manifest["snapshots"]:
        n, L, _, samples = _read_samples(os.path.join(directory, name))
        if grid is None or (grid.n, grid.length) != (n, L):
            grid = make_grid(n, L)
        fields.append(SpectralVectorField.from_physical(grid, samples))
    return np.array(manifest["times"]), fields, manifest
