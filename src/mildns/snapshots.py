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
from .grid import make_grid


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


def load_field(path):
    """Returns (field, t)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if not parts or parts[0] != "NSF1":
            raise ValueError(f"not an NSF1 snapshot: {header!r}")
        kv = dict(p.split("=", 1) for p in parts[1:])
        n = int(kv["n"])
        L = float(kv["L"])
        t = float(kv["t"])
        if int(kv.get("components", 3)) != 3:
            raise ValueError("NSF1 snapshots carry exactly 3 components")
        raw = np.frombuffer(fh.read(3 * n**3 * 8), dtype="<f8")
    if raw.size != 3 * n**3:
        raise ValueError("truncated NSF1 snapshot")
    samples = raw.reshape(3, n, n, n).transpose(0, 3, 2, 1).copy()
    grid = make_grid(n, L)
    return SpectralVectorField.from_physical(grid, samples), t


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
    """Returns (times, fields, manifest)."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    fields = []
    for name in manifest["snapshots"]:
        f, _ = load_field(os.path.join(directory, name))
        fields.append(f)
    return np.array(manifest["times"]), fields, manifest
