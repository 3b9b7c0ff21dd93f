"""The benchmark's tracer patches library names in place; each must exist."""

import runpy
from pathlib import Path
from types import SimpleNamespace

from mildns import exact, fields, grid, kernels, norms, snapshots, solver

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_defined_where_the_tracer_patches_it():
    trace_targets = runpy.run_path(str(TRACING))["trace_targets"]
    lib = SimpleNamespace(
        grid=grid, fields=fields, solver=solver, kernels=kernels,
        norms=norms, exact=exact, snapshots=snapshots,
    )
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for span, places, _ in trace_targets(lib)
        for owner, attr in places
        if attr not in vars(owner)
    ]
    assert not missing
