"""Span tracing of calls into the mildns modules, from outside the library.

Each traced name is replaced, for the duration of one recorded block, by a
wrapper that records a span (name, start, end, parent, operation id) and
any exact counts taken from the call's arguments and result.  A name is
patched everywhere a caller looks it up: ``solver`` imports
``nonlinear_term``, ``leray_project`` and ``mollifier_symbol`` by name,
``fields`` and ``exact`` call ``leray_project`` as a module global, and
``solve`` reaches ``picard_solve``, ``duhamel_bilinear``,
``linear_forced_term`` and ``etd_march`` as globals of ``solver``.

Spans stay in memory until the run ends; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np


def _fft_counts(args, result):
    """Scalar 3-D transforms and bytes in plus out of one Grid3 transform."""
    array = args[1]
    return {
        "transforms": int(np.prod(array.shape[:-3], dtype=np.int64)),
        "bytes": int(array.nbytes + result.nbytes),
    }


def _weak_counts(args, result):
    return {"elements": int(args[0].size // (3 if args[0].ndim == 4 else 1))}


def _picard_counts(args, result):
    return {
        "nodes": len(args[0].times),
        "sweeps": int(result.meta["sweeps"]),
        "contraction_ratio": float(result.meta.get("contraction_ratio", 0.0)),
    }


def _etd_counts(args, result):
    return {"nodes": len(result.times)}


def _dir_bytes(directory):
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def _snapshot_counts(args, result):
    """Bytes of the snapshot directory written or read."""
    return {"bytes": _dir_bytes(args[0])}


def trace_targets(mildns):
    """(span name, [(owner, attribute), ...], counter) for every traced name.

    ``mildns`` is a namespace holding the imported library modules
    ``grid``, ``fields``, ``solver``, ``kernels``, ``norms``, ``exact`` and
    ``snapshots``.
    """
    g, f, s, k, n, e, sn = (
        mildns.grid, mildns.fields, mildns.solver, mildns.kernels,
        mildns.norms, mildns.exact, mildns.snapshots,
    )
    return [
        ("grid.rfftn", [(g.Grid3, "forward")], _fft_counts),
        ("grid.irfftn", [(g.Grid3, "backward")], _fft_counts),
        ("fields.nonlinear", [(f, "nonlinear_term"), (s, "nonlinear_term")], None),
        ("fields.mollified", [(f, "mollified_nonlinear_term"),
                              (s, "mollified_nonlinear_term")], None),
        ("fields.leray", [(f, "leray_project"), (s, "leray_project"),
                          (e, "leray_project")], None),
        ("solver.solve", [(s, "solve")], None),
        ("solver.linear", [(s, "linear_forced_term")], None),
        ("solver.picard", [(s, "picard_solve")], _picard_counts),
        ("solver.duhamel", [(s, "duhamel_bilinear")], None),
        ("solver.etd", [(s, "etd_march")], _etd_counts),
        ("solver.nonlinear", [(s.ModelSpec, "nonlinear")], None),
        ("kernels.gap", [(k, "l1_semigroup_gap")], None),
        ("kernels.cl", [(k, "compute_Cl")], None),
        ("kernels.mollifier", [(k, "mollifier_symbol"), (s, "mollifier_symbol")], None),
        ("norms.weak", [(n, "weak_lp_norm")], _weak_counts),
        ("norms.lp", [(n, "lp_norm")], None),
        ("norms.decay", [(n, "decay_functional")], None),
        ("exact.data", [(e, "homogeneous_data")], None),
        ("exact.rescale", [(e, "rescale")], None),
        ("snapshots.save", [(sn, "save_trajectory")], _snapshot_counts),
        ("snapshots.load", [(sn, "load_trajectory")], _snapshot_counts),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts = None

    def as_dict(self):
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "counts": self.counts,
        }


class Tracer:
    """Records spans while a ``recording`` block is open; idle otherwise."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def recording(self, root_name, op_id):
        """Patch every target, record one root span, restore on exit."""
        saved = []
        try:
            for name, places, counter in self.targets:
                wrappers = {}
                for owner, attr in places:
                    original = owner.__dict__[attr]
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original, counter)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
            self._op = op_id
            root = self._open(root_name)
            try:
                yield root
            finally:
                self._close(root)
                self._op = None
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def root_of(spans):
    roots = []
    for span in spans:
        roots.append(roots[span.parent] if span.parent >= 0 else span.name)
    return roots


LAYERS = ("grid", "fields", "solver", "kernels", "norms", "exact", "snapshots", "bench")


def layer_metrics(spans):
    """Per-layer counts and times from the spans of one traced pass.

    Everything except ``exact.data.s`` comes from spans under operation
    roots; ``exact.data.s`` is the data construction under the set-up root.
    """
    selfs = self_times(spans)
    roots = root_of(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    data_s = 0.0
    for span, own, root in zip(spans, selfs, roots):
        if root == "bench.setup":
            if span.name == "exact.data":
                data_s += span.end - span.start
            continue
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        self_s[span.name] += own
        for key, value in (span.counts or {}).items():
            if key == "contraction_ratio":
                counts[span.name + "." + key] = value  # last solve's ratio
            else:
                counts[span.name + "." + key] += value

    nodes = counts["solver.picard.nodes"] + counts["solver.etd.nodes"]
    evals = calls["solver.nonlinear"]
    m = {
        "grid.rfftn.calls": calls["grid.rfftn"],
        "grid.rfftn.transforms": int(counts["grid.rfftn.transforms"]),
        "grid.rfftn.s": total["grid.rfftn"],
        "grid.irfftn.calls": calls["grid.irfftn"],
        "grid.irfftn.transforms": int(counts["grid.irfftn.transforms"]),
        "grid.irfftn.s": total["grid.irfftn"],
        "grid.fft_bytes": int(counts["grid.rfftn.bytes"] + counts["grid.irfftn.bytes"]),
        "fields.nonlinear.calls": calls["fields.nonlinear"],
        "fields.nonlinear.self_s": self_s["fields.nonlinear"] + self_s["fields.mollified"],
        "fields.leray.calls": calls["fields.leray"],
        "fields.leray.s": total["fields.leray"],
        "solver.sweeps": int(counts["solver.picard.sweeps"]),
        "solver.nonlinear_evals": evals,
        "solver.evals_per_node": evals / nodes if nodes else 0.0,
        "solver.contraction_ratio": counts["solver.picard.contraction_ratio"],
        "solver.duhamel.calls": calls["solver.duhamel"],
        "solver.duhamel.self_s": self_s["solver.duhamel"],
        "solver.picard.self_s": self_s["solver.picard"],
        "solver.linear.s": total["solver.linear"],
        "solver.etd.s": total["solver.etd"],
        "kernels.gap.calls": calls["kernels.gap"],
        "kernels.gap.self_s": self_s["kernels.gap"],
        "kernels.cl.s": total["kernels.cl"],
        "kernels.mollifier.s": total["kernels.mollifier"],
        "norms.weak.calls": calls["norms.weak"],
        "norms.weak.elements": int(counts["norms.weak.elements"]),
        "norms.weak.s": total["norms.weak"],
        "norms.lp.s": total["norms.lp"],
        "exact.data.s": data_s,
        "exact.rescale.s": total["exact.rescale"],
        "snapshots.save.s": total["snapshots.save"],
        "snapshots.save.bytes": int(counts["snapshots.save.bytes"]),
        "snapshots.load.s": total["snapshots.load"],
        "snapshots.load.bytes": int(counts["snapshots.load.bytes"]),
    }
    layer_self = defaultdict(float)
    for name, own in self_s.items():
        layer_self[name.split(".")[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
