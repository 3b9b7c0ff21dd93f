"""Toy-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs all three workloads at n = 16 on a five-node time grid, untraced and
traced, and checks that

- every metric BENCHMARK.json names is printed by name with its unit;
- the exact counts match hand-derived values: one N(u,u) makes 2 irfftn
  calls carrying 6 scalar transforms and 9 rfftn calls, and a Picard solve
  makes sweeps x nodes nonlinear evaluations;
- layer self times add up to their parent spans;
- a corrupted trajectory is reported as a failed operation;
- without the library sources the benchmark exits nonzero and prints no
  result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np

import run
import tracing
import workloads as W

FAILURES = []


def expect(ok, what):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        FAILURES.append(what)


def printed_metrics(result):
    """Run the report printer; return (text, metrics of the JSON last line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_report(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])["metrics"]


def check_metric_names(spec, results):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name, result in results[trace].items():
            text, printed = printed_metrics(result)
            got = {k: v["unit"] for k, v in printed.items()}
            expect(got == wanted, f"{name} trace {trace}: prints exactly the {key} metrics with their units")
            expect(all(f"  {k} = " in text for k in wanted), f"{name} trace {trace}: names every metric in the summary")
            expect("  error_rate = " in text, f"{name} trace {trace}: prints error_rate")


def check_counts(lib, results):
    g, u0 = W.perturbed_swirl(lib, W.TOY, 0)
    tracer = tracing.Tracer(tracing.trace_targets(lib))
    with tracer.recording("bench.op", "one-N"):
        lib.fields.nonlinear_term(u0, u0)
    m = tracing.layer_metrics(tracer.spans)
    expect(
        (m["grid.irfftn.calls"], m["grid.irfftn.transforms"], m["grid.rfftn.calls"],
         m["grid.rfftn.transforms"]) == (2, 6, 9, 9),
        "one N(u,u): 2 irfftn calls with 6 transforms and 9 rfftn calls",
    )
    nodes = len(W.TOY.times)
    for name in ("ns-picard-64", "mollified-picard-64"):
        v = {k: x["value"] for k, x in results[1][name]["metrics"].items()}
        evals = v["solver.nonlinear_evals"]
        expect(evals == v["solver.sweeps"] * nodes and evals == v["fields.nonlinear.calls"],
               f"{name}: nonlinear evaluations = sweeps x nodes = {evals}")
        expect(v["grid.rfftn.calls"] == 9 * evals and v["grid.irfftn.transforms"] == 6 * evals,
               f"{name}: 9 rfftn calls and 6 irfftn transforms per evaluation")
        expect(v["solver.duhamel.calls"] == v["solver.sweeps"], f"{name}: one Duhamel sweep per Picard sweep")


def check_self_times(results):
    for name, result in results[1].items():
        spans = result["spans"]
        selfs = tracing.self_times(spans)
        expect(min(selfs) >= -1e-9, f"{name}: no child span outlasts its parent")
        roots = [s for s in spans if s.parent < 0 and s.name == "bench.op"]
        root_total = sum(s.end - s.start for s in roots)
        v = {k: x["value"] for k, x in result["metrics"].items()}
        layer_total = sum(v[f"{layer}.self_s"] for layer in tracing.LAYERS)
        expect(abs(layer_total - root_total) <= 1e-9 * max(root_total, 1.0),
               f"{name}: layer self times sum to the operation spans ({layer_total:.6f} s)")
        expect(root_total <= v["trace.wall_s"], f"{name}: operation spans fit in trace.wall_s")


def check_corruption(lib):
    inputs = W.picard_setup(lib, W.TOY, 0, None)
    g = inputs["grid"]
    kick = lib.fields.gradient(g, np.exp(-g.k_sq)).coeffs  # not solenoidal

    def corrupt(how):
        op = W.picard_ops("ns")(lib, inputs)[0]
        solve = op.run

        def run_corrupted(state):
            traj = solve(state)
            traj.coeffs[2] = how(traj.coeffs[2])
            return traj

        op.run = run_corrupted
        return run.run_pass([op], log=io.StringIO())

    for label, how in (("non-solenoidal node", lambda c: c + 1e-3 * kick),
                       ("scaled node", lambda c: 1.001 * c)):
        _, attempted, problems, _ = corrupt(how)
        expect(attempted == 1 and len(problems) == 1,
               f"corrupted trajectory ({label}) counts as one failed operation: {problems}")


def check_missing_library():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ns-picard-64",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and '"metrics"' not in out.stdout,
           f"without src/ the benchmark exits {out.returncode} and prints no result")


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    lib = run.load_library()
    results = {0: {}, 1: {}}
    for trace in (0, 1):
        for name in W.WORKLOADS:
            r = run.measure(name, 0, 0.5, trace, sizes=W.TOY, references={})
            results[trace][name] = r
            expect(r["correct"] and r["failed"] == 0, f"{name} trace {trace}: no failed operation {r['problems']}")
    expect({w["name"] for w in spec["workloads"]} == set(W.WORKLOADS), "BENCHMARK.json names the three workloads")
    check_metric_names(spec, results)
    check_counts(lib, results)
    check_self_times(results)
    check_corruption(lib)
    check_missing_library()
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
