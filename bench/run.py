"""Run one benchmark workload of the mildns library and print its metrics.

    python3 bench/run.py --workload ns-picard-64 --seed 0 --seconds 30 --trace 0

Run from the root of a source tree: the library is imported from ``src/``
of the tree that holds this file, never from an installed copy.  The
process sets up the workload's seeded inputs several times (``setup_s`` is
the import time plus the median set-up), then repeats passes over the
workload's timed operations until the next pass would overrun
``--seconds`` (at least one pass), checking every operation after its pass.

With ``--trace 0`` it reports the end-to-end metrics ``wall_s`` (median
pass time), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it runs
one traced pass and then one untraced pass on the same inputs and reports
the per-layer metrics of the traced pass plus ``trace_overhead_frac``.
Every run prints ``error_rate`` in its summary; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with provenance, and the spans of a traced run,
go to ``.bench_out/`` in the tree.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MODULES = ("grid", "fields", "solver", "kernels", "norms", "exact", "snapshots")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads as W  # noqa: E402


class MissingLibrary(RuntimeError):
    """The tree has no mildns sources under src/."""


def load_library():
    """Import the mildns modules from ``src/`` of this tree and nowhere else."""
    src = ROOT / "src"
    if not (src / "mildns" / "__init__.py").is_file():
        raise MissingLibrary(f"no mildns sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"mildns.{name}") for name in MODULES}
    where = Path(mods["grid"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise MissingLibrary(f"mildns was imported from {where}, not from {src}")
    return SimpleNamespace(**mods)


def unit_of(name):
    if name in ("trace_overhead_frac", "error_rate"):
        return "fraction"
    if name in ("solver.evals_per_node", "solver.contraction_ratio"):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def run_pass(ops, tracer=None, pass_id=0, log=sys.stderr):
    """Time every operation, then check it.

    Returns (wall_s, attempted, problems, state) where state maps each
    operation that ran to its result.  An operation fails when it raises
    or its check reports a problem; each failure appears once in
    ``problems`` as ``(op name, message)``.
    """
    state, wall, problems = {}, 0.0, []
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                state[op.name] = op.run(state)
            else:
                with tracer.recording("bench.op", f"{pass_id}:{op.name}"):
                    state[op.name] = op.run(state)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=log)
            problems.append((op.name, f"raised {type(exc).__name__}: {exc}"))
        finally:
            wall += time.perf_counter() - start
    failed_ops = {name for name, _ in problems}
    for op in ops:
        if op.name in failed_ops:
            continue
        try:
            found = op.check(state[op.name], state)
            if op.reference is not None:
                found += W.compare(op.observe(state[op.name]), op.reference, op.rtol)
        except Exception as exc:
            traceback.print_exc(file=log)
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems.append((op.name, "; ".join(found)))
    return wall, len(ops), problems, state


def attach_references(ops, sizes, seed, references):
    """Set op.reference where a committed value applies to this size and seed."""
    for op in ops:
        if sizes.full and op.observe is not None and (not op.seeded or seed == W.DEFAULT_SEED):
            op.reference = references.get(op.name)
    return ops


def git_commit():
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(lib, seed, passes):
    import numpy
    import scipy

    workers = lib.grid._FFT_WORKERS
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "run_count": passes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "fft_workers": workers,
        "fft_workers_effective": os.cpu_count() if workers == -1 else workers,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure(workload, seed, seconds, trace, sizes=W.FULL, references=None):
    """Run one workload; returns the result dict (metrics, counts, provenance)."""
    lib = load_library()
    import_s = time.perf_counter() - T0
    if references is None:
        with open(HERE / "reference.json") as fh:
            references = json.load(fh).get(workload, {})
    spec = W.WORKLOADS[workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(tracing.trace_targets(lib)) if trace else None
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            if tracer is None:
                inputs = spec.setup(lib, sizes, seed, str(workdir))
            else:
                with tracer.recording("bench.setup", "setup"):
                    inputs = spec.setup(lib, sizes, seed, str(workdir))
            setups.append(time.perf_counter() - start)

        def ops():
            return attach_references(spec.ops(lib, inputs), sizes, seed, references)

        # traced: the traced pass first, so that it pays the library's one-time
        # caches as an untraced single-pass run does, then an untraced pass on
        # the same inputs as the reference for trace_overhead_frac
        plan = [tracer, None] if trace else None
        walls, attempted, problems = [], 0, []
        started = time.perf_counter()
        while True:
            pass_tracer = plan[len(walls)] if trace else None
            wall, n_ops, found, _ = run_pass(ops(), pass_tracer, len(walls))
            walls.append(wall)
            attempted += n_ops
            problems += found
            if trace:
                if len(walls) == len(plan):
                    break
            elif time.perf_counter() - started + wall > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(problems)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.wall_s"] = walls[0]
        metrics["trace_overhead_frac"] = walls[0] / walls[1] - 1.0
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    return {
        "workload": workload,
        "trace": int(bool(trace)),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "pass_walls_s": walls,
        "setup_walls_s": setups,
        "import_s": import_s,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "provenance": provenance(lib, seed, len(walls)),
        "spans": tracer.spans if tracer else None,
    }


def write_result(result, seed):
    stem = f"{result['workload']}-seed{seed}-trace{result['trace']}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if spans is not None:
        path = results / f"{stem}.spans.jsonl"
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
        result["spans_file"] = str(path.relative_to(ROOT))
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return results / f"{stem}.json"


def print_report(result):
    """Failures, then every metric by name with its unit, and the error rate."""
    for name, op_problem in result["problems"]:
        print(f"FAILED {name}: {op_problem}")
    prov = result["provenance"]
    print(f"workload {result['workload']} seed {prov['seed']} trace {result['trace']}: "
          f"{result['attempted']} operations over {prov['run_count']} pass(es)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if "error_rate" not in result["metrics"]:
        print(f"  error_rate = {result['error_rate']!r} fraction")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (MissingLibrary, W.InputError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_result(result, args.seed)
    print_report(result)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
