"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/spread.py --workload ns-picard-64 --seeds 0-9 [--trace 0]

Each run is a fresh ``bench/run.py`` process, one after another.  For every
metric the summary gives the run count, median, quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, next to the metric's bound from BENCHMARK.json.  The
summary is printed and written to ``.bench_out/spread-<workload>-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs, bounds):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "runs": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                           if k in bounds or not args.trace)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {values}", flush=True)

    summary = summarise(runs, bounds)
    for name, s in summary.items():
        if args.trace and name not in ("trace.wall_s", "trace_overhead_frac"):
            continue
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: runs={s['runs']} median={s['median']:.6g} {s['unit']} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread} bound={s['bound']}")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"operations failed: {failed} of {attempted}")
    path = run.OUT / f"spread-{args.workload}-trace{args.trace}.json"
    run.OUT.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seeds": args.seeds, "failed": failed,
                   "attempted": attempted, "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
