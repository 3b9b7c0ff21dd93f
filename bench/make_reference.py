"""Regenerate bench/reference.json: the checked values at the default seed.

    python3 bench/make_reference.py

Runs every operation of every workload once at full size and records what
each operation's ``observe`` returns.  Every operation must pass its own
check first.  Regenerate only when a change is meant to alter results.
"""

import json
import shutil
import sys

import run
import workloads as W


def main():
    lib = run.load_library()
    workdir = run.OUT / "work-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {"seed": W.DEFAULT_SEED}
    try:
        for name, spec in W.WORKLOADS.items():
            inputs = spec.setup(lib, W.FULL, W.DEFAULT_SEED, str(workdir))
            ops = spec.ops(lib, inputs)
            wall, attempted, problems, state = run.run_pass(ops)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            refs[name] = {
                op.name: [float(v) for v in op.observe(state[op.name])]
                for op in ops if op.observe is not None
            }
            print(f"{name}: {attempted} operations, {wall:.1f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
