"""The desk-scale numbers that the acceptance suite pins in ``desk_reference.json``.

The file holds what acceptance criteria 2, 3 and 8-10 measure: each judge's
criterion values and curves, the node L2 norms of the five desk trajectories,
C_l and the semigroup gap curves.  ``assert_pinned`` compares a section with
it to 1e-12 of the largest value of each entry, which leaves room for a numpy
or scipy whose kernels round differently.  Run as a script, this module
rewrites the file from ``mildns.experiments`` (five 64^3 solves, the 128^3
linear part and the 256^3 gaps; about half a minute on two cores):

    PYTHONPATH=src python tests/desk_reference.py

Rewrite it only in a change that moves results on purpose, and list the
numbers that moved in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from mildns import experiments
from mildns.cli import DEFAULTS

PATH = Path(__file__).with_name("desk_reference.json")
# criterion 3 also runs l = 6, which the CLI leaves out
GAP_CONFIG = {**DEFAULTS["kernels"], "gap_ells": "2,3,4,6"}


def acceptance_desk():
    """The CLI's grid and data on its time grid plus t = 1 and 4, the
    rescaling pair of criterion 7."""
    # every solver section of DEFAULTS has the same grid, times and data
    g, times, u0 = experiments.desk_setup(DEFAULTS["stability"])
    return g, np.unique(np.concatenate([times, [1.0, 4.0]])), u0


def node_norms(traj) -> list:
    return [traj.node_l2(m) for m in range(len(traj.times))]


def numbers(judged) -> dict:
    """A judgement's criterion values by name and its curves by CSV name."""
    values = {c.name: c.value for c in judged.criteria if c.value is not None}
    return {"criteria": values, **{csv: c.values.tolist() for csv, c in judged.curves.items()}}


def gap_numbers(criteria: dict, rows: list) -> dict:
    """``experiments.semigroup_gap``'s criterion values and its curve for each l."""
    curves = {f"ell={ell:g}": [v for e, _, v in rows if e == ell] for ell in criteria}
    return {"criteria": {c.name: c.value for c in criteria.values()}, **curves}


def assert_pinned(section: str, entries: dict):
    """Each entry matches the reference to 1e-12 of the entry's largest value."""
    ref = json.loads(PATH.read_text())[section]
    assert list(entries) == list(ref), f"{section}: entries {list(entries)}, pinned {list(ref)}"
    for key, got in entries.items():
        pinned = ref[key]
        if isinstance(got, dict):
            assert list(got) == list(pinned), f"{section} {key}: {list(got)}, pinned {list(pinned)}"
            got, pinned = list(got.values()), list(pinned.values())
        got, pinned = np.asarray(got, dtype=float), np.asarray(pinned, dtype=float)
        assert got.shape == pinned.shape, f"{section} {key}: {got.size} values, pinned {pinned.size}"
        moved = np.abs(got - pinned).max() / np.abs(pinned).max()
        assert moved <= 1e-12, f"{section} {key}: moved by {moved:.1e} of its largest value"


def main():
    g, times, u0 = acceptance_desk()
    ref, ns = {}, None
    for name in ("stability", "mollified", "hyper"):
        declared = experiments.solves(name, DEFAULTS[name], g, u0)
        if ns is not None:  # every solver experiment declares the same ns trajectory
            del declared["ns"]
        solved = experiments.solve_declared(declared, times)
        ref.update({f"trajectory {key}": {"node_l2": node_norms(t)} for key, t in solved.items()})
        ns = solved.get("ns", ns)
        ref[name] = numbers(getattr(experiments, name)(DEFAULTS[name], {"ns": ns, **solved}))
        del solved  # hold ns and one experiment's other trajectories at a time
    ref["hyper_linear_part"] = numbers(experiments.hyper_linear_part(DEFAULTS["hyper"]))
    criteria, _ = experiments.kernel_constants(DEFAULTS["kernels"])
    ref["kernel_constants"] = numbers(experiments.Judgement(criteria))
    ref["semigroup_gap"] = gap_numbers(*experiments.semigroup_gap(GAP_CONFIG)[:2])
    PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
