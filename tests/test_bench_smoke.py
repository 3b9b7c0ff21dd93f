"""Every benchmark workload runs at toy size and passes its own checks.

``run.measure`` works in a temporary directory under ``.bench_out/`` of the
tree and removes it when it returns.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_runs_without_a_failed_operation(name, trace):
    result = run.measure(name, 0, 0.5, trace, sizes=W.TOY, references={})
    assert result["correct"] and result["failed"] == 0, result["problems"]
