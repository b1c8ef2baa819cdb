"""The benchmark's full solves match its recorded reference outputs.

Each workload of ``perfbench/workloads.py`` runs once, set-up and solve, and
its outputs go through the benchmark's own ``check`` against
``perfbench/reference.json``, so a change that moves a benchmark output fails
here and not first in a timed run.  Neither file is modified.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["outputs"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_solve_matches_the_reference(name):
    wl = workloads.WORKLOADS[name]
    outputs = workloads.solve(wl, workloads.setup(wl, seed=1))
    assert workloads.check(wl, outputs, REFERENCE[name]) == []
