"""The benchmark's ops, run in this process through ``cli.main`` and checked.

``perfbench/workloads.py`` is imported as it stands: each op must exit 0 and
pass the workload's own check of its report, so an op that the benchmark
would count as failed fails here first.
"""

import json
import pathlib
import runpy

import numpy as np
import pytest

from biharm.cli import EXIT_OK, main

WORKLOADS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_ops_pass_their_checks(tmp_path, name, seed):
    # the first pass of a run with this seed draws its inputs from this generator
    ops = WORKLOADS[name](np.random.default_rng([seed, 0]), str(tmp_path))
    for op in ops:
        out = tmp_path / op.name
        assert main(op.argv + ["--out-dir", str(out)]) == EXIT_OK, op.argv
        reason = op.check(json.loads((out / op.report).read_text()))
        assert reason is None, f"{op.name} {op.argv}: {reason}"
