"""Tests of the benchmark's tracing (slow: each workload runs one pass twice).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

SOLVERS = [m for m, _, _ in tracing.PER_LAYER if m.startswith("solvers.")]
REARRANGE = [m for m, _, _ in tracing.PER_LAYER if m.startswith("rearrangement.")]
GRID = [m for m, _, _ in tracing.PER_LAYER if m.startswith("grid.")]
STENCIL = [m for m in GRID if m.startswith("grid.laplacian_matrix.")]
SEQUENCES = [m for m, _, _ in tracing.PER_LAYER if m.startswith("sequences.")]
MODEL = [m for m, _, _ in tracing.PER_LAYER if m.startswith("model.")]
EXPRESSIONS = [m for m, _, _ in tracing.PER_LAYER if m.startswith("expressions.")]
RATIO = ["functionals.adams_ratio_search.calls", "functionals.adams_ratio_search.s"]
DIAGNOSTICS = ["diagnostics.classify_growth.calls", "diagnostics.classify_growth.s"]
IO = ["cli.io.s", "cli.io.bytes"]

# Layer metrics that must be non-zero where the layer does work.  No CLI
# command calls functionals.evaluate_all, so it reads 0 on every workload.
WORKS = {
    "ground_state": SOLVERS + REARRANGE + GRID + IO,
    "trapped_gap": SOLVERS + GRID + IO,
    "probes": REARRANGE + STENCIL + SEQUENCES + RATIO + DIAGNOSTICS + IO,
    "user_expr": MODEL + EXPRESSIONS + RATIO + IO,
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH])
    return env


@pytest.mark.parametrize("workload", sorted(WORKS))
def test_traced_run_is_byte_identical_and_covers_layers(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # `correct` is false when a traced op wrote other bytes than its untraced twin.
    assert out["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert sorted(metrics) == sorted(m for m, _, _ in tracing.PER_LAYER)
    zero = [m for m in WORKS[workload] if not metrics[m] > 0]
    assert not zero, f"zero on {workload}: {zero}"


def test_every_binding_of_a_traced_name_is_wrapped():
    script = """
import sys, tracing
originals = [getattr(mod, attr) for mod, attr, _, _ in tracing._targets()]
import biharm.expressions, biharm.model
originals += [biharm.expressions.parse_expression, biharm.model.user_nonlinearity]
tracing.install()
left = [f"{name}.{attr}" for name, mod in sys.modules.items()
        if name == "biharm" or name.startswith("biharm.")
        for attr, val in vars(mod).items() if any(val is o for o in originals)]
assert not left, left
import biharm.solvers as s, biharm.rearrangement as r, biharm.cli as c
assert s.fourier_rearrange is r.fourier_rearrange is c.fourier_rearrange
assert hasattr(s.fourier_rearrange, "__wrapped__")
assert hasattr(s.spla.splu, "__wrapped__")
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
