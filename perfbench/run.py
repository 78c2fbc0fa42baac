#!/usr/bin/env python3
"""biharm benchmark: seeded CLI workloads with checked outputs.

From the root of a checkout:

    python3 perfbench/run.py --workload probes --seed 1 --seconds 15 --trace 0

Each op is one `biharm` command in a fresh interpreter (perfbench/child.py),
started one at a time with BLAS/OpenMP threads pinned to 1, under a
wall-clock budget.  A run starts with one set-up-only interpreter, then makes
--seconds // 15 passes of the workload (at least one), drawing the seeded
inputs anew for each pass.  Timings are medians over the passes.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every pass twice on
the same inputs, untraced and traced, fails an op whose traced output is not
byte-identical to the untraced one, and reports the per-layer metrics of the
traced passes and the tracing overhead.  --workload all runs every workload
in turn and prints one table.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails when it exits non-zero, crashes,
exceeds its budget or fails its output check.  `correct` is false when an op
reported success with wrong output, or its traced twin wrote other bytes.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import tracing
from workloads import WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OP_BUDGET_S = 90.0          # one op; the slowest takes about 8 s here
RUN_LIMIT_S = 165.0         # no op may run past this point of a run
# A run makes --seconds // PASS_BUDGET_S passes (at least one; traced passes
# count twice).  The count never depends on the durations the run measures: a
# rule like "another pass if it still fits" reported one slow pass on a slow
# host and the mean of two on a fast one, which widened the spread between runs.
PASS_BUDGET_S = 15.0
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "1")]


@dataclass
class OpResult:
    op: Op
    tag: str                    # op name, with ".traced" on a traced run
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: Optional[float]
    failure: Optional[str]      # None when the op succeeded
    wrong: bool = False         # exited 0 but its output failed the check
    spans: Optional[str] = None


class Runner:
    """Starts the children of one workload run, one at a time."""

    def __init__(self, root: str, work: str, t_start: float):
        self.src = os.path.join(root, "src")
        self.work = work
        self.t_start = t_start
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)

    def _spawn(self, args: list, info: str, log_path: str):
        """Run child.py with args; returns (wall, exit code, rusage, timed out, set-up)."""
        budget = min(OP_BUDGET_S, RUN_LIMIT_S - (time.monotonic() - self.t_start))
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, info, *args], env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], max(budget, 0.0))[0]
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            wall = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        setup = None
        try:
            with open(info) as fh:
                child = json.load(fh)
        except FileNotFoundError:
            pass
        else:
            setup = child["setup_end"] - t0
            if os.path.commonpath([child["biharm"], self.src]) != self.src:
                raise SystemExit(f"error: an op imported biharm from {child['biharm']}")
        timeout = f"timeout after {budget:.0f} s" if timed_out else None
        return wall, code, usage, timeout, setup

    def setup_only(self) -> Optional[float]:
        """Set-up time of one child that imports biharm and exits."""
        info = os.path.join(self.work, f"setup-{time.monotonic_ns()}.info.json")
        return self._spawn(["0"], info, info[:-len(".info.json")] + ".log")[4]

    def run_op(self, op: Op, pass_dir: str, trace: bool) -> OpResult:
        tag = op.name + (".traced" if trace else "")
        out_dir = os.path.join(pass_dir, tag)
        info = os.path.join(pass_dir, tag + ".info.json")
        wall, code, usage, timeout, setup = self._spawn(
            ["1" if trace else "0", *op.argv, "--out-dir", out_dir], info,
            os.path.join(pass_dir, tag + ".log"))
        res = OpResult(op, tag, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, setup, timeout)
        if not timeout and code != 0:
            res.failure = f"exit {code}"
        elif not timeout:
            try:
                with open(os.path.join(out_dir, op.report)) as fh:
                    reason = op.check(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {exc!r}"
            if reason:
                res.failure, res.wrong = reason, True
        spans = info[:-len(".json")] + ".npz"
        res.spans = spans if trace and os.path.exists(spans) else None
        return res

    def run_pass(self, ops: list[Op], pass_dir: str, trace: bool):
        t0 = time.monotonic()
        results = [self.run_op(op, pass_dir, trace) for op in ops]
        return results, time.monotonic() - t0


def _same_tree(a: str, b: str) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    return all(filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
               for f in cmp.common_files)


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner):
    """Passes of one workload; returns (results, metrics, passes)."""
    results, walls, cpus, rsss, layer = [], [], [], [], []
    # A set-up-only child first: it warms the file cache as earlier ops would,
    # and gives one more set-up time.
    setups = [t for t in (runner.setup_only(),) if t is not None]
    passes = max(1, int(seconds // (PASS_BUDGET_S * (2 if trace else 1))))
    for k in range(passes):
        pass_dir = os.path.join(runner.work, f"{name}-{k}")
        os.makedirs(pass_dir)
        ops = WORKLOADS[name](np.random.default_rng([seed % 2**64, k]), pass_dir)
        if trace:
            # Untraced and traced twins on the same inputs, in alternating order.
            order = (False, True) if (seed + k) % 2 == 0 else (True, False)
            runs = {t: runner.run_pass(ops, pass_dir, trace=t) for t in order}
            (plain, wall), (traced, traced_wall) = runs[False], runs[True]
            for a, b in zip(plain, traced):
                if "timeout" not in f"{a.failure}{b.failure}" and not _same_tree(
                        os.path.join(pass_dir, a.tag), os.path.join(pass_dir, b.tag)):
                    b.failure, b.wrong = "traced output differs from untraced", True
            layer.append(tracing.pass_metrics([r.spans for r in traced if r.spans],
                                              traced_wall - wall, wall))
            done = plain + traced
        else:
            plain, wall = runner.run_pass(ops, pass_dir, trace=False)
            done = plain
        results += done
        walls.append(wall)
        cpus.append(sum(r.cpu_s for r in plain))
        rsss.append(max(r.rss_mb for r in plain))
        for r in done:
            _log(f"  {name} pass {k} {r.tag}: {r.wall_s:.2f} s, {r.rss_mb:.0f} MB"
                 + (f"  FAILED: {r.failure}" if r.failure else ""))
            if r.failure and r.failure != "exit 2":
                with open(os.path.join(pass_dir, r.tag + ".log"), "rb") as fh:
                    _log(fh.read()[-2000:].decode(errors="replace"))
    failed = sum(1 for r in results if r.failure)
    if trace:
        metrics = {m: (statistics.median(p[m] for p in layer), unit)
                   for m, unit, _ in tracing.PER_LAYER}
    else:
        setups += [r.setup_s for r in results if r.setup_s is not None]
        if not setups:
            raise SystemExit("error: no op imported biharm")
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": statistics.median(rsss),
                  "ok_frac": (len(results) - failed) / len(results)}
        metrics = {m: (values[m], unit) for m, unit in END_TO_END}
    return results, {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}, passes


def environment() -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: "1" for v in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "biharm", "cli.py")):
        _log(f"error: {ROOT} is not a biharm checkout (no src/biharm/cli.py)")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        _log(f"environment: {json.dumps(environment())}")
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            runner = Runner(ROOT, work, time.monotonic())
            results, metrics, passes = run_workload(name, args.seed, args.seconds,
                                                    bool(args.trace), runner)
            attempted = len(results)
            failed = sum(1 for r in results if r.failure)
            print(f"{name}: {passes} pass(es), {attempted} ops attempted, {failed} failed, "
                  f"fail_frac {failed / attempted:.3f}")
            for m, v in metrics.items():
                print(f"  {m:44s} {v['value']:14.6g} {v['unit']}")
            out["correct"] &= not any(r.wrong for r in results)
            out["attempted"] += attempted
            out["failed"] += failed
            prefix = f"{name}." if len(names) > 1 else ""
            out["metrics"].update({prefix + m: v for m, v in metrics.items()})
        print(json.dumps(out), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
