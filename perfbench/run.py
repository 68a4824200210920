"""Benchmark of the ``ganens`` command line: end-to-end timings or per-layer spans.

    python3 perfbench/run.py --workload fixture-cli --seed 0 --seconds 25 --trace 0

Run from the repository root. With ``--trace 0`` each command runs as its
own ``python -m ganens.cli`` process and the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` one round
runs three times in this process, the middle pass under the tracer, and the
line carries the per-layer metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("GANENS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs operations, as processes or in this process, and keeps the tallies."""

    def __init__(self, work: Path) -> None:
        self.log = work / "command.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures other than the known fault
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, op) -> tuple[float, float]:
        """Run one command as a fresh process; returns (wall seconds, peak RSS in MB)."""
        request = {"argv": [sys.executable, "-m", "ganens.cli", *op.argv],
                   "env": self.env, "log": str(self.log)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        op.exit_code = reply["exit_code"]
        if op.exit_code != 0:
            op.output = self.log.read_text(errors="replace")[-2000:]
        return reply["wall"], reply["maxrss_kb"] / 1024.0

    def in_process(self, op, tracer=None) -> float:
        from ganens import cli

        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.call("cli.main", cli.main, list(op.argv))
        wall = time.perf_counter() - start
        op.exit_code = code
        if code != 0:
            op.output = sink.getvalue()[-2000:]
        return wall

    def verify(self, op) -> None:
        """Count the operation and check its output; the known fault counts as failed only."""
        self.attempted += 1
        problem = None
        if op.exit_code != 0:
            problem = f"exit {op.exit_code}: {op.output}"
        else:
            try:
                op.check()
            except checks.CheckFailed as exc:
                problem = str(exc)
            except Exception:  # a check that crashes is a wrong output, not a pass
                problem = traceback.format_exc(limit=3)
        if problem is None:
            return
        self.failed += 1
        if not (op.known_fault and op.exit_code == 0):
            self.problems.append(f"{op.kind}: {problem}")


def setup(workload, ctx, runner: Runner) -> list[float]:
    """Every set-up repetition, timed; toy commands made here are checked operations."""
    times = []
    for rep in range(workload.setup_reps):
        start = time.perf_counter()
        ops = workload.fabricate(ctx, rep)
        elapsed = time.perf_counter() - start
        for op in ops:
            elapsed += runner.spawn(op)[0]
            runner.verify(op)
        times.append(elapsed)
    return times


def run_round(workload, ctx, runner: Runner, r: int, mode: str, tracer=None) -> dict:
    """All commands of one round, then their checks; returns the round's timings."""
    ops = workload.round_ops(ctx, r)
    figures = {"optimize_s": 0.0, "select_s": 0.0, "peak_rss_mb": 0.0, "evaluations": 0}
    walls: dict[tuple[str, str], list[float]] = {}
    start = time.perf_counter()
    for n, op in enumerate(ops):
        if mode == "spawn":
            wall, rss = runner.spawn(op)
            figures["peak_rss_mb"] = max(figures["peak_rss_mb"], rss)
        else:
            wall = runner.in_process(op, tracer)
        walls.setdefault((op.kind, op.group or str(n)), []).append(wall)
    figures["wall_s"] = time.perf_counter() - start
    figures["commands"] = {f"{kind}:{group}": times for (kind, group), times in walls.items()}
    for (kind, _), times in walls.items():
        if kind in ("optimize", "select"):
            figures[f"{kind}_s"] += statistics.median(times)
    for op in ops:
        runner.verify(op)
        if op.scatter is not None and op.exit_code == 0:
            figures["evaluations"] += len(op.scatter.read_text().strip().split("\n")) - 1
    return figures


def end_to_end(workload, ctx, runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_times = setup(workload, ctx, runner)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, ctx, runner, len(rounds), "spawn"))
        elapsed = time.perf_counter() - start
        # Start another round only if it should end within the run length.
        if elapsed + elapsed / len(rounds) > seconds:
            break
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (med("wall_s"), "s"),
        "optimize_s": (med("optimize_s"), "s"),
        "select_s": (med("select_s"), "s"),
        "evals_per_s": (
            statistics.median(r["evaluations"] / r["optimize_s"] for r in rounds), "1/s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }, {"rounds": rounds, "setup_s": setup_times}


def startup_seconds(runner: Runner, reps: int = 5) -> float:
    """A fresh interpreter importing ``ganens.cli``, median of several."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ganens.cli"], env=runner.env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(workload, ctx, runner: Runner) -> tuple[dict, dict]:
    """One traced round between two untraced ones, all in this process.

    Rounds 0, setup_reps and 2*setup_reps read the same pool into separate
    outputs; the overhead is the traced wall time minus the mean of the two
    untraced ones around it, so a first-round warm-up does not count.
    """
    from tracer import Tracer

    setup(workload, ctx, runner)
    before = run_round(workload, ctx, runner, 0, "in_process")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(workload, ctx, runner, workload.setup_reps, "in_process", tracer)
    finally:
        tracer.uninstall()
    after = run_round(workload, ctx, runner, 2 * workload.setup_reps, "in_process")
    plain = (before["wall_s"] + after["wall_s"]) / 2.0
    metrics = tracer.layer_metrics()
    metrics["cli.startup_s"] = (startup_seconds(runner), "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain, "s")
    return metrics, {"traced_wall_s": traced["wall_s"],
                     "untraced_wall_s": [before["wall_s"], after["wall_s"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ganens" / "cli.py").is_file():
        print(f"error: no ganens sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(work=work, seed=args.seed)
    runner = Runner(work)
    try:
        if args.trace:
            metrics, detail = per_layer(workload, ctx, runner)
        else:
            metrics, detail = end_to_end(workload, ctx, runner, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, detail=detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
