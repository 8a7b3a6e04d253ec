"""cubelab benchmark: times the library from outside, workload by workload.

    python3 perfbench/run.py [--workload verify-default|build-export|cli-small|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it benchmarks the checkout it sits in (`src/` next
to this directory).  Each workload runs in fresh interpreters with BLAS
threads capped at the number of usable CPUs, an empty OEIS cache and a
scratch directory inside the checkout that is deleted afterwards.

With --trace 0 it prints the end-to-end metrics (wall_s, op_ms_p50,
op_ms_p90, setup_s, peak_rss_mb, and error_rate on its own line); with
--trace 1 the per-layer metrics of a traced run.  Each metric line states
its unit and sample count, an `env` line gives the numeric environment
and the seed, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 when
every process ran, even if an op failed (then "correct" is false), and
nonzero, without that line, when the checkout cannot be benchmarked.
See NOTES.md for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "build-export", "cli-small")
# fresh interpreters whose first op gives a set-up sample (median reported)
SETUP_SAMPLES = 3
# each run, all its processes included, must end well inside 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _worker(env, deadline, workload, seed, seconds, mode, workdir):
    result = workdir / f"{mode}-{time.monotonic_ns()}.json"
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--workdir", str(workdir),
        "--result", str(result),
    ]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process did not finish in time") from None
    if done.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with status {done.returncode}")
    if mode == "warm":
        return None
    data = json.loads(result.read_text())
    data["setup_s"] = data["first_op_end"] - spawned
    return data


def _environment(workdir):
    nproc = str(len(os.sched_getaffinity(0)))
    cache = workdir / "oeis-cache"
    cache.mkdir()
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=nproc,
        OMP_NUM_THREADS=nproc,
        MKL_NUM_THREADS=nproc,
        CUBELAB_OEIS_CACHE=str(cache),
    )
    return env


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload in fresh processes; returns (lines, metrics,
    attempted ops, failed ops, problems), where problems are failures of
    a once-per-run check."""
    workdir = ROOT / ".perfbench-tmp" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = _environment(workdir)
        _worker(env, deadline, workload, seed, seconds, "warm", workdir)
        if trace:
            runs = [_worker(env, deadline, workload, seed, seconds, "trace", workdir)]
        else:
            runs = [
                _worker(env, deadline, workload, seed, seconds, "setup", workdir)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            runs.append(_worker(env, deadline, workload, seed, seconds, "measure", workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    measured = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    problems = list(measured["problems"])
    if len({json.dumps(r["digest"]) for r in runs}) > 1:
        problems.append("processes of the same seed wrote different outputs")
    lines = [f"env {json.dumps({**measured['env'], 'seed': seed}, sort_keys=True)}"]
    metrics = {}

    def put(name, value, unit, note):
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"{name} = {shown} {unit} ({note})")

    if trace:
        import tracer

        rounds = len(measured["traced_round_s"])
        layer, accounting, tracer_problems = tracer.aggregate(
            measured["spans"], measured["ops"], rounds
        )
        problems.extend(f"tracer: {p}" for p in tracer_problems)
        for name, (value, unit) in layer.items():
            put(name, value, unit, f"per round, {rounds} traced rounds")
        ratio = statistics.median(measured["traced_round_s"]) / statistics.median(
            measured["untraced_round_s"]
        )
        put(
            "trace.overhead_ratio", ratio, "ratio",
            f"median traced round / median untraced round, "
            f"{rounds} and {len(measured['untraced_round_s'])} rounds",
        )
        lines.append(
            f"trace accounting: layer self {accounting['self_s']:.6f} s + harness "
            f"{accounting['harness_s']:.6f} s = traced ops {accounting['op_s']:.6f} s"
        )
    else:
        op_s = measured["op_s"]
        p90 = statistics.quantiles(op_s, n=10, method="inclusive")[8] if len(op_s) > 1 else op_s[0]
        beyond = sum(t > p90 for t in op_s)
        put("wall_s", statistics.median(op_s), "s", f"median of {len(op_s)} ops")
        put("op_ms_p50", 1000 * statistics.median(op_s), "ms", f"median of {len(op_s)} ops")
        put("op_ms_p90", 1000 * p90, "ms", f"{len(op_s)} ops, {beyond} beyond p90")
        setups = [r["setup_s"] for r in runs]
        put("setup_s", statistics.median(setups), "s",
            f"median of {len(setups)} fresh interpreters")
        put("peak_rss_mb", measured["peak_rss_kb"] / 1024, "MB",
            "ru_maxrss of the measured process")
    lines.append(
        f"error_rate = {len(errors) / attempted:.6g} ({len(errors)} of {attempted} ops failed)"
    )
    lines.extend(f"error: {e}" for e in (problems + errors)[:20])
    return lines, metrics, attempted, len(errors), problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubelab" / "__init__.py").is_file():
        print(f"error: no cubelab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for name in names:
            lines, got, n_attempted, n_failed, n_problems = run_workload(
                name, args.seed, args.seconds, args.trace, deadline
            )
            for line in lines:
                print(f"[{name}] {line}")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += n_attempted
            failed += n_failed
            problems += n_problems
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and not problems
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
