"""One process of the benchmark, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {warm,setup,measure,trace} --workdir DIR --result FILE

warm     imports cubelab and runs one eigh, so that later processes find
         the shared libraries in the page cache; writes no result.
setup    runs the workload's first op and records when it ended.
measure  runs the first op, the warm-up rounds, then whole rounds until
         --seconds have passed, timing each op with tracing off; then
         reads the process's peak RSS and makes the once-per-run check.
trace    like measure, but spends half of --seconds untraced and half
         traced, and writes the spans with the result.

run.py sets PYTHONPATH to the checkout's src/ and caps the BLAS threads.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata


def fingerprint():
    import numpy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs ops, times them, checks them and keeps the tally."""

    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.tracer = None
        self.marks = []

    def run(self, op):
        """Time one op (tracing if a tracer is active); returns seconds."""
        if op.prepare is not None:
            op.prepare()
        tracer = self.tracer
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing op is counted, and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer:
            tracer.active = False
            self.marks.append([start, end, first, len(tracer.spans)])
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a check that cannot read the output fails the op
                error = f"check: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.errors.append(error)
        return end - start

    def rounds(self, workload, seconds):
        """Whole rounds until `seconds` have passed; op and round times."""
        op_s, round_s = [], []
        start = time.perf_counter()
        while True:
            times = [self.run(op) for op in workload.round_ops()]
            op_s.extend(times)
            round_s.append(sum(times))
            if time.perf_counter() - start >= seconds:
                return op_s, round_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["warm", "setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    args = parser.parse_args()

    import cubelab

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cubelab.__file__).startswith(src + os.sep):
        sys.exit(f"cubelab was imported from {cubelab.__file__}, not from {src}")
    if args.mode == "warm":
        import numpy as np

        a = np.random.default_rng(0).standard_normal((512, 512))
        np.linalg.eigh(a + a.T)
        return

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner()
    runner.run(workload.first_op())
    result = {"first_op_end": time.monotonic()}
    if args.mode != "setup":
        for _ in range(workload.warmup_rounds):
            for op in workload.round_ops():
                runner.run(op)
        if args.mode == "measure":
            result["op_s"], result["round_s"] = runner.rounds(workload, args.seconds)
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            import tracer

            _, result["untraced_round_s"] = runner.rounds(workload, args.seconds / 2)
            runner.tracer = tracer.Tracer()
            runner.tracer.install()
            _, result["traced_round_s"] = runner.rounds(workload, args.seconds / 2)
            result["spans"], result["ops"] = runner.tracer.spans, runner.marks
        error = workload.final_check()
        result["problems"] = [] if error is None else [f"final check: {error}"]
        result["env"] = fingerprint()
    result["attempted"], result["errors"] = runner.attempted, runner.errors
    result["digest"] = workload.digest
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
