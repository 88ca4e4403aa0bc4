"""The barrierkets benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing.  With --trace 0 the run measures set-up
time, then runs the workload for S seconds in a process of its own and
prints the end-to-end metrics.  With --trace 1 it runs a fixed, seeded
list of operations twice, each time in a fresh process, once plain and
once with the tracer installed; it prints the per-layer metrics of the
traced pass and the throughput lost to tracing.  The last line of output
is one JSON object; the lines above it are the same figures for reading.

Every child process gets the numeric-library thread cap below.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_SNIPPET = ("import barrierkets as bk; bk.BarrierModel(); "
                 "bk.QuadratureSpec()")
# Operations in one pass of a traced run, sized to take well under a
# minute per pass on a 2-core machine at the commit that added them.
TRACE_OPS = {"spectral_roundtrip": 2, "operator_algebra": 4,
             "cli_cold_queries": 12}
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)
# Also printed with --trace 0, but left out of the JSON metrics: each can
# read exactly 0, and they follow the inputs rather than the code's speed.
OUTCOMES = (
    ("failed_fraction", "1"),
    ("wrong_fraction", "1"),
    ("residual_ratio_max", "1"),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Cached bytecode, as an installed package has: otherwise every
    # command-line request would compile the package again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def measure_setup(env):
    """Median wall time of a fresh interpreter importing and configuring."""
    command = [sys.executable, "-c", SETUP_SNIPPET]
    # In a fresh checkout the first start also compiles the package's
    # bytecode, which users pay once; the median leaves that start out.
    # No timeout: with one, subprocess waits by polling in steps of up to
    # 50 ms, which would round every start up to that grid.
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(env, workload, seed, trace, seconds=None, ops=None):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace),
               "--spans", os.path.join(ROOT, ".bench_run",
                                       f"spans-{workload}-{seed}.json")]
    command += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    # A session of its own, so that a timeout also stops the command-line
    # processes the worker started.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker for {workload} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker for {workload} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(samples):
    """(percentile, value) of the latency tail, linearly interpolated.

    The highest of p99.9, p99 and p95 with at least ten samples above it;
    below 200 samples none qualifies and p90 is used.  A run holds 3 to 30
    operations, so p90 is the usual case.  Lower percentiles are never
    used: with 20 to 40 samples the rule alone would pick p50, and the
    tail would jump to the median whenever a faster program fits more
    operations into a run.
    """
    xs = sorted(samples)
    n = len(xs)
    q = next((q for q in (99.9, 99.0, 95.0) if n * (1.0 - q / 100.0) >= 10),
             90.0)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def throughput(res):
    """Finished operations per second of the measured window.

    An operation that fails finishes too; failures are counted apart, in
    failed_fraction and in the JSON line's `failed`.
    """
    return res["window_ops"] / res["window_s"]


def end_to_end(res, setup_s):
    q, tail_value = tail(res["latencies"])
    attempted = res["attempted"]
    values = {
        "setup_s": setup_s,
        "throughput_ops_per_s": throughput(res),
        "latency_p50_s": statistics.median(res["latencies"]),
        "latency_tail_s": tail_value,
        "cpu_s_per_op": res["window_cpu_s"] / res["window_ops"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_fraction": res["failed"] / attempted,
        "wrong_fraction": res["wrong"] / attempted,
        "residual_ratio_max": res["residual_ratio_max"],
    }
    notes = (f"latency_tail_s is p{q:g} of {attempted} operations; "
             f"failures {res['failures']}, thread cap {THREAD_CAP}")
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "barrierkets", "__init__.py")):
        sys.stderr.write("bench/run.py must run from a barrierkets source "
                         "checkout: src/barrierkets is missing\n")
        return 2
    env = child_env()
    if args.trace:
        ops = TRACE_OPS[args.workload]
        plain = run_worker(env, args.workload, args.seed, 0, ops=ops)
        traced = run_worker(env, args.workload, args.seed, 1, ops=ops)
        values = dict(traced["layers"])
        # Both passes run the same operations, so the share of the traced
        # pass's time that the plain pass did not need is the throughput
        # lost to tracing.
        values["tracing.overhead_fraction"] = 1.0 - (
            plain["busy_s"] / traced["busy_s"])
        units = dict(tracing.PER_LAYER)
        runs = (plain, traced)
        notes = (f"traced run of {ops} operations; plain pass "
                 f"{plain['busy_s']:.3f} s, traced pass {traced['busy_s']:.3f} s")
        printed = [(name, values[name], units[name]) for name in units]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        setup_s = measure_setup(env)
        res = run_worker(env, args.workload, args.seed, 0, seconds=args.seconds)
        values, notes = end_to_end(res, setup_s)
        runs = (res,)
        printed = [(n, values[n], u) for n, u in END_TO_END + OUTCOMES]
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    print(f"# {args.workload} seed {args.seed}: {notes}")
    for name, value, unit in printed:
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
