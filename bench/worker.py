"""Run one workload in a process of its own; print its measurements as JSON.

    python3 bench/worker.py --workload NAME --seed N (--seconds S | --ops N)
                            [--trace 0|1] [--spans PATH]

A closed loop with one client: operation i + 1 starts when operation i has
finished and been checked.  With --seconds the loop starts operations until
their summed time reaches S (see Loop); with --ops it runs exactly N, which
makes the traced counts repeat exactly for a fixed seed.  Checks run outside
the timed region.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
from workloads import CENSUS, WORKLOADS, cli_command  # noqa: E402


# peak_rss_mb covers the first operations only, which are the same for a
# given seed however many operations a run fits: memory grows as caches
# fill, and a faster program would otherwise read as a larger one.
RSS_OPS = 3


class ExitNonZero(Exception):
    """A command-line request exited with a non-zero status."""


class Loop:
    """Counts and timings of one closed-loop run.

    A timed run starts operations until their summed time reaches
    --seconds, and then until the count is a whole number of the
    workload's periods, so that the latency sample always holds the same
    mix of operation kinds.
    """

    def __init__(self, seconds, ops, period=1):
        self.seconds = seconds
        self.ops = ops
        self.period = period
        self.attempted = 0
        self.failed = Counter()
        self.wrong = 0
        self.latencies = []
        self.busy_s = 0.0
        self.cpu_s = 0.0
        self.ratio_max = 0.0
        self.timeline = []

    def more(self):
        if self.ops is not None:
            return self.attempted < self.ops
        return self.busy_s < self.seconds or self.attempted % self.period

    def record(self, elapsed, cpu, error=None, ratio=None):
        self.timeline.append((self.busy_s, elapsed, cpu))
        self.attempted += 1
        self.busy_s += elapsed
        self.cpu_s += cpu
        # A user waits for an error as long as for an answer, so failed
        # operations keep their latency; they are also counted apart.
        self.latencies.append(elapsed)
        if error is not None:
            self.failed[type(error).__name__] += 1
        elif not ratio <= 1.0:
            self.wrong += 1
        else:
            self.ratio_max = max(self.ratio_max, ratio)

    def window(self):
        """(operations, seconds, CPU seconds) inside the measured window.

        The window is the first --seconds of operation time.  The operation
        that straddles its end counts for the share of it inside, and the
        operations after it, which only complete a period, not at all.
        Counting whole operations would make the rate jump with how far a
        long last operation overran.
        """
        if self.ops is not None:
            return self.attempted, self.busy_s, self.cpu_s
        ops = cpu_s = 0.0
        for start, elapsed, cpu in self.timeline:
            share = min(1.0, max(0.0, (self.seconds - start) / elapsed))
            ops += share
            cpu_s += share * cpu
        return ops, self.seconds, cpu_s

    def result(self):
        ops, seconds, cpu = self.window()
        return {"attempted": self.attempted,
                "window_ops": ops,
                "window_s": seconds,
                "window_cpu_s": cpu,
                "failed": sum(self.failed.values()),
                "failures": dict(self.failed),
                "wrong": self.wrong,
                "latencies": self.latencies,
                "busy_s": self.busy_s,
                "residual_ratio_max": self.ratio_max}


def run_in_process(workload, loop, trace, spans_path):
    import barrierkets as bk

    # Untimed warm-up: the matching cache lives as long as the session, so
    # without it the first timed operations would pay for filling it.
    workload.warm_up(bk)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    i = 0
    while loop.more():
        inp = workload.inputs(i)
        if tracer is not None:
            tracer.op = i
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workload.run(bk, inp)
            error = None
        except Exception as exc:  # counted as a failed operation
            error = exc
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.op = None
        ratio = None if error is not None else workload.check(inp, out)
        loop.record(elapsed, cpu, error, ratio)
        if loop.attempted <= RSS_OPS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        i += 1
    result = loop.result()
    result["peak_rss_mb"] = peak_kb / 1024.0
    if tracer is not None:
        tracer.dump(spans_path)
        result["layers"] = tracing.layer_metrics(tracer.totals())
        result["layers"].update({"cli.process_s": 0.0, "cli.main_s": 0.0,
                                 "cli.exit_nonzero": 0})
    return result


def run_cli(workload, loop, trace, spans_path):
    command = cli_command(ROOT, trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    scratch = tempfile.mkdtemp(prefix="cli-", dir=os.path.dirname(spans_path))
    totals, dumps, rss_mb, main_s = [], [], [], 0.0
    try:
        i = 0
        while loop.more():
            inp = workload.inputs(i)
            trace_file = os.path.join(scratch, f"{i}.json")
            if trace:
                env["BENCH_TRACE_FILE"] = trace_file
                env["BENCH_TRACE_OP"] = str(i)
            t0 = time.perf_counter()
            code, stdout, stderr, usage = workload.run(command, env, inp,
                                                       scratch)
            elapsed = time.perf_counter() - t0
            rss_mb.append(usage.ru_maxrss / 1024.0)
            error, ratio = None, None
            if code != 0:
                error = ExitNonZero(f"exit {code}: {stderr.strip()[-200:]}")
            else:
                try:
                    ratio = workload.check(inp, stdout)
                except (ValueError, KeyError, IndexError, TypeError):
                    ratio = math.inf  # output that does not parse is wrong
            loop.record(elapsed, usage.ru_utime + usage.ru_stime, error, ratio)
            if trace and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    dump = json.load(fh)
                totals.append(dump["totals"])
                main_s += dump["totals"].get("excl_s.cli.main", 0.0)
                dumps.append(dump)
            i += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = loop.result()
    # The largest request varies with the drawn packets; the mean of the
    # requests' own peaks follows what a query costs in memory.  One
    # rotation of request kinds, so that the mean is over the same kinds
    # whatever the number of requests a run fits.
    result["peak_rss_mb"] = statistics.fmean(rss_mb[:len(workload.ROTATION)])
    if trace:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"requests": dumps}, fh)
        layers = tracing.layer_metrics(tracing.merge(totals))
        n = max(loop.attempted, 1)
        layers.update({"cli.process_s": loop.busy_s / n,
                       "cli.main_s": main_s / n,
                       "cli.exit_nonzero": sum(loop.failed.values())})
        result["layers"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(CENSUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=os.path.join(ROOT, ".bench_run",
                                                        "spans.json"))
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        parser.error("give exactly one of --seconds and --ops")
    os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
    workload = {**WORKLOADS, **CENSUS}[args.workload](args.seed)
    loop = Loop(args.seconds, args.ops, workload.PERIOD)
    runner = run_in_process if workload.in_process else run_cli
    result = runner(workload, loop, args.trace, os.path.abspath(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
