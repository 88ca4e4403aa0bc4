"""Measure a baseline: ten seeds per workload plus one traced run each.

    python3 bench/baseline.py [--out bench/baseline.json]

For every workload and seed it runs `bench/run.py --trace 0` with
BENCHMARK.json's run_seconds, then reports each end-to-end metric's median
and its spread: the distance between the first and third quartile, as a
share of the median.  One `--trace 1` run per workload, on the first seed,
gives the per-layer figures and the tracing overhead.  A census then
runs the inputs and settings the timed workloads leave out because
today's code fails on them (workloads.CENSUS), and records how many
operations fail.  Runs one at a time; at the commit that added it, on a
2-core machine, it takes about 30 minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = range(1, 11)
# Operations per census run: two blocks of twelve, ten rotations of ten.
CENSUS_OPS = {"spectral_roundtrip_default_budget": 24, "cli_near_barrier": 100}


def _run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    printed = {}
    for line in lines[1:-1]:
        name, value, _unit = line.split()
        printed[name] = float(value)
    return lines[0].lstrip("# "), printed, json.loads(lines[-1])


def census(workload):
    """Failures of today's code where the timed workloads do not go."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(SEEDS[0]),
               "--ops", str(CENSUS_OPS[workload]),
               "--spans", os.path.join(ROOT, ".bench_run", "census.json")]
    proc = subprocess.run(command, cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, res["attempted"], res["failures"], flush=True)
    return {"seed": SEEDS[0], "attempted": res["attempted"],
            "failed": res["failed"], "failures": res["failures"],
            "wrong": res["wrong"]}


def environment():
    probe = ("import numpy, scipy; print(numpy.__version__, scipy.__version__)")
    versions = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True).stdout.split()
    return {"python": platform.python_version(), "numpy": versions[0],
            "scipy": versions[1], "nproc": os.cpu_count(),
            "thread_cap": run.THREAD_CAP, "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = list(SEEDS)
    report = {"environment": environment(), "seeds": seeds,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, runs = {}, []
        for seed in seeds:
            note, printed, result = _run(workload, seed,
                                         spec["run_seconds"], 0)
            runs.append({"seed": seed, "note": note,
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "correct": result["correct"],
                         "wrong_fraction": printed["wrong_fraction"],
                         "residual_ratio_max": printed["residual_ratio_max"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            end_to_end[name] = {"median": median, "spread": (q3 - q1) / median,
                                "values": vals}
        note, _, traced = _run(workload, seeds[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "runs": runs,
            "failed_fraction": (sum(r["failed"] for r in runs)
                                / sum(r["attempted"] for r in runs)),
            "end_to_end": end_to_end,
            "traced": {"seed": seeds[0], "note": note,
                       "metrics": {k: v["value"]
                                   for k, v in traced["metrics"].items()}},
        }
        print(json.dumps({k: (v["median"], round(v["spread"], 3))
                          for k, v in end_to_end.items()}), flush=True)
    report["census"] = {name: census(name) for name in CENSUS_OPS}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
