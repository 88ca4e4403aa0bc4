"""Smoke run of the benchmark: every workload, the traced run, the refusal.

    python3 -m pytest -q bench

Takes about a minute on two cores.  Each workload runs one traced
operation through the worker; operator_algebra runs twice to confirm
that the traced counts repeat for a fixed seed; the command-line workload
also goes through run.py end to end.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import CENSUS, WORKLOADS  # noqa: E402

# Counts that depend only on the inputs, never on timing.
DETERMINISTIC = ("scattering.calls", "scattering.distinct_energies",
                 "eigenbasis.points", "testspace.apply_calls",
                 "testspace.terms_out_sum", "testspace.evaluate_term_points",
                 "quadrature.calls", "quadrature.panels", "quadrature.nodes",
                 "quadrature.node_columns", "transforms.cache_points",
                 "transforms.piece_evals")


def _worker(workload, tmp_path, trace=1, ops=1, seed=3):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--ops", str(ops),
               "--trace", str(trace), "--spans", str(tmp_path / "spans.json")]
    proc = subprocess.run(command, env=run.child_env(), capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_operation(workload, tmp_path):
    res = _worker(workload, tmp_path)
    assert res["attempted"] == 1
    assert res["wrong"] == 0
    layers = res["layers"]
    assert set(layers) | {"tracing.overhead_fraction"} == {
        name for name, _ in tracer.PER_LAYER}
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans


def test_traced_counts_repeat(tmp_path):
    first = _worker("operator_algebra", tmp_path)["layers"]
    second = _worker("operator_algebra", tmp_path)["layers"]
    assert first["testspace.apply_calls"] > 0
    assert {k: first[k] for k in DETERMINISTIC} == {
        k: second[k] for k in DETERMINISTIC}


def test_timed_loop_holds_whole_periods():
    loop = worker.Loop(10.0, None, period=4)
    while loop.more():
        loop.record(4.0, 2.0, ratio=0.0)
    # Three operations reach 10 s; the fourth completes the period.
    assert loop.attempted == 4
    # They start at 0, 4, 8 and 12 s: the third has half of itself inside
    # the window, the fourth nothing.
    assert loop.window() == pytest.approx((2.5, 10.0, 5.0))


def test_inputs_follow_the_seed():
    for cls in [*WORKLOADS.values(), *CENSUS.values()]:
        assert cls(5).inputs(7) == cls(5).inputs(7)
        assert cls(5).inputs(7) != cls(6).inputs(7)


def test_run_prints_end_to_end_metrics():
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "cli_cold_queries", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert result["attempted"] >= 1


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "bench/run.py", "--workload",
               "operator_algebra", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
