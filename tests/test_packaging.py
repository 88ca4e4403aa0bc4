"""Start-up of the package and the narrative demos, each in a fresh process,
and the package names the benchmark tracer wraps and what it counts."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def test_import_loads_no_scipy():
    # scipy costs most of a second to import; the package must not need it.
    proc = _run(["-c", "import sys, barrierkets; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] == 'scipy'))"], 120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", [
    "01_scattering_coefficients.py",
    "02_eigenfunctions.py",
    "03_wave_packets.py",
    "04_expansion_round_trip.py",
    "05_identity_checks.py",
    "06_spectral_probabilities.py",
])
def test_demo_runs(demo):
    proc = _run([str(ROOT / "demos" / demo)], 300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_traced_functions_resolve():
    # bench/tracer.py wraps each function it lists by name; a renamed or
    # removed one would otherwise break only the traced benchmark runs.
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, functions in tracer.LAYERS.items():
        module = importlib.import_module(f"barrierkets.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), \
                f"barrierkets.{layer}.{name}"


def test_tracer_wraps_both_shapes():
    # The batch names are aliases, so the tracer's wrapper of the one
    # function serves both names and must count the columns of an (n, B)
    # integrand.  Equal columns converge on the scalar call's panels, so
    # the batched call samples as many nodes, twice over.
    code = """
import importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
import barrierkets as bk
q = bk.QuadratureSpec()
bk.integrate_line(lambda x: np.exp(-x * x) + 0j, q, lo=-3.0, hi=3.0)
bk.integrate_line_batch(lambda x: np.exp(-np.outer(x * x, [1.0, 1.0])) + 0j,
                        q, lo=-3.0, hi=3.0)
c = t.counts
print(c["quadrature.calls"], c["quadrature.nodes"], c["quadrature.node_columns"])
"""
    proc = _run(["-c", code, str(ROOT / "bench" / "tracer.py")], 120)
    assert proc.returncode == 0, proc.stderr
    calls, nodes, node_columns = map(float, proc.stdout.split())
    assert calls == 2 and nodes > 0
    assert node_columns == 1.5 * nodes
