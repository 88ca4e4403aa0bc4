"""Start-up of the package and the narrative demos, each in a fresh process,
and the package names the benchmark tracer wraps."""

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
