"""Command-line interface: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import barrierkets
from barrierkets.cli import _COMMANDS, main

COEFFS_HEADER = ("E,k,re_T,im_T,re_Rl,im_Rl,re_Rr,im_Rr,"
                 "abs_T2,abs_Rl2,unitarity_defect")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_coeffs_schema_and_values(capsys):
    code, out, _ = _run(capsys, "coeffs", "--energies", "1,4")
    assert code == 0
    header, rows = _rows(out)
    assert header == COEFFS_HEADER
    assert len(rows) == 2
    e1 = dict(zip(header.split(","), rows[0]))
    assert float(e1["E"]) == 1.0
    assert float(e1["abs_T2"]) == pytest.approx(0.41997434161402607, rel=1e-12)
    assert float(e1["unitarity_defect"]) < 1e-10


def test_coeffs_free_barrier_is_transparent(capsys, tmp_path):
    cfg = tmp_path / "free.json"
    cfg.write_text(json.dumps({
        "model": {"a": 0.0, "b": 1.0, "v0": 0.0, "hbar": 1.0, "mass": 0.5},
        "count": 7,
    }))
    code, out, _ = _run(capsys, "coeffs", "--config", str(cfg))
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 7
    for row in rows:
        assert float(row[8]) == pytest.approx(1.0, abs=1e-12)


def test_coeffs_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, "coeffs", "--emin", "-1")
    assert code == 2
    assert "error" in err


def test_flags_win_over_config(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"e_min": 1.0, "e_max": 2.0, "count": 5}))
    code, out, _ = _run(capsys, "coeffs", "--config", str(cfg),
                        "--count", "3")
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 3
    assert float(rows[0][0]) == 1.0


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"surprise": 1}))
    for command in _COMMANDS:
        code, _, err = _run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert "surprise" in err


@pytest.mark.parametrize("argv, config", [
    (["coeffs"], {"count": "abc"}),
    (["coeffs"], {"energies": "abc"}),
    (["coeffs"], {"e_min": None}),
    (["coeffs"], {"model": {"a": "x"}}),
    (["verify"], {"checks": 5}),
    (["verify"], {"checks": ["commutators"], "tolerance": "x"}),
    (["probe"], {"e_hi": None}),
    (["probe"], {"packet": {"center": "x"}}),
    (["probe"], {"packet": {"width": None}}),
    (["transform"], {"quadrature": {"k_max": "x"}}),
    # Ints beyond float range, which JSON carries.
    (["coeffs", "--energies", "1"], {"model": {"b": 10 ** 400}}),
    (["transform", "--energies", "1"],
     {"packet": {"width": 1.0, "center": 10 ** 400}}),
    (["transform", "--energies", "1", "--center", "-5", "--width", "1"],
     {"quadrature": {"k_max": 10 ** 400}}),
])
def test_malformed_config_values_are_usage_errors(capsys, tmp_path, argv,
                                                  config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, _, err = _run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ")


# Flags for the options whose default is not a config value.
_REQUIRED_FLAGS = {"eigfun": ["--energy", "4"],
                   "verify": ["--checks", "commutators"]}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_config_of_defaults_changes_nothing(capsys, tmp_path, command):
    defaults = {opt.key: opt.default for opt in _COMMANDS[command][2]
                if opt.default is not None}
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(defaults))
    flags = _REQUIRED_FLAGS.get(command, [])
    plain = _run(capsys, command, *flags)
    assert plain[0] == 0
    assert _run(capsys, command, "--config", str(cfg), *flags) == plain


def test_module_entry_point_reports_bad_config_without_traceback(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"count": "abc"}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(barrierkets.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "barrierkets.cli", "coeffs", "--config",
         str(cfg)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_eigfun_schema_and_free_modulus(capsys, tmp_path):
    cfg = tmp_path / "free.json"
    cfg.write_text(json.dumps({"model": {"v0": 0.0}}))
    code, out, _ = _run(capsys, "eigfun", "--config", str(cfg),
                        "--energy", "4", "--xmin", "-3", "--xmax", "3",
                        "--count", "25")
    assert code == 0
    header, rows = _rows(out)
    assert header == "x,re_psi,im_psi,abs2_psi"
    mods = [float(r[3]) for r in rows]
    assert max(mods) - min(mods) < 1e-12


def test_eigfun_interior_decay_and_step_values(capsys):
    code, out, _ = _run(capsys, "eigfun", "--energy", "1",
                        "--channel", "right", "--xmin", "0", "--xmax", "1",
                        "--count", "41")
    assert code == 0
    _, rows = _rows(out)
    mods = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(mods))
    interior = mods[1:-1]
    assert np.all(np.diff(interior) > 0.0)


def test_eigfun_requires_energy(capsys):
    code, _, err = _run(capsys, "eigfun")
    assert code == 2
    assert "energy" in err


def test_transform_schema(capsys):
    code, out, _ = _run(capsys, "transform", "--energies", "1,2",
                        "--center", "-20", "--width", "1")
    assert code == 0
    header, rows = _rows(out)
    assert header == "E,channel,re_amp,im_amp,abs2"
    assert [r[1] for r in rows] == ["left", "right", "left", "right"]
    for row in rows:
        re_a, im_a, a2 = float(row[2]), float(row[3]), float(row[4])
        assert a2 == pytest.approx(re_a**2 + im_a**2, rel=1e-12)


def test_transform_packet_from_config(capsys, tmp_path):
    cfg = tmp_path / "packet.json"
    cfg.write_text(json.dumps({
        "packet": {"center": -20.0, "width": 1.0, "momentum": 3.0},
        "energies": [9.0],
    }))
    code, out, _ = _run(capsys, "transform", "--config", str(cfg))
    assert code == 0
    _, rows = _rows(out)
    left = next(r for r in rows if r[1] == "left")
    assert float(left[4]) > 0.05


def test_packet_config_rejects_wrong_kind(capsys, tmp_path):
    cfg = tmp_path / "packet.json"
    cfg.write_text(json.dumps({"packet": {"kind": "plane", "center": 0.0,
                                          "width": 1.0}}))
    code, _, err = _run(capsys, "probe", "--config", str(cfg))
    assert code == 2
    assert "kind" in err


def test_reconstruct_report(capsys):
    code, out, _ = _run(capsys, "reconstruct", "--center", "-20",
                        "--width", "1", "--probes", "17")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"l2_residual", "max_residual", "probe_points"}
    assert report["probe_points"] == 17
    assert report["max_residual"] < 1e-8


def test_probe_total_probability(capsys):
    code, out, _ = _run(capsys, "probe", "--center", "-20", "--width", "1",
                        "--momentum", "3")
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == pytest.approx(1.0, abs=1e-6)
    assert report["e_hi"] is None
    assert set(report["per_channel"]) == {"left", "right"}


def test_probe_rejects_bad_window(capsys):
    code, _, err = _run(capsys, "probe", "--elo", "5", "--ehi", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("transform", "--kmax", "inf"),
    ("probe", "--tol", "nan"),
    ("transform", "--center", "nan", "--energies", "1,2"),
    ("reconstruct", "--center", "nan"),
    ("transform", "--momentum", "inf"),
])
def test_non_finite_spec_flags_are_usage_errors(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert "must be finite" in err


def test_verify_subset_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--checks",
                        "commutators,non_member_flagged")
    assert code == 0
    reports = json.loads(out)
    assert [r["check_name"] for r in reports] == ["commutators",
                                                  "non_member_flagged"]
    assert all(r["passed"] for r in reports)


def test_verify_tight_tolerance_fails_with_names(capsys):
    # The momentum delta check's residual sits far above 1e-16.
    code, out, err = _run(capsys, "verify", "--checks",
                          "delta_normalization_momentum", "--tol", "1e-16")
    assert code == 1
    assert "delta_normalization_momentum" in err
    reports = json.loads(out)
    assert reports[0]["tolerance"] == 1e-16
    assert not reports[0]["passed"]


def test_verify_empty_selection_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--checks", "")
    assert code == 2
    assert "empty" in err


def test_out_files_are_deterministic(capsys, tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["coeffs", "--energies", "1,2,3", "--out", str(one)]) == 0
    assert main(["coeffs", "--energies", "1,2,3", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()
    assert not list(tmp_path.glob(".partial-*"))


def test_seventeen_digit_round_trip(capsys):
    code, out, _ = _run(capsys, "coeffs", "--energies", "1")
    assert code == 0
    _, rows = _rows(out)
    from barrierkets import BarrierModel, solve_matching
    sol = solve_matching(BarrierModel(), 1.0)
    assert float(rows[0][2]) == sol.t.real
    assert float(rows[0][3]) == sol.t.imag
