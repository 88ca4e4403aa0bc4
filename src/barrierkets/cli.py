"""Command line front end: batch computations with CSV/JSON emission.

One config file (strict JSON, unknown keys rejected) plus flag overrides;
flags win.  Each subcommand declares its options once, in _COMMANDS: the
flag, the config key, the type or choices, the default and the help.  A
config value must be something its flag accepts.  All numeric output is
printed with 17 significant digits and written atomically (temp file +
rename), so identical configs produce byte-identical files.

Exit status: 0 on success and when every requested check passes, 1 when a
verification check fails or a computation cannot reach tolerance, 2 on
usage errors (bad flags, bad config, bad grids).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, CapabilityError, ConditioningError, \
    DomainError
from .model import BarrierModel
from .quadrature import QuadratureSpec
from .scattering import Channel, SignLabel, _solve
from .eigenbasis import scattering_wave
from .testspace import GaussianPacket, _support, build_test_function, \
    evaluate, inner_product
from .transforms import energy_transform, spectral_probability, \
    synthesize_energy
from .verify import SUITE_CHECK_NAMES, run_default_suite

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad command-line or config input; maps to exit status 2."""


class _Option(NamedTuple):
    """One option of a subcommand.

    key is the config key and the parsed argument's name.  A dotted key,
    "packet.center", names a field of a config object: its flag overrides
    that field, and the object's own constructor checks it.  kind parses
    the flag's text, or is the tuple of accepted names.
    """

    flag: str
    key: str
    kind: object
    default: object = None
    help: str | None = None


def _reals(text: str) -> list:
    """A comma-separated list of reals."""
    return [float(s) for s in text.split(",") if s.strip()]


def _names(text: str) -> list:
    """A comma-separated list of names."""
    return [s.strip() for s in text.split(",") if s.strip()]


# The object each config object key builds, and the object's fields when
# the config omits it.  Configs may omit the packet's serialization
# discriminator; a wrong one still fails in from_dict.
_OBJECTS = {
    "model": (BarrierModel.from_dict, {}),
    "quadrature": (QuadratureSpec.from_dict, {}),
    "packet": (lambda data: GaussianPacket.from_dict(
        {"kind": "gaussian_packet", **data}), {"center": -20.0, "width": 1.0}),
}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _flag_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise ValueError


def _read(opt: _Option, value):
    """A config value read as the text its flag would carry: a number as
    its repr, the JSON list of a list option joined by commas."""
    try:
        if opt.kind in (_reals, _names):
            if not isinstance(value, list):
                raise ValueError
            text = ",".join(map(_flag_text, value))
        else:
            text = _flag_text(value)
        if not isinstance(opt.kind, tuple):
            return opt.kind(text)
        if text in opt.kind:
            return text
    except ValueError:
        pass
    raise UsageError(f"config key {opt.key!r} must be a value {opt.flag} "
                     f"accepts, got {value!r}")


def _resolve(args) -> dict:
    """Every value a subcommand reads, by config key.

    An option's value is its flag if given, else its config value, else its
    default.  Each config object (the model, the quadrature spec and, for
    the packet commands, the packet) is built from its config fields with
    its flags applied over them.
    """
    cfg = _load_config(args.config)
    options = args.options
    names = {"model"} | {o.key.split(".")[0] for o in options}
    unknown = set(cfg) - names
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for name in (n for n in _OBJECTS if n in names):
        data = cfg.get(name, _OBJECTS[name][1])
        if not isinstance(data, dict):
            raise UsageError(f"config key {name!r} must be an object")
        fields[name] = dict(data)
    values = {"out": args.out}
    for opt in options:
        flag = getattr(args, opt.key)
        name, _, field = opt.key.partition(".")
        if field:
            if flag is not None:
                fields[name][field] = flag
        elif flag is not None:
            values[name] = flag
        elif name in cfg:
            values[name] = _read(opt, cfg[name])
        else:
            values[name] = opt.default
    for name, data in fields.items():
        values[name] = _OBJECTS[name][0](data)
    return values


def _energy_grid(v: dict) -> np.ndarray:
    if v["energies"] is not None:
        grid = np.asarray(v["energies"], dtype=float)
        if grid.size == 0:
            raise UsageError("energy list is empty")
    else:
        e_min, e_max, count = v["e_min"], v["e_max"], v["count"]
        if count < 1:
            raise UsageError("grid count must be at least 1")
        if not 0.0 < e_min <= e_max:
            raise UsageError("need 0 < e_min <= e_max")
        space = np.linspace if v["spacing"] == "linear" else np.geomspace
        grid = space(e_min, e_max, count)
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise UsageError("all grid energies must be finite and positive")
    return grid


def cmd_coeffs(v: dict) -> int:
    grid = _energy_grid(v)
    header = ("E,k,re_T,im_T,re_Rl,im_Rl,re_Rr,im_Rr,"
              "abs_T2,abs_Rl2,unitarity_defect")
    sol = _solve(v["model"], grid)
    # One S matrix [[T, R_r], [R_l, T]] per energy.
    s = np.moveaxis(np.array([[sol.t, sol.r_r], [sol.r_l, sol.t]]), -1, 0)
    defect = np.max(np.abs(np.conj(np.swapaxes(s, -1, -2)) @ s - np.eye(2)),
                    axis=(-2, -1))
    cols = [grid, sol.k, sol.t.real, sol.t.imag, sol.r_l.real, sol.r_l.imag,
            sol.r_r.real, sol.r_r.imag, np.abs(sol.t) ** 2,
            np.abs(sol.r_l) ** 2, defect]
    rows = [[_fmt(c) for c in row] for row in zip(*(c.tolist() for c in cols))]
    _emit(_csv(header, rows), v["out"])
    return 0


def cmd_eigfun(v: dict) -> int:
    energy = v["energy"]
    if energy is None:
        raise UsageError("eigfun needs an energy (flag --energy or config)")
    if not energy > 0.0 or not math.isfinite(energy):
        raise UsageError("energy must be finite and positive")
    if v["count"] < 1 or not v["x_min"] <= v["x_max"]:
        raise UsageError("need x_min <= x_max and at least one point")
    grid = np.linspace(v["x_min"], v["x_max"], v["count"])
    psi = scattering_wave(v["model"], energy, Channel(v["channel"]),
                          SignLabel(v["sign"]), grid)
    rows = [[_fmt(float(x)), _fmt(z.real), _fmt(z.imag), _fmt(abs(z) ** 2)]
            for x, z in zip(grid, psi)]
    _emit(_csv("x,re_psi,im_psi,abs2_psi", rows), v["out"])
    return 0


def cmd_transform(v: dict) -> int:
    grid = _energy_grid(v)
    f = build_test_function(v["model"], v["packet"])
    amp = energy_transform(f, SignLabel(v["sign"]), v["quadrature"])
    channels = (Channel.LEFT, Channel.RIGHT)
    # One array call per channel: one matching solve for the whole grid.
    vals = {c: amp.amplitude(grid, c) for c in channels}
    rows = []
    for i, energy in enumerate(grid.tolist()):
        for channel in channels:
            a = complex(vals[channel][i])
            rows.append([
                _fmt(energy), channel.value,
                _fmt(a.real), _fmt(a.imag), _fmt(abs(a) ** 2),
            ])
    _emit(_csv("E,channel,re_amp,im_amp,abs2", rows), v["out"])
    return 0


def cmd_reconstruct(v: dict) -> int:
    spec, count = v["quadrature"], v["probe_points"]
    if count < 2:
        raise UsageError("need at least two probe points")
    f = build_test_function(v["model"], v["packet"])
    lo, hi = _support(f, spec)
    probes = np.linspace(lo, hi, count)
    amp = energy_transform(f, SignLabel(v["sign"]), spec)
    recon = synthesize_energy(amp, probes, spec)
    resid = np.abs(recon - evaluate(f, probes))
    dx = float(probes[1] - probes[0])
    weights = np.full(count, dx)
    weights[0] = weights[-1] = 0.5 * dx
    report = {
        "l2_residual": float(math.sqrt(float(np.sum(weights * resid ** 2)))),
        "max_residual": float(resid.max()),
        "probe_points": count,
    }
    _emit(json.dumps(report, indent=2) + "\n", v["out"])
    return 0


def cmd_probe(v: dict) -> int:
    spec, e_lo, e_hi = v["quadrature"], v["e_lo"], v["e_hi"]
    if not (0.0 <= e_lo < e_hi):
        raise UsageError("need 0 <= e_lo < e_hi")
    f = build_test_function(v["model"], v["packet"])
    norm_sq = inner_product(f, f, spec).real
    if norm_sq <= 0.0:
        raise UsageError("packet has zero norm")
    f = f.scaled(1.0 / math.sqrt(norm_sq))
    sign = SignLabel(v["sign"])
    prob, info = spectral_probability(f, e_lo, e_hi, sign, spec, details=True)
    report = {
        "probability": prob,
        "e_lo": e_lo,
        "e_hi": None if math.isinf(e_hi) else e_hi,
        "sign": sign.value,
        "e_cut": info["e_cut"],
        "tail_estimate": info["tail_estimate"],
        "per_channel": info["per_channel"],
    }
    _emit(json.dumps(report, indent=2) + "\n", v["out"])
    return 0


def cmd_verify(v: dict) -> int:
    select = v["checks"]
    if select is not None and not select:
        raise UsageError("check selection is empty; choose from "
                         + ", ".join(SUITE_CHECK_NAMES))
    reports = run_default_suite(v["model"], v["quadrature"], select=select,
                                tolerance=v["tolerance"])
    _emit(json.dumps([r.to_dict() for r in reports], indent=2) + "\n",
          v["out"])
    failed = [r.check_name for r in reports
              if not r.passed and not r.inconclusive]
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


_TOL = _Option("--tol", "quadrature.abs_tol", float,
               help="absolute quadrature tolerance override")
_KMAX = _Option("--kmax", "quadrature.k_max", float,
                help="wave-number truncation override")
_SIGN = _Option("--sign", "sign", ("plus", "minus"), "plus",
                "eigenfunction family")
_GRID = (
    _Option("--emin", "e_min", float, 0.01, "lowest grid energy"),
    _Option("--emax", "e_max", float, 100.0, "highest grid energy"),
    _Option("--count", "count", int, 50, "number of grid points"),
    _Option("--spacing", "spacing", ("linear", "log"), "linear",
            "grid spacing rule"),
    _Option("--energies", "energies", _reals, None,
            "explicit comma-separated energies E1,E2,... (wins over grid)"),
)
_PACKET = (
    _Option("--center", "packet.center", float, help="packet center"),
    _Option("--width", "packet.width", float, help="packet width"),
    _Option("--momentum", "packet.momentum", float, help="packet boost"),
    _Option("--poly-degree", "packet.poly_degree", int,
            help="polynomial factor degree"),
    _SIGN,
)

# Each subcommand: its function, its help and its options, in --help order.
_COMMANDS = {
    "coeffs": (cmd_coeffs,
               "tabulate scattering coefficients over energies",
               (_TOL, _KMAX, *_GRID)),
    "eigfun": (cmd_eigfun,
               "sample one generalized eigenfunction on an x grid",
               (_TOL, _KMAX,
                _Option("--energy", "energy", float, None,
                        "eigenfunction energy"),
                _Option("--channel", "channel", ("left", "right"), "left",
                        "incidence channel"),
                _SIGN,
                _Option("--xmin", "x_min", float, -10.0, "lowest position"),
                _Option("--xmax", "x_max", float, 10.0, "highest position"),
                _Option("--count", "count", int, 401, "number of positions"))),
    "transform": (cmd_transform,
                  "energy amplitudes of a packet in both channels",
                  (_TOL, _KMAX, *_PACKET, *_GRID)),
    "reconstruct": (cmd_reconstruct,
                    "analysis/synthesis round-trip residual report",
                    (_TOL, _KMAX, *_PACKET,
                     _Option("--probes", "probe_points", int, 50,
                             "number of probe points"))),
    "probe": (cmd_probe,
              "spectral probability of an energy window",
              (_TOL, _KMAX, *_PACKET,
               _Option("--elo", "e_lo", float, 0.0, "window lower edge"),
               _Option("--ehi", "e_hi", float, math.inf,
                       "window upper edge (inf allowed)"))),
    "verify": (cmd_verify,
               "run the smeared identity suite, emit JSON",
               (_Option("--tol", "tolerance", float, None,
                        "pass/fail tolerance override"),
                _KMAX,
                _Option("--checks", "checks", _names, None,
                        "comma-separated subset of checks; default all: "
                        + ", ".join(SUITE_CHECK_NAMES)))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrierkets",
        description="Rectangular-barrier continuum eigenfunction toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file; flags override its values")
        p.add_argument("--out", metavar="PATH",
                       help="output file (written atomically); "
                            "default stdout")
        for opt in options:
            kind = ({"choices": opt.kind} if isinstance(opt.kind, tuple)
                    else {"type": opt.kind})
            p.add_argument(opt.flag, dest=opt.key, help=opt.help, **kind)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConditioningError, CapabilityError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
