"""Command line front end: batch computations with CSV/JSON emission.

One config file (strict JSON, unknown keys rejected) plus flag overrides;
flags win.  All numeric output is printed with 17 significant digits and
written atomically (temp file + rename), so identical configs produce
byte-identical files.

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
from dataclasses import replace

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


def _check_keys(cfg: dict, allowed: set) -> None:
    unknown = set(cfg) - allowed - {"model", "quadrature"}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")


def _build_model(cfg: dict) -> BarrierModel:
    data = cfg.get("model")
    if data is None:
        return BarrierModel()
    if not isinstance(data, dict):
        raise UsageError("config key 'model' must be an object")
    return BarrierModel.from_dict(data)


def _build_spec(cfg: dict, args, use_tol_flag: bool = True) -> QuadratureSpec:
    data = cfg.get("quadrature")
    if data is None:
        spec = QuadratureSpec()
    elif isinstance(data, dict):
        spec = QuadratureSpec.from_dict(data)
    else:
        raise UsageError("config key 'quadrature' must be an object")
    if use_tol_flag and args.tol is not None:
        spec = replace(spec, abs_tol=args.tol)
    if args.kmax is not None:
        spec = replace(spec, k_max=args.kmax)
    return spec


def _pick(cfg: dict, key: str, flag_value, default):
    """Config value overridden by a provided flag, with a final default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _energy_grid(cfg: dict, args) -> np.ndarray:
    energies = cfg.get("energies")
    if getattr(args, "energies", None) is not None:
        try:
            energies = [float(s) for s in args.energies.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --energies list: {exc}") from exc
    if energies is not None:
        grid = np.asarray(energies, dtype=float)
        if grid.size == 0:
            raise UsageError("energy list is empty")
    else:
        e_min = float(_pick(cfg, "e_min", args.emin, 0.01))
        e_max = float(_pick(cfg, "e_max", args.emax, 100.0))
        count = int(_pick(cfg, "count", args.count, 50))
        spacing = _pick(cfg, "spacing", args.spacing, "linear")
        if count < 1:
            raise UsageError("grid count must be at least 1")
        if not 0.0 < e_min <= e_max:
            raise UsageError("need 0 < e_min <= e_max")
        if spacing == "linear":
            grid = np.linspace(e_min, e_max, count)
        elif spacing == "log":
            grid = np.geomspace(e_min, e_max, count)
        else:
            raise UsageError(f"unknown spacing {spacing!r}")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise UsageError("all grid energies must be finite and positive")
    return grid


def _parse_enum(kind, raw, what):
    try:
        return kind(raw)
    except ValueError as exc:
        raise UsageError(f"bad {what} {raw!r}") from exc


def _build_packet(cfg: dict, args) -> GaussianPacket:
    data = cfg.get("packet")
    if data is not None:
        if not isinstance(data, dict):
            raise UsageError("config key 'packet' must be an object")
        # Configs may omit the serialization discriminator; a wrong one
        # still fails in from_dict.
        packet = GaussianPacket.from_dict({"kind": "gaussian_packet", **data})
    else:
        packet = GaussianPacket(center=-20.0, width=1.0, momentum=0.0)
    updates = {}
    if args.center is not None:
        updates["center"] = args.center
    if args.width is not None:
        updates["width"] = args.width
    if args.momentum is not None:
        updates["momentum"] = args.momentum
    if getattr(args, "poly_degree", None) is not None:
        updates["poly_degree"] = args.poly_degree
    return replace(packet, **updates) if updates else packet


def cmd_coeffs(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"energies", "e_min", "e_max", "count", "spacing"})
    model = _build_model(cfg)
    grid = _energy_grid(cfg, args)
    header = ("E,k,re_T,im_T,re_Rl,im_Rl,re_Rr,im_Rr,"
              "abs_T2,abs_Rl2,unitarity_defect")
    sol = _solve(model, grid)
    # One S matrix [[T, R_r], [R_l, T]] per energy.
    s = np.moveaxis(np.array([[sol.t, sol.r_r], [sol.r_l, sol.t]]), -1, 0)
    defect = np.max(np.abs(np.conj(np.swapaxes(s, -1, -2)) @ s - np.eye(2)),
                    axis=(-2, -1))
    cols = [grid, sol.k, sol.t.real, sol.t.imag, sol.r_l.real, sol.r_l.imag,
            sol.r_r.real, sol.r_r.imag, np.abs(sol.t) ** 2,
            np.abs(sol.r_l) ** 2, defect]
    rows = [[_fmt(v) for v in row] for row in zip(*(c.tolist() for c in cols))]
    _emit(_csv(header, rows), args.out)
    return 0


def cmd_eigfun(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"energy", "channel", "sign", "x_min", "x_max", "count"})
    model = _build_model(cfg)
    energy = _pick(cfg, "energy", args.energy, None)
    if energy is None:
        raise UsageError("eigfun needs an energy (flag --energy or config)")
    energy = float(energy)
    if not energy > 0.0 or not math.isfinite(energy):
        raise UsageError("energy must be finite and positive")
    channel = _parse_enum(Channel, _pick(cfg, "channel", args.channel, "left"),
                          "channel")
    sign = _parse_enum(SignLabel, _pick(cfg, "sign", args.sign, "plus"),
                       "sign")
    x_min = float(_pick(cfg, "x_min", args.xmin, -10.0))
    x_max = float(_pick(cfg, "x_max", args.xmax, 10.0))
    count = int(_pick(cfg, "count", args.count, 401))
    if count < 1 or not x_min <= x_max:
        raise UsageError("need x_min <= x_max and at least one point")
    grid = np.linspace(x_min, x_max, count)
    psi = scattering_wave(model, energy, channel, sign, grid)
    rows = [[_fmt(float(x)), _fmt(v.real), _fmt(v.imag), _fmt(abs(v) ** 2)]
            for x, v in zip(grid, psi)]
    _emit(_csv("x,re_psi,im_psi,abs2_psi", rows), args.out)
    return 0


def cmd_transform(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"packet", "sign", "energies", "e_min", "e_max",
                      "count", "spacing"})
    model = _build_model(cfg)
    spec = _build_spec(cfg, args)
    sign = _parse_enum(SignLabel, _pick(cfg, "sign", args.sign, "plus"),
                       "sign")
    packet = _build_packet(cfg, args)
    grid = _energy_grid(cfg, args)
    f = build_test_function(model, packet)
    amp = energy_transform(f, sign, spec)
    rows = []
    for energy in grid:
        for channel in (Channel.LEFT, Channel.RIGHT):
            v = amp.amplitude(float(energy), channel)
            rows.append([
                _fmt(float(energy)), channel.value,
                _fmt(v.real), _fmt(v.imag), _fmt(abs(v) ** 2),
            ])
    _emit(_csv("E,channel,re_amp,im_amp,abs2", rows), args.out)
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"packet", "sign", "probe_points"})
    model = _build_model(cfg)
    spec = _build_spec(cfg, args)
    sign = _parse_enum(SignLabel, _pick(cfg, "sign", args.sign, "plus"),
                       "sign")
    packet = _build_packet(cfg, args)
    count = int(_pick(cfg, "probe_points", args.probes, 50))
    if count < 2:
        raise UsageError("need at least two probe points")
    f = build_test_function(model, packet)
    lo, hi = _support(f, spec)
    probes = np.linspace(lo, hi, count)
    amp = energy_transform(f, sign, spec)
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
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"packet", "sign", "e_lo", "e_hi"})
    model = _build_model(cfg)
    spec = _build_spec(cfg, args)
    sign = _parse_enum(SignLabel, _pick(cfg, "sign", args.sign, "plus"),
                       "sign")
    packet = _build_packet(cfg, args)
    e_lo = float(_pick(cfg, "e_lo", args.elo, 0.0))
    e_hi = float(_pick(cfg, "e_hi", args.ehi, math.inf))
    if not (0.0 <= e_lo < e_hi):
        raise UsageError("need 0 <= e_lo < e_hi")
    f = build_test_function(model, packet)
    norm_sq = inner_product(f, f, spec).real
    if norm_sq <= 0.0:
        raise UsageError("packet has zero norm")
    f = f.scaled(1.0 / math.sqrt(norm_sq))
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
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"checks", "tolerance"})
    model = _build_model(cfg)
    spec = _build_spec(cfg, args, use_tol_flag=False)
    select = cfg.get("checks")
    if args.checks is not None:
        select = [s.strip() for s in args.checks.split(",") if s.strip()]
    if select is not None and not select:
        raise UsageError("check selection is empty; choose from "
                         + ", ".join(SUITE_CHECK_NAMES))
    tolerance = _pick(cfg, "tolerance", args.tol, None)
    try:
        reports = run_default_suite(model, spec, select=select,
                                    tolerance=tolerance)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    _emit(json.dumps([r.to_dict() for r in reports], indent=2) + "\n",
          args.out)
    failed = [r.check_name for r in reports
              if not r.passed and not r.inconclusive]
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="JSON config file; flags override its values")
    sub.add_argument("--out", metavar="PATH",
                     help="output file (written atomically); default stdout")
    sub.add_argument("--tol", type=float, metavar="X",
                     help="absolute quadrature tolerance override "
                          "(for verify: pass/fail tolerance override)")
    sub.add_argument("--kmax", type=float, metavar="X",
                     help="wave-number truncation override")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--emin", type=float, help="lowest grid energy")
    sub.add_argument("--emax", type=float, help="highest grid energy")
    sub.add_argument("--count", type=int, help="number of grid points")
    sub.add_argument("--spacing", choices=["linear", "log"],
                     help="grid spacing rule")
    sub.add_argument("--energies", metavar="E1,E2,...",
                     help="explicit comma-separated energies (wins over grid)")


def _add_packet_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--center", type=float, help="packet center")
    sub.add_argument("--width", type=float, help="packet width")
    sub.add_argument("--momentum", type=float, help="packet boost")
    sub.add_argument("--poly-degree", dest="poly_degree", type=int,
                     help="polynomial factor degree")
    sub.add_argument("--sign", choices=["plus", "minus"],
                     help="eigenfunction family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrierkets",
        description="Rectangular-barrier continuum eigenfunction toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs",
                        help="tabulate scattering coefficients over energies")
    _add_common(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_coeffs)

    p = subs.add_parser("eigfun",
                        help="sample one generalized eigenfunction on an x grid")
    _add_common(p)
    p.add_argument("--energy", type=float, help="eigenfunction energy")
    p.add_argument("--channel", choices=["left", "right"])
    p.add_argument("--sign", choices=["plus", "minus"])
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--count", type=int)
    p.set_defaults(func=cmd_eigfun)

    p = subs.add_parser("transform",
                        help="energy amplitudes of a packet in both channels")
    _add_common(p)
    _add_packet_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("reconstruct",
                        help="analysis/synthesis round-trip residual report")
    _add_common(p)
    _add_packet_flags(p)
    p.add_argument("--probes", type=int, help="number of probe points")
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("probe",
                        help="spectral probability of an energy window")
    _add_common(p)
    _add_packet_flags(p)
    p.add_argument("--elo", type=float, help="window lower edge")
    p.add_argument("--ehi", type=float, help="window upper edge (inf allowed)")
    p.set_defaults(func=cmd_probe)

    p = subs.add_parser("verify",
                        help="run the smeared identity suite, emit JSON")
    _add_common(p)
    p.add_argument("--checks", metavar="NAME1,NAME2,...",
                   help="subset of checks; default all: "
                        + ", ".join(SUITE_CHECK_NAMES))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ConditioningError, CapabilityError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
