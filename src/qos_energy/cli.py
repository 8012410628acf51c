"""Command line front end.

qos-energy <command> [--config FILE] [flags...]

Commands
    sweep           SE vs Eb/N0 tradeoff curves over a log grid
    asymptotics     bit-energy floor and wideband slope per theta
    alpha-star      CSIT thresholds alpha(zeta) and their zeta -> 0 limits
    surface         Eb/N0|min over a (theta, Pbar/N0) grid
    simulate-queue  Lindley queue tail versus the QoS exponent
    limits          Shannon and delay-limited spectral efficiencies

Flags override --config values, which override built-in defaults.  A JSON
config may only contain keys the command understands; anything else is
rejected (exit 2).  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 filesystem error.  Floating point infinities are
written as "inf"/"-inf" strings in JSON; unavailable values are null in
JSON and empty fields in CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .asymptotics import solve_alpha_star
from .effcap import QosConfig, delay_limited_limit, shannon_limit
from .errors import NumericalError
from .fading import FadingModel, from_config
from .queuesim import SimConfig, predicted_effective_capacity, simulate_queue
from .sweep import (
    LOWPOWER,
    WIDEBAND,
    SweepSpec,
    _asymptote,
    alpha_vs_zeta,
    default_grid,
    ebn0_min_surface,
    tradeoff_curve,
)

DEFAULT_T = 2e-3
DEFAULT_B = 1e5
DEFAULT_PBAR_OVER_N0 = 1e4
DEFAULT_THETAS = (0.0, 0.001, 0.01, 0.1, 1.0)
DEFAULT_GRID_POINTS = 60
DEFAULT_SURFACE_GRID_POINTS = 20
# Ceiling on grid_points: far above any figure's needs, and low enough that
# an oversized value is a configuration error, not an allocation failure.
MAX_GRID_POINTS = 100_000
DEFAULT_SEED = 12345

CURVE_CSV_HEADER = "ebn0_db,spectral_efficiency_bps_hz"


class ConfigError(ValueError):
    """Bad flag or config-file value; maps to exit code 2."""


# Config keys each command accepts (from file or the matching flag).
_ALLOWED_KEYS = {
    "sweep": {
        "model", "theta", "T", "B", "pbar_over_n0", "mode", "regime",
        "grid_points", "seed", "out", "format",
    },
    "asymptotics": {
        "model", "theta", "T", "B", "pbar_over_n0", "mode", "regime",
        "seed", "out", "format",
    },
    "alpha-star": {
        "model", "theta", "T", "pbar_over_n0", "grid_points", "seed",
        "out", "format",
    },
    "surface": {
        "model", "theta", "T", "mode", "pbar_grid", "grid_points", "seed",
        "out", "format",
    },
    "simulate-queue": {
        "model", "theta", "T", "B", "mode", "snr", "arrival_rate",
        "arrival_ratio", "frames", "warmup_frames", "thresholds", "seed",
        "out", "format",
    },
    "limits": {"model", "snr", "T", "B", "seed", "out", "format"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qos-energy",
        description="Effective-capacity energy/bandwidth tradeoffs under QoS "
        "constraints for block-fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "spectral efficiency vs Eb/N0 curves"),
        ("asymptotics", "bit-energy floors and wideband slopes"),
        ("alpha-star", "CSIT power thresholds alpha(zeta) and limits"),
        ("surface", "Eb/N0 floor over a (theta, Pbar/N0) grid"),
        ("simulate-queue", "queue-tail validation of the QoS exponent"),
        ("limits", "Shannon and delay-limited spectral efficiencies"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        p.add_argument(
            "--model",
            choices=["rayleigh", "nakagami", "deterministic", "table"],
            help="fading model kind",
        )
        p.add_argument("--m", type=float, help="Nakagami shape parameter")
        p.add_argument(
            "--mean",
            type=float,
            help="mean channel gain (the fixed gain z0 for deterministic)",
        )
        p.add_argument(
            "--theta",
            metavar="LIST",
            help="comma-separated QoS exponents, e.g. 0,0.01,1",
        )
        p.add_argument("--T", type=float, help="frame duration in seconds")
        p.add_argument("--B", type=float, help="bandwidth in Hz")
        p.add_argument(
            "--pn0", type=float, help="power to noise spectral density Pbar/N0"
        )
        p.add_argument("--mode", choices=["csir", "csit"], help="CSI assumption")
        p.add_argument(
            "--regime",
            choices=[LOWPOWER, WIDEBAND],
            help="low-SNR limit: P -> 0 at fixed B, or B -> inf at fixed P",
        )
        p.add_argument(
            "--grid-points",
            type=int,
            help=f"points per sweep grid, 2 to {MAX_GRID_POINTS}",
        )
        p.add_argument("--seed", type=int, help="PRNG seed for simulation")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=["csv", "json", "both"], help="outputs")
    return parser


def _parse_theta_text(text: str):
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(float(tok))
        except ValueError:
            raise ConfigError(f"theta: {tok!r} is not a number") from None
    if not vals:
        raise ConfigError("theta: empty list")
    return vals


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    allowed = _ALLOWED_KEYS[command]
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    return data


def _positive(cfg: dict, key: str) -> float:
    try:
        val = float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from None
    if not (val > 0 and math.isfinite(val)):
        raise ConfigError(f"{key} must be positive and finite, got {val}")
    return val


def _nonneg_int(
    cfg: dict, key: str, minimum: int = 0, maximum: float = math.inf
) -> int:
    val = cfg[key]
    whole = isinstance(val, int) or isinstance(val, float) and val.is_integer()
    if isinstance(val, bool) or not whole:
        raise ConfigError(f"{key}: expected an integer, got {val!r}")
    val = int(val)
    if val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}")
    if val > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {val}")
    return val


def _resolve_model(cfg: dict, args) -> dict:
    spec = {"kind": "rayleigh", "mean": 1.0}
    raw = cfg.get("model")
    if raw is not None:
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError("model: expected an object with a 'kind' key")
        spec = dict(raw)
    if args.model is not None and args.model != spec.get("kind"):
        spec = {"kind": args.model}
    if args.m is not None:
        spec["m"] = args.m
    if args.mean is not None:
        if spec.get("kind") == "deterministic":
            spec["z0"] = args.mean
        else:
            spec["mean"] = args.mean
    kind = spec.get("kind")
    if kind == "rayleigh":
        spec.setdefault("mean", 1.0)
    elif kind == "nakagami":
        if "m" not in spec:
            raise ConfigError("nakagami model needs the shape parameter --m")
        spec.setdefault("mean", 1.0)
    elif kind == "deterministic":
        if "z0" not in spec:
            spec["z0"] = spec.pop("mean", 1.0)
    elif kind == "table":
        if "points" not in spec:
            raise ConfigError(
                "table model needs 'points' ([[z, p], ...]) from a config file"
            )
    return spec


def _build_model(spec: dict) -> FadingModel:
    try:
        return from_config(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from None


def _resolve(args) -> dict:
    command = args.command
    cfg = {}
    if args.config:
        cfg = _load_config_file(args.config, command)
    allowed = _ALLOWED_KEYS[command]

    model_spec = _resolve_model(cfg, args)
    out = {"command": command, "model": model_spec}

    flag_map = {
        "T": args.T,
        "B": args.B,
        "pbar_over_n0": args.pn0,
        "mode": args.mode,
        "regime": args.regime,
        "grid_points": args.grid_points,
        "seed": args.seed,
        "out": args.out,
        "format": args.format,
    }
    for key, flag_val in flag_map.items():
        if key in allowed and flag_val is not None:
            cfg[key] = flag_val
    if "theta" in allowed and args.theta is not None:
        cfg["theta"] = _parse_theta_text(args.theta)

    if "theta" in allowed:
        raw = cfg.get("theta")
        if raw is None:
            thetas = None
        else:
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                raw = [raw]
            if not isinstance(raw, (list, tuple)):
                raise ConfigError("theta: expected a number or list of numbers")
            thetas = []
            for t in raw:
                try:
                    t = float(t)
                except (TypeError, ValueError):
                    raise ConfigError(f"theta: {t!r} is not a number") from None
                if not (t >= 0 and math.isfinite(t)):
                    raise ConfigError(
                        f"theta values must be finite and >= 0, got {t}"
                    )
                thetas.append(t)
            if not thetas:
                raise ConfigError("theta: empty list")
        if command == "simulate-queue":
            if thetas is None:
                thetas = [0.05]
            if len(thetas) != 1:
                raise ConfigError(
                    "simulate-queue needs exactly one theta, got "
                    f"{len(thetas)}"
                )
            if thetas[0] <= 0:
                raise ConfigError("simulate-queue needs theta > 0")
        elif thetas is None:
            if command == "surface":
                thetas = None  # resolved below from grid_points
            else:
                thetas = list(DEFAULT_THETAS)
        out["theta"] = thetas

    for key, default in (
        ("T", DEFAULT_T),
        ("B", DEFAULT_B),
        ("pbar_over_n0", DEFAULT_PBAR_OVER_N0),
        ("snr", 1.0),
    ):
        if key in allowed:
            cfg.setdefault(key, default)
            out[key] = _positive(cfg, key)

    if "grid_points" in allowed:
        default_n = (
            DEFAULT_SURFACE_GRID_POINTS
            if command == "surface"
            else DEFAULT_GRID_POINTS
        )
        cfg.setdefault("grid_points", default_n)
        out["grid_points"] = _nonneg_int(
            cfg, "grid_points", minimum=2, maximum=MAX_GRID_POINTS
        )

    if "mode" in allowed:
        mode = cfg.get("mode", "csir")
        if mode not in ("csir", "csit"):
            raise ConfigError(f"mode must be 'csir' or 'csit', got {mode!r}")
        out["mode"] = mode
    if "regime" in allowed:
        regime = cfg.get("regime", LOWPOWER)
        if regime not in (LOWPOWER, WIDEBAND):
            raise ConfigError(
                f"regime must be '{LOWPOWER}' or '{WIDEBAND}', got {regime!r}"
            )
        out["regime"] = regime

    if "seed" in allowed:
        cfg.setdefault("seed", DEFAULT_SEED)
        out["seed"] = _nonneg_int(cfg, "seed")

    if command == "surface":
        if out.get("theta") is None:
            out["theta"] = [
                float(t) for t in np.logspace(-3.0, 0.0, out["grid_points"])
            ]
        raw_grid = cfg.get("pbar_grid")
        if raw_grid is None:
            grid = [float(p) for p in np.logspace(2.0, 6.0, out["grid_points"])]
        else:
            if not isinstance(raw_grid, (list, tuple)) or not raw_grid:
                raise ConfigError("pbar_grid: expected a non-empty list")
            grid = []
            for p in raw_grid:
                try:
                    p = float(p)
                except (TypeError, ValueError):
                    raise ConfigError(f"pbar_grid: {p!r} is not a number") from None
                if not (p > 0 and math.isfinite(p)):
                    raise ConfigError(f"pbar_grid values must be positive, got {p}")
                grid.append(p)
        out["pbar_grid"] = grid

    if command == "simulate-queue":
        cfg.setdefault("frames", 1_000_000)
        out["frames"] = _nonneg_int(cfg, "frames", minimum=1)
        if "warmup_frames" in cfg and cfg["warmup_frames"] is not None:
            warm = _nonneg_int(cfg, "warmup_frames")
            if warm >= out["frames"]:
                raise ConfigError(
                    f"warmup_frames must be below frames, got {warm} with "
                    f"frames={out['frames']}"
                )
            out["warmup_frames"] = warm
        else:
            out["warmup_frames"] = None
        if "arrival_rate" in cfg and cfg["arrival_rate"] is not None:
            out["arrival_rate"] = _positive(cfg, "arrival_rate")
            out["arrival_ratio"] = None
        else:
            cfg.setdefault("arrival_ratio", 1.0)
            out["arrival_ratio"] = _positive(cfg, "arrival_ratio")
            out["arrival_rate"] = None
        raw_th = cfg.get("thresholds")
        if raw_th is not None:
            if not isinstance(raw_th, (list, tuple)) or not raw_th:
                raise ConfigError("thresholds: expected a non-empty list")
            ths = []
            for q in raw_th:
                try:
                    q = float(q)
                except (TypeError, ValueError):
                    raise ConfigError(f"thresholds: {q!r} is not a number") from None
                if not (q > 0 and math.isfinite(q)):
                    raise ConfigError(f"thresholds must be positive, got {q}")
                ths.append(q)
            if any(b <= a for a, b in zip(ths, ths[1:])):
                raise ConfigError("thresholds must be strictly increasing")
            out["thresholds"] = ths
        else:
            out["thresholds"] = None

    fmt = cfg.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json or both, got {fmt!r}")
    out["format"] = fmt
    out["out"] = str(cfg.get("out", "."))
    return out


def _model_tag(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "nakagami":
        return f"nakagami{spec['m']:g}"
    return kind


def _fmt_cell(x) -> str:
    """CSV cell: empty for missing, inf/-inf spelled out, 12 significant digits."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_curve_csv(curve, path: str) -> None:
    """One tradeoff curve as CSV; gap points become empty fields."""
    if not curve.points:
        raise ValueError("curve has no points to write")
    lines = [CURVE_CSV_HEADER]
    for pt in curve.points:
        se = pt.spectral_efficiency
        eb = pt.ebn0_db
        gap = se is None or eb is None
        lines.append("," if gap else f"{_fmt_cell(eb)},{_fmt_cell(se)}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_rows_csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt_cell(c) for c in row))
    _write_text(path, "\n".join(lines) + "\n")


def _sanitize(obj):
    """Make a structure JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"
    _write_text(path, text)


def _summary_dict(summary) -> dict:
    d = asdict(summary)
    d["s0"] = d.pop("slope_s0")
    return d


def _outdir(cfg: dict) -> str:
    path = cfg["out"]
    os.makedirs(path, exist_ok=True)
    return path


def _run_sweep(cfg: dict):
    model = _build_model(cfg["model"])
    regime = cfg["regime"]
    spec = SweepSpec(
        model=model,
        mode=cfg["mode"],
        regime=regime,
        theta_list=tuple(cfg["theta"]),
        T=cfg["T"],
        B=cfg["B"] if regime == LOWPOWER else None,
        pbar_over_n0=cfg["pbar_over_n0"] if regime == WIDEBAND else None,
        grid=tuple(default_grid(regime, cfg["grid_points"])),
    )
    curves = tradeoff_curve(spec)
    outdir = _outdir(cfg)
    base = f"sweep_{cfg['mode']}_{regime}_{_model_tag(cfg['model'])}"
    written = []
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "sweep",
            "config": {k: v for k, v in cfg.items() if k != "command"},
            "curves": [
                {
                    "label": c.label,
                    "theta": c.theta,
                    "asymptote": None
                    if c.asymptote is None
                    else _summary_dict(c.asymptote),
                    "grid": list(c.grid),
                    "points": [
                        {
                            "ebn0_db": p.ebn0_db,
                            "spectral_efficiency": p.spectral_efficiency,
                        }
                        for p in c.points
                    ],
                }
                for c in curves
            ],
        }
        path = os.path.join(outdir, base + ".json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        for c in curves:
            path = os.path.join(outdir, f"{base}_theta{c.theta:g}.csv")
            write_curve_csv(c, path)
            written.append(path)
    notes = []
    failures = sum(c.failures for c in curves)
    if failures:
        notes.append(
            f"note: {failures} grid point(s) failed and were written as gaps"
        )
    return written, notes


def _run_asymptotics(cfg: dict):
    model = _build_model(cfg["model"])
    results = []
    for theta in cfg["theta"]:
        summary = _asymptote(
            model,
            cfg["mode"],
            cfg["regime"],
            theta,
            cfg["T"],
            cfg["B"],
            cfg["pbar_over_n0"],
        )
        entry = _summary_dict(summary)
        entry["theta"] = theta
        results.append(entry)
    outdir = _outdir(cfg)
    base = (
        f"asymptotics_{cfg['mode']}_{cfg['regime']}_{_model_tag(cfg['model'])}"
    )
    written = []
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "asymptotics",
            "config": {k: v for k, v in cfg.items() if k != "command"},
            "results": results,
        }
        path = os.path.join(outdir, base + ".json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        rows = [
            (r["theta"], r["ebn0_min_linear"], r["ebn0_min_db"], r["s0"])
            for r in results
        ]
        path = os.path.join(outdir, base + ".csv")
        _write_rows_csv(
            path, "theta,ebn0_min_linear,ebn0_min_db,slope_s0", rows
        )
        written.append(path)
    return written, []


def _run_alpha_star(cfg: dict):
    model = _build_model(cfg["model"])
    results = []
    for theta in cfg["theta"]:
        sol = solve_alpha_star(model, theta, cfg["T"], cfg["pbar_over_n0"])
        results.append(
            {
                "theta": theta,
                "alpha_star": sol.alpha_star,
                "xi": sol.xi,
                "alpha_dot_zero": sol.alpha_dot_zero,
                "ln_alpha_star": sol.ln_alpha_star,
                "ln_xi": sol.ln_xi,
            }
        )
    zeta_grid = default_grid(WIDEBAND, cfg["grid_points"])
    curves = alpha_vs_zeta(
        model, cfg["theta"], cfg["T"], cfg["pbar_over_n0"], zeta_grid
    )
    outdir = _outdir(cfg)
    mtag = _model_tag(cfg["model"])
    written = []
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "alpha-star",
            "config": {k: v for k, v in cfg.items() if k != "command"},
            "results": results,
            "curves": [
                {
                    "theta": c.theta,
                    "alpha_star": c.alpha_star,
                    "zetas": list(c.zetas),
                    "alphas": list(c.alphas),
                }
                for c in curves
            ],
        }
        path = os.path.join(outdir, f"alpha_star_{mtag}.json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        rows = [
            (r["theta"], r["alpha_star"], r["xi"], r["alpha_dot_zero"])
            for r in results
        ]
        path = os.path.join(outdir, f"alpha_star_{mtag}.csv")
        _write_rows_csv(path, "theta,alpha_star,xi,alpha_dot_zero", rows)
        written.append(path)
        for c in curves:
            path = os.path.join(
                outdir, f"alpha_vs_zeta_{mtag}_theta{c.theta:g}.csv"
            )
            _write_rows_csv(
                path, "zeta,alpha", list(zip(c.zetas, c.alphas))
            )
            written.append(path)
    return written, []


def _run_surface(cfg: dict):
    model = _build_model(cfg["model"])
    surf = ebn0_min_surface(
        cfg["mode"], model, cfg["theta"], cfg["pbar_grid"], cfg["T"]
    )
    outdir = _outdir(cfg)
    base = f"surface_{cfg['mode']}_{_model_tag(cfg['model'])}"
    written = []
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "surface",
            "config": {k: v for k, v in cfg.items() if k != "command"},
            "theta_grid": list(surf.theta_grid),
            "pbar_grid": list(surf.pbar_grid),
            "ebn0_min_db": [list(row) for row in surf.ebn0_min_db],
            "failures": surf.failures,
        }
        path = os.path.join(outdir, base + ".json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        rows = []
        for theta, row in zip(surf.theta_grid, surf.ebn0_min_db):
            for pn0, val in zip(surf.pbar_grid, row):
                rows.append((theta, pn0, val))
        path = os.path.join(outdir, base + ".csv")
        _write_rows_csv(path, "theta,pbar_over_n0,ebn0_min_db", rows)
        written.append(path)
    notes = []
    if surf.failures:
        notes.append(f"note: {surf.failures} surface cell(s) failed")
    return written, notes


def _run_simulate_queue(cfg: dict):
    model = _build_model(cfg["model"])
    theta = cfg["theta"][0]
    qos = QosConfig(theta=theta, T=cfg["T"], B=cfg["B"])
    predicted = predicted_effective_capacity(model, cfg["snr"], qos, cfg["mode"])
    arrival = cfg["arrival_rate"]
    if arrival is None:
        arrival = cfg["arrival_ratio"] * predicted
        if not arrival > 0:
            raise NumericalError(
                "derived arrival rate is not positive; the predicted "
                "effective capacity is zero at this setting"
            )
    thresholds = cfg["thresholds"]
    if thresholds is None:
        thresholds = [k / theta for k in range(2, 9)]
    sim = SimConfig(
        model=model,
        snr=cfg["snr"],
        qos=qos,
        mode=cfg["mode"],
        arrival_rate=arrival,
        frames=cfg["frames"],
        seed=cfg["seed"],
        q_thresholds=tuple(thresholds),
        warmup_frames=cfg["warmup_frames"],
    )
    tail = simulate_queue(sim)
    outdir = _outdir(cfg)
    base = (
        f"queue_{cfg['mode']}_{_model_tag(cfg['model'])}_theta{theta:g}"
    )
    written = []
    resolved = {k: v for k, v in cfg.items() if k != "command"}
    resolved["arrival_rate"] = arrival
    resolved["thresholds"] = list(thresholds)
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "simulate-queue",
            "config": resolved,
            "results": {
                "theta": theta,
                "arrival_rate": arrival,
                "predicted_effective_capacity": predicted,
                "thresholds": list(tail.thresholds),
                "log_tail_probs": list(tail.log_tail_probs),
                "fitted_decay": tail.fitted_decay,
                "fit_rsquared": tail.fit_rsquared,
                "samples_at_largest_threshold": (
                    tail.samples_at_largest_threshold
                ),
                "decay_over_theta": tail.fitted_decay / theta,
            },
        }
        path = os.path.join(outdir, base + ".json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        rows = list(zip(tail.thresholds, tail.log_tail_probs))
        path = os.path.join(outdir, base + ".csv")
        _write_rows_csv(path, "q_threshold,log_tail_prob", rows)
        written.append(path)
    notes = [
        f"fitted decay {tail.fitted_decay:.6g} vs theta {theta:g} "
        f"(ratio {tail.fitted_decay / theta:.4g}), "
        f"r^2 {tail.fit_rsquared:.6f}"
    ]
    return written, notes


def _run_limits(cfg: dict):
    model = _build_model(cfg["model"])
    qos = QosConfig(theta=0.0, T=cfg["T"], B=cfg["B"])
    snr = cfg["snr"]
    results = {
        "snr": snr,
        "shannon_csir": shannon_limit(snr, "csir", qos, model),
        "shannon_csit": shannon_limit(snr, "csit", qos, model),
        "delay_limited_csir": delay_limited_limit(snr, "csir", model),
        "delay_limited_csit": delay_limited_limit(snr, "csit", model),
    }
    outdir = _outdir(cfg)
    base = f"limits_{_model_tag(cfg['model'])}"
    written = []
    if cfg["format"] in ("json", "both"):
        payload = {
            "command": "limits",
            "config": {k: v for k, v in cfg.items() if k != "command"},
            "results": results,
        }
        path = os.path.join(outdir, base + ".json")
        _write_json(path, payload)
        written.append(path)
    if cfg["format"] in ("csv", "both"):
        rows = [(k, v) for k, v in results.items() if k != "snr"]
        path = os.path.join(outdir, base + ".csv")
        lines = ["quantity,spectral_efficiency_bps_hz"]
        for name, val in rows:
            lines.append(f"{name},{_fmt_cell(val)}")
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    return written, []


_DISPATCH = {
    "sweep": _run_sweep,
    "asymptotics": _run_asymptotics,
    "alpha-star": _run_alpha_star,
    "surface": _run_surface,
    "simulate-queue": _run_simulate_queue,
    "limits": _run_limits,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        written, notes = _DISPATCH[args.command](cfg)
    except NumericalError as exc:
        print(f"{args.command}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{args.command}: filesystem error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(f"wrote {path}")
    for note in notes:
        print(note)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
