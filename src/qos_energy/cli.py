"""Command line front end.

qos-energy <command> [--config FILE] [flags...]

Commands
    sweep           SE vs Eb/N0 tradeoff curves over a log grid
    asymptotics     bit-energy floor and wideband slope per theta
    alpha-star      CSIT thresholds alpha(zeta) and their zeta -> 0 limits
    surface         Eb/N0|min over a (theta, Pbar/N0) grid
    simulate-queue  Lindley queue tail versus the QoS exponent
    limits          Shannon and delay-limited spectral efficiencies

Flags override --config values, which override built-in defaults; a JSON
null means the default.  Each command accepts only its own flags and
config keys; anything else is rejected (exit 2).  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 filesystem error.  Floating
point infinities are written as "inf"/"-inf" strings in JSON; unavailable
values are null in JSON and empty fields in CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np

from .asymptotics import AsymptoticSummary, _asymptotes
from .effcap import QosConfig, delay_limited_limit, shannon_limit
from .errors import NumericalError
from .fading import _MODELS, from_config
from .queuesim import SimConfig, predicted_effective_capacity, simulate_queue
from .sweep import (
    LOWPOWER,
    WIDEBAND,
    SweepSpec,
    _gap,
    alpha_vs_zeta,
    default_grid,
    ebn0_min_surface,
    tradeoff_curve,
)

# Ceiling on grid_points: far above any figure's needs, and low enough that
# an oversized value is a configuration error, not an allocation failure.
MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    """Bad flag or config-file value; maps to exit code 2."""


# A parser takes (key, value) and returns the checked value or raises a
# ConfigError that names the key.  Flag text reaches it as argparse read
# it: through the parser's `flag_type` if it has one, and checked against
# its `choices` if any.  Numbers in a config file must be JSON numbers, so
# only flags turn text into numbers.


def _number(key: str, raw) -> float:
    """A float from a JSON number; a boolean or a string is not a number."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise ConfigError(f"{key}: {raw!r} is not a number")


def _positive(key: str, raw) -> float:
    val = _number(key, raw)
    if not (val > 0 and math.isfinite(val)):
        raise ConfigError(f"{key} must be positive and finite, got {val}")
    return val


_positive.flag_type = float


def _floats(key: str, raw, positive: bool = True) -> list:
    """A non-empty list of finite numbers, each > 0 (or >= 0)."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{key}: expected a non-empty list of numbers")
    vals = [_number(key, x) for x in raw]
    for val in vals:
        if not (math.isfinite(val) and (val > 0 if positive else val >= 0)):
            rule = "> 0" if positive else ">= 0"
            raise ConfigError(f"{key} values must be finite and {rule}, got {val}")
    return vals


def _theta(key: str, raw) -> list:
    """QoS exponents: a list of numbers >= 0, or one bare number."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw]
    return _floats(key, raw, positive=False)


def _theta_text(text: str) -> list:
    """Comma-separated numbers, as --theta takes them."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of numbers") from None


_theta.flag_type = _theta_text


def _increasing(key: str, raw) -> list:
    """At least two strictly increasing numbers > 0: a tail fit needs two."""
    vals = _floats(key, raw)
    if len(vals) < 2:
        raise ConfigError(f"{key} needs at least two values")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{key} must be strictly increasing")
    return vals


def _integer(minimum: int, maximum: float = math.inf):
    """Parser for a whole number in [minimum, maximum]."""

    def parse(key: str, raw) -> int:
        whole = isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()
        if isinstance(raw, bool) or not whole:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
        val = int(raw)
        if val < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {val}")
        if val > maximum:
            raise ConfigError(f"{key} must be <= {maximum}, got {val}")
        return val

    parse.flag_type = int
    return parse


def _one_of(*choices: str):
    """Parser for one of a fixed set of strings."""

    def parse(key: str, raw) -> str:
        if not isinstance(raw, str) or raw not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {raw!r}")
        return raw

    parse.choices = choices
    return parse


def _string(key: str, raw) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{key}: expected a string, got {raw!r}")
    return raw


# Every config key: (parser, flag or None, flag help).
_KEYS = {
    "theta": (_theta, "--theta", "comma-separated QoS exponents, e.g. 0,0.01,1"),
    "T": (_positive, "--T", "frame duration in seconds"),
    "B": (_positive, "--B", "bandwidth in Hz"),
    "pbar_over_n0": (_positive, "--pn0", "power to noise spectral density Pbar/N0"),
    "mode": (_one_of("csir", "csit"), "--mode", "CSI assumption"),
    "regime": (_one_of(LOWPOWER, WIDEBAND), "--regime",
               "low-SNR limit: P -> 0 at fixed B, or B -> inf at fixed P"),
    "grid_points": (_integer(2, MAX_GRID_POINTS), "--grid-points",
                    f"points per sweep grid, 2 to {MAX_GRID_POINTS}"),
    "seed": (_integer(0), "--seed", "PRNG seed for simulation"),
    "out": (_string, "--out", "output directory"),
    "format": (_one_of("csv", "json", "both"), "--format", "outputs"),
    "snr": (_positive, None, None),
    "pbar_grid": (_floats, None, None),
    "arrival_rate": (_positive, None, None),
    "arrival_ratio": (_positive, None, None),
    "frames": (_integer(1), None, None),
    "warmup_frames": (_integer(0), None, None),
    "thresholds": (_increasing, None, None),
}


# Each command computes from the resolved config and the built model, and
# returns (base name, JSON payload, CSV tables as (name, header, rows), notes).


def _model_tag(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "nakagami":
        return f"nakagami{spec['m']:g}"
    return kind


def _summary_dict(summary) -> dict:
    """The fields of an AsymptoticSummary, slope_s0 as s0; all null for None."""
    d = asdict(summary) if summary else dict.fromkeys(
        f.name for f in fields(AsymptoticSummary))
    d["s0"] = d.pop("slope_s0")
    return d


def _sweep(cfg: dict, model):
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
    base = f"sweep_{cfg['mode']}_{regime}_{_model_tag(cfg['model'])}"
    payload = {
        "curves": [
            {
                "label": c.label,
                "theta": c.theta,
                "asymptote": c.asymptote and _summary_dict(c.asymptote),
                "grid": list(c.grid),
                "points": [vars(p) for p in c.points],
            }
            for c in curves
        ]
    }
    # A gap point is (None, None), which writes the row ",".
    tables = [(f"{base}_theta{c.theta:g}", "ebn0_db,spectral_efficiency_bps_hz",
               [(p.ebn0_db, p.spectral_efficiency) for p in c.points])
              for c in curves]
    failures = sum(c.failures for c in curves)
    notes = [f"note: {failures} grid point(s) failed and were written as gaps"]
    return base, payload, tables, notes if failures else []


def _asymptotics(cfg: dict, model):
    summaries = _asymptotes(model, cfg["mode"], cfg["regime"], cfg["theta"],
                            cfg["T"], cfg["B"], cfg["pbar_over_n0"])
    summaries = [_gap(s, "asymptote failed for theta={:g}", t)
                 for t, s in zip(cfg["theta"], summaries)]
    if not any(summaries):
        raise NumericalError("the asymptote failed for every theta")
    # A failed theta is a row of nulls.
    results = [{**_summary_dict(s), "theta": t} for t, s in zip(cfg["theta"], summaries)]
    base = f"asymptotics_{cfg['mode']}_{cfg['regime']}_{_model_tag(cfg['model'])}"
    rows = [
        (r["theta"], r["ebn0_min_linear"], r["ebn0_min_db"], r["s0"]) for r in results
    ]
    table = (base, "theta,ebn0_min_linear,ebn0_min_db,slope_s0", rows)
    return base, {"results": results}, [table], []


def _alpha_star(cfg: dict, model):
    zeta_grid = default_grid(WIDEBAND, cfg["grid_points"])
    curves = alpha_vs_zeta(model, cfg["theta"], cfg["T"], cfg["pbar_over_n0"],
                           zeta_grid)
    if not any(c.star for c in curves):
        raise NumericalError("alpha* failed for every theta")
    # A failed alpha* is a row of nulls.
    keys = ("alpha_star", "xi", "alpha_dot_zero", "ln_alpha_star", "ln_xi")
    results = [{"theta": c.theta, **{k: c.star and getattr(c.star, k) for k in keys}}
               for c in curves]
    mtag = _model_tag(cfg["model"])
    payload = {
        "results": results,
        "curves": [
            {"theta": c.theta, "zetas": c.zetas, "alphas": c.alphas,
             "alpha_star": r["alpha_star"]} for c, r in zip(curves, results)
        ],
    }
    rows = [(r["theta"], r["alpha_star"], r["xi"], r["alpha_dot_zero"])
            for r in results]
    tables = [(f"alpha_star_{mtag}", "theta,alpha_star,xi,alpha_dot_zero", rows)]
    for c in curves:
        name = f"alpha_vs_zeta_{mtag}_theta{c.theta:g}"
        tables.append((name, "zeta,alpha", list(zip(c.zetas, c.alphas))))
    return f"alpha_star_{mtag}", payload, tables, []


def _surface(cfg: dict, model):
    surf = ebn0_min_surface(cfg["mode"], model, cfg["theta"], cfg["pbar_grid"],
                            cfg["T"])
    base = f"surface_{cfg['mode']}_{_model_tag(cfg['model'])}"
    payload = vars(surf)
    rows = []
    for theta, row in zip(surf.theta_grid, surf.ebn0_min_db):
        for pn0, val in zip(surf.pbar_grid, row):
            rows.append((theta, pn0, val))
    table = (base, "theta,pbar_over_n0,ebn0_min_db", rows)
    notes = [f"note: {surf.failures} surface cell(s) failed"]
    return base, payload, [table], notes if surf.failures else []


def _simulate_queue(cfg: dict, model):
    if len(cfg["theta"]) != 1:
        raise ConfigError(
            f"simulate-queue needs exactly one theta, got {len(cfg['theta'])}"
        )
    theta = cfg["theta"][0]
    if theta <= 0:
        raise ConfigError("simulate-queue needs theta > 0")
    warm = cfg["warmup_frames"]
    if warm is not None and warm >= cfg["frames"]:
        raise ConfigError(
            f"warmup_frames must be below frames, got {warm} with "
            f"frames={cfg['frames']}"
        )
    if cfg["arrival_rate"] is not None and cfg["arrival_ratio"] is not None:
        raise ConfigError("give one of arrival_rate and arrival_ratio, not both")
    qos = QosConfig(theta=theta, T=cfg["T"], B=cfg["B"])
    predicted = predicted_effective_capacity(model, cfg["snr"], qos, cfg["mode"])
    # The JSON records the arrival rate and the thresholds the run used.
    if cfg["arrival_rate"] is None:
        cfg["arrival_rate"] = cfg["arrival_ratio"] * predicted
        if not cfg["arrival_rate"] > 0:
            raise NumericalError(
                "derived arrival rate is not positive; the predicted "
                "effective capacity is zero at this setting"
            )
    if cfg["thresholds"] is None:
        cfg["thresholds"] = [k / theta for k in range(2, 9)]
    sim = SimConfig(
        model=model,
        snr=cfg["snr"],
        qos=qos,
        mode=cfg["mode"],
        arrival_rate=cfg["arrival_rate"],
        frames=cfg["frames"],
        seed=cfg["seed"],
        q_thresholds=tuple(cfg["thresholds"]),
        warmup_frames=warm,
    )
    tail = simulate_queue(sim)
    base = f"queue_{cfg['mode']}_{_model_tag(cfg['model'])}_theta{theta:g}"
    results = {
        **vars(tail),
        "theta": theta,
        "arrival_rate": cfg["arrival_rate"],
        "predicted_effective_capacity": predicted,
        "decay_over_theta": tail.fitted_decay / theta,
    }
    rows = list(zip(tail.thresholds, tail.log_tail_probs))
    note = (
        f"fitted decay {tail.fitted_decay:.6g} vs theta {theta:g} "
        f"(ratio {tail.fitted_decay / theta:.4g}), r^2 {tail.fit_rsquared:.6f}"
    )
    table = (base, "q_threshold,log_tail_prob", rows)
    return base, {"results": results}, [table], [note]


def _limits(cfg: dict, model):
    qos = QosConfig(theta=0.0, T=cfg["T"], B=cfg["B"])
    results = {"snr": cfg["snr"]}
    # A refused value is a null.
    for name, limit, args in (("shannon", shannon_limit, (qos, model)),
                              ("delay_limited", delay_limited_limit, (model,))):
        for mode in ("csir", "csit"):
            try:
                value = limit(cfg["snr"], mode, *args)
            except NumericalError as exc:
                value = _gap(exc, "{}_{} failed", name, mode)
            results[f"{name}_{mode}"] = value
    rows = [(k, v) for k, v in results.items() if k != "snr"]
    if all(v is None for _, v in rows):
        raise NumericalError("every limit failed")
    base = f"limits_{_model_tag(cfg['model'])}"
    table = (base, "quantity,spectral_efficiency_bps_hz", rows)
    return base, {"results": results}, [table], []


_THETAS = [0.0, 0.001, 0.01, 0.1, 1.0]
_COMMON = {"seed": 12345, "out": ".", "format": "both"}

# name -> (help, compute, {key: default}).  A callable default receives the
# keys resolved before it; a None default leaves the key unset.
_COMMANDS = {
    "sweep": ("spectral efficiency vs Eb/N0 curves", _sweep,
              {"theta": _THETAS, "T": 2e-3, "B": 1e5, "pbar_over_n0": 1e4,
               "mode": "csir", "regime": LOWPOWER, "grid_points": 60, **_COMMON}),
    "asymptotics": ("bit-energy floors and wideband slopes", _asymptotics,
                    {"theta": _THETAS, "T": 2e-3, "B": 1e5, "pbar_over_n0": 1e4,
                     "mode": "csir", "regime": LOWPOWER, **_COMMON}),
    "alpha-star": ("CSIT power thresholds alpha(zeta) and limits", _alpha_star,
                   {"theta": _THETAS, "T": 2e-3, "pbar_over_n0": 1e4,
                    "grid_points": 60, **_COMMON}),
    "surface": ("Eb/N0 floor over a (theta, Pbar/N0) grid", _surface,
                {"grid_points": 20,
                 "theta": lambda c: list(np.logspace(-3.0, 0.0, c["grid_points"])),
                 "T": 2e-3, "mode": "csir",
                 "pbar_grid": lambda c: list(np.logspace(2.0, 6.0, c["grid_points"])),
                 **_COMMON}),
    "simulate-queue": ("queue-tail validation of the QoS exponent", _simulate_queue,
                       {"theta": [0.05], "T": 2e-3, "B": 1e5, "mode": "csir",
                        "snr": 1.0, "arrival_rate": None,
                        "arrival_ratio": lambda c: None if c["arrival_rate"] else 1.0,
                        "frames": 1_000_000,
                        # None: 1% of frames, as the simulator defaults
                        "warmup_frames": None,
                        # None: k/theta for k = 2..8, set by _simulate_queue
                        "thresholds": None,
                        **_COMMON}),
    "limits": ("Shannon and delay-limited spectral efficiencies", _limits,
               {"snr": 1.0, "T": 2e-3, "B": 1e5, **_COMMON}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, every command with its options, built once per
    process and shared by every call, which only parses with it."""
    parser = argparse.ArgumentParser(
        prog="qos-energy",
        description="Effective-capacity energy/bandwidth tradeoffs under QoS "
        "constraints for block-fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command_help, _, defaults) in _COMMANDS.items():
        # No abbreviations: `--mode` would otherwise select `--model` on a
        # command that has no `--mode`.
        p = sub.add_parser(name, help=command_help, allow_abbrev=False)
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        p.add_argument("--model", help="fading model kind", choices=list(_MODELS))
        p.add_argument("--m", type=float, help="Nakagami shape parameter")
        p.add_argument("--mean", type=float,
                       help="mean channel gain (the fixed gain z0 for deterministic)")
        for key, (parse, flag, flag_help) in _KEYS.items():
            if flag is not None and key in defaults:
                p.add_argument(flag, dest=key, help=flag_help,
                               type=getattr(parse, "flag_type", None),
                               choices=getattr(parse, "choices", None))
    return parser


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
    allowed = {"model", *_COMMANDS[command][2]}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    return data


def _resolve_model(cfg: dict, args) -> dict:
    spec = {"kind": "rayleigh"}
    raw = cfg.get("model")
    if raw is not None:
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError("model: expected an object with a 'kind' key")
        spec = dict(raw)
    if args.model is not None and args.model != spec.get("kind"):
        spec = {"kind": args.model}
    if args.m is not None:
        spec["m"] = args.m
    kind = spec.get("kind")
    if args.mean is not None:
        spec["z0" if kind == "deterministic" else "mean"] = args.mean
    if kind == "nakagami" and "m" not in spec:
        raise ConfigError("nakagami model needs the shape parameter --m")
    if kind == "table" and "points" not in spec:
        raise ConfigError(
            "table model needs 'points' ([[z, p], ...]) from a config file"
        )
    if kind == "deterministic" and spec.get("z0") is None:
        z0 = spec.pop("mean", None)
        spec["z0"] = 1.0 if z0 is None else z0
    return spec


def _resolve(args):
    """The command's config and model.  Each key takes its flag, else its
    config value, else its default, and then passes the key's parser."""
    defaults = _COMMANDS[args.command][2]
    data = _load_config_file(args.config, args.command) if args.config else {}
    spec = _resolve_model(data, args)
    try:
        model = from_config(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from None
    for key, default in _MODELS[model.kind][1].items():
        if spec.get(key) is None:
            spec[key] = default
    cfg = {"model": spec}
    for key, default in defaults.items():
        val = getattr(args, key, None)
        if val is None:
            val = data.get(key)
        if val is None:
            val = default(cfg) if callable(default) else default
        cfg[key] = None if val is None else _KEYS[key][0](key, val)
    return cfg, model


def _fmt_cell(x) -> str:
    """CSV cell: text as is, "" if missing, inf/-inf spelled out, 12 digits."""
    if isinstance(x, str):
        return x
    if x is None or math.isnan(x):
        return ""
    return f"{float(x):.12g}" if math.isfinite(x) else "inf" if x > 0 else "-inf"


_esc = json.encoder.encode_basestring_ascii
_encode = json.JSONEncoder().encode


def _finite_floats(col) -> bool:
    """Every item a finite built-in float; a sum that overflows says no."""
    return {*map(type, col)} == {float} and math.isfinite(sum(col))


def _scalar(x) -> str:
    """JSON of a scalar or an empty container; "inf", "-inf", "nan" as strings."""
    x = x.item() if isinstance(x, (np.floating, np.integer)) else x
    if isinstance(x, float) and not math.isfinite(x):
        return '"nan"' if x != x else '"inf"' if x > 0 else '"-inf"'
    return _encode(x)


def _texts(items, nl: str):
    """JSON texts of the items at the indent `nl`, or None: scalars, and dicts
    with one key set holding such items, by one %-template over the columns."""
    if _finite_floats(items):
        return map(float.__repr__, items)
    if not any(isinstance(v, (dict, list, tuple)) and v for v in items):
        return map(_scalar, items)
    if {*map(type, items)} != {dict} or len({*map(tuple, items)}) != 1:
        return None
    keys = sorted(items[0])
    cols = [_texts([d[k] for d in items], nl + "  ") for k in keys]
    if None in cols:
        return None
    at = "," + nl + "  "
    tpl = "{" + at[1:] + at.join(_esc(k).replace("%", "%%") + ": %s" for k in keys)
    return map((tpl + nl + "}").__mod__, zip(*cols))


def _json(obj, nl: str, parts: list) -> list:
    """`parts` with the text of json.dumps(obj, indent=2, sort_keys=True) at
    the indent `nl` appended, scalars as _scalar writes them."""
    inner = nl + "  "
    sep = "," + inner
    if not obj or not isinstance(obj, (dict, list, tuple)):
        parts.append(_scalar(obj))
    elif isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            parts.append((sep if i else "{" + inner) + _esc(key) + ": ")
            _json(obj[key], inner, parts)
        parts.append(nl + "}")
    elif (texts := _texts(obj, inner)) is not None:
        parts.append("[" + inner + sep.join(texts) + nl + "]")
    else:
        for i, item in enumerate(obj):
            parts.append(sep if i else "[" + inner)
            _json(item, inner, parts)
        parts.append(nl + "]")
    return parts


def _csv_lines(rows):
    """CSV lines, each column of finite floats formatted in one map."""
    if len({*map(len, rows)}) == 1 and rows[0]:
        fmt = "{:.12g}".format
        cols = [map(fmt if _finite_floats(c) else _fmt_cell, c) for c in zip(*rows)]
        return map(",".join, zip(*cols))
    return [",".join(map(_fmt_cell, row)) for row in rows]


def _write(command: str, cfg: dict, base: str, payload: dict, tables) -> list:
    """Write <base>.json and each table as <name>.csv into `out`, as
    `format` selects; return the paths written."""
    os.makedirs(cfg["out"], exist_ok=True)
    files = []
    if cfg["format"] != "csv":
        doc = {"command": command, "config": cfg, **payload}
        files.append((base + ".json", "".join(_json(doc, "\n", []))))
    if cfg["format"] != "json":
        files += [(name + ".csv", "\n".join([header, *_csv_lines(rows)]))
                  for name, header, rows in tables]
    for name, text in files:
        with open(os.path.join(cfg["out"], name), "wb") as fh:
            fh.write(text.encode() + b"\n")
    return [os.path.join(cfg["out"], name) for name, _ in files]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits only through ArgumentParser.exit, with an int status
        return exc.code
    command = args.command
    notes = []
    try:
        cfg, model = _resolve(args)
        # The package's warnings (gaps, a divergent E{1/z}) become notes;
        # every other warning shows as it would.
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            show = warnings.showwarning

            def note(message, category, *rest):
                if issubclass(category, UserWarning):
                    notes.append(f"note: {message}")
                else:
                    show(message, category, *rest)

            warnings.showwarning = note
            base, payload, tables, own = _COMMANDS[command][1](cfg, model)
        notes += own
        written = _write(command, cfg, base, payload, tables)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(*notes, f"{command}: numerical failure: {exc}", sep="\n", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(*notes, f"{command}: {exc}", sep="\n", file=sys.stderr)
        return 3
    except OSError as exc:
        print(*notes, f"{command}: filesystem error: {exc}", sep="\n", file=sys.stderr)
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
