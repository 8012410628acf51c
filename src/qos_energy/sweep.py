"""Dataset generation: tradeoff curves, bit-energy surfaces, threshold curves.

Everything here is a deterministic map from a declarative spec to arrays of
floats, so reruns with the same inputs are byte-identical.  Each CSIT grid
line (a tradeoff curve, an alpha(zeta) curve) solves all its thresholds as
one batch, and each call solves all its alpha* as one; a row of a batch
gets the same bits as a solve of that point alone.  _gaps then walks the
line: a point where the numerics give up becomes a gap (None) with a
Python warning and never aborts the sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    AlphaStarSolution,
    AsymptoticSummary,
    _alpha_star_rows,
    _asymptotes,
    _bit_energy_floor,
    _laplace,
    _alpha_star_roots,
)
from .effcap import (
    _MIN_NORMAL,
    LN2,
    QosConfig,
    _check_mode,
    _csit_rows,
    _power_rows,
    bit_energy_db,
    shannon_limit,
    spectral_efficiency_csir,
    to_db,
)
from .errors import NumericalError
from .fading import FadingModel

LOWPOWER = "lowpower"
WIDEBAND = "wideband"

# Relative slack when asserting that total rate grows with bandwidth.
_MONOTONE_SLACK = 1e-9


def default_grid(regime: str, n: int = 60) -> np.ndarray:
    """Log-spaced sweep grid: SNR for lowpower, zeta = 1/B for wideband."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if regime == LOWPOWER:
        return np.logspace(-5.0, 1.0, n)
    if regime == WIDEBAND:
        return np.logspace(-9.0, -3.0, n)
    raise ValueError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: fading model, CSI mode, regime, QoS exponents, grid.

    lowpower sweeps SNR at fixed bandwidth B; wideband sweeps zeta = 1/B at
    fixed pbar_over_n0.  grid defaults to the standard 60-point log grid of
    the regime.
    """

    model: FadingModel
    mode: str
    regime: str
    theta_list: tuple
    T: float
    B: float | None = None
    pbar_over_n0: float | None = None
    grid: tuple | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        if self.regime not in (LOWPOWER, WIDEBAND):
            raise ValueError(
                f"regime must be '{LOWPOWER}' or '{WIDEBAND}', got {self.regime!r}"
            )
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T}")
        thetas = tuple(float(t) for t in self.theta_list)
        if not thetas:
            raise ValueError("theta_list must not be empty")
        for t in thetas:
            if not (t >= 0 and math.isfinite(t)):
                raise ValueError(f"theta must be finite and >= 0, got {t}")
        object.__setattr__(self, "theta_list", thetas)
        if self.regime == LOWPOWER:
            if self.B is None or not (self.B > 0):
                raise ValueError("lowpower sweep requires a positive bandwidth B")
        else:
            if self.pbar_over_n0 is None or not (self.pbar_over_n0 > 0):
                raise ValueError("wideband sweep requires a positive pbar_over_n0")
        grid = self.grid if self.grid is not None else default_grid(self.regime)
        grid = tuple(float(g) for g in grid)
        if len(grid) < 1:
            raise ValueError("grid must not be empty")
        for g in grid:
            if not (g > 0 and math.isfinite(g)):
                raise ValueError(f"grid values must be positive, got {g}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class TradeoffPoint:
    """One sample of the SE vs Eb/N0 tradeoff; (None, None) marks a gap."""

    ebn0_db: float | None
    spectral_efficiency: float | None


@dataclass(frozen=True)
class Curve:
    """Tradeoff samples for a single theta, with the matching asymptote."""

    label: str
    theta: float
    points: tuple
    asymptote: AsymptoticSummary | None
    grid: tuple
    failures: int = 0


@dataclass(frozen=True)
class AlphaZetaCurve:
    """Power-policy threshold alpha(zeta) at fixed theta, with its zeta -> 0
    limit star."""

    theta: float
    zetas: tuple
    alphas: tuple
    star: AlphaStarSolution


@dataclass(frozen=True)
class Surface:
    """ebn0_min_db[i][j] over (theta_grid[i], pbar_grid[j]); None = failed."""

    theta_grid: tuple
    pbar_grid: tuple
    ebn0_min_db: tuple
    failures: int = 0


def _gaps(results, theta: float, values, what: str, axis: str) -> list:
    """The results of one grid line, one per value, with each NumericalError
    warned about and stored as None."""
    out = []
    for value, result in zip(values, results):
        if isinstance(result, NumericalError):
            warnings.warn(
                f"{what} failed at theta={theta:g}, {axis}={value:g}: {result}",
                stacklevel=3,
            )
            result = None
        out.append(result)
    return out


def _line_se(spec: SweepSpec, theta: float) -> list:
    """Spectral efficiency per grid value at theta, or the NumericalError
    of that point; None for a rate that is not positive and finite.  A CSIT
    line is one _csit_rows batch."""
    grid = np.array(spec.grid)
    if spec.regime == LOWPOWER:
        snrs, bands = grid, np.full(grid.size, float(spec.B))
    else:
        snrs, bands = spec.pbar_over_n0 * grid, 1.0 / grid
    if spec.mode == "csit":
        rows = _csit_rows(snrs, theta, spec.T, bands, spec.model)
        rows = [row if isinstance(row, NumericalError) else row[0] for row in rows]
    else:
        rows = [_csir_point(snr, QosConfig(theta, spec.T, b), spec.model)
                for snr, b in zip(snrs.tolist(), bands.tolist())]
    return [
        row if isinstance(row, NumericalError) or (row > 0 and math.isfinite(row))
        else None
        for row in rows
    ]


def _csir_point(snr: float, qos: QosConfig, model: FadingModel):
    """Spectral efficiency with receiver CSI, or the NumericalError raised."""
    try:
        if qos.theta == 0:
            return shannon_limit(snr, "csir", qos, model)
        return spectral_efficiency_csir(snr, qos, model)
    except NumericalError as exc:
        return exc


def _check_rate_monotone(theta: float, grid, points) -> None:
    """Total rate se/zeta must not grow with zeta (shrinking bandwidth)."""
    prev_ratio = None
    prev_zeta = None
    for zeta, pt in zip(grid, points):
        if pt.spectral_efficiency is None:
            continue
        ratio = pt.spectral_efficiency / zeta
        if prev_ratio is not None and ratio > prev_ratio * (1.0 + _MONOTONE_SLACK):
            raise NumericalError(
                f"rate per unit power is not monotone in bandwidth: "
                f"se/zeta rises from {prev_ratio:g} at zeta={prev_zeta:g} "
                f"to {ratio:g} at zeta={zeta:g} (theta={theta:g})"
            )
        prev_ratio = ratio
        prev_zeta = zeta


def tradeoff_curve(spec: SweepSpec) -> list[Curve]:
    """Sweep SE vs Eb/N0 for every theta in the spec; gaps never abort."""
    asyms = _asymptotes(spec.model, spec.mode, spec.regime, spec.theta_list,
                        spec.T, spec.B, spec.pbar_over_n0)
    curves = []
    for theta, asym in zip(spec.theta_list, asyms):
        ses = _gaps(_line_se(spec, theta), theta, spec.grid, "tradeoff point", "grid")
        failures = ses.count(None)
        scale = 1.0 if spec.regime == LOWPOWER else spec.pbar_over_n0
        pts = [
            TradeoffPoint(None if se is None else bit_energy_db(scale * g, se), se)
            for g, se in zip(spec.grid, ses)
        ]
        if spec.mode == "csir" and spec.regime == WIDEBAND:
            _check_rate_monotone(theta, spec.grid, pts)
        if isinstance(asym, NumericalError):
            warnings.warn(
                f"asymptote failed for theta={theta:g}: {asym}", stacklevel=2
            )
            asym = None
            failures += 1
        curves.append(
            Curve(
                label=f"{spec.mode} {spec.regime} theta={theta:g}",
                theta=theta,
                points=tuple(pts),
                asymptote=asym,
                grid=spec.grid,
                failures=failures,
            )
        )
    return curves


def ebn0_min_surface(
    mode: str, model: FadingModel, theta_grid, pbar_grid, T: float
) -> Surface:
    """Bit-energy floor in dB over a (theta, pbar_over_n0) grid.

    Cells at theta > 0 take the floor from -ln E{exp(-c z)}/c (CSIR) or
    from the xi of solve_alpha_star (CSIT), without the slope: a CSIT cell
    fails only when alpha* is not resolved or ln xi is not a negative
    normal double, never for the slope's H.  Cells that fail numerically
    are stored as None; a CSIT floor of 0 linear (unbounded gains at
    theta = 0) is stored as -inf dB.
    """
    _check_mode(mode)
    thetas = tuple(float(t) for t in theta_grid)
    pbars = tuple(float(p) for p in pbar_grid)

    solve = [(t, p) for t in thetas for p in pbars if mode == "csit" and t > 0]
    roots = iter(_alpha_star_roots(model, [t for t, _ in solve], T,
                                   [p for _, p in solve]))

    def cell(theta: float, pn0: float):
        try:
            if theta == 0:
                (row,) = _asymptotes(model, mode, WIDEBAND, [theta], T, None, pn0)
                return row if isinstance(row, NumericalError) else row.ebn0_min_db
            if mode == "csir":
                return to_db(LN2 / _laplace(model, theta * T * pn0 / LN2)[1])
            if isinstance(root := next(roots), NumericalError):
                return root
            ln_xi = root[-1]
            if not -math.inf < ln_xi <= -_MIN_NORMAL:
                return NumericalError(
                    f"ln xi = {ln_xi:g} is not a negative normal double"
                )
            return to_db(_bit_energy_floor(theta, T, pn0, ln_xi))
        except NumericalError as exc:
            return exc

    rows = [
        tuple(_gaps([cell(t, p) for p in pbars], t, pbars, "surface cell", "pbar_over_n0"))
        for t in thetas
    ]
    return Surface(
        theta_grid=thetas,
        pbar_grid=pbars,
        ebn0_min_db=tuple(rows),
        failures=sum(row.count(None) for row in rows),
    )


def alpha_vs_zeta(
    model: FadingModel,
    theta_list,
    T: float,
    pbar_over_n0: float,
    zeta_grid=None,
) -> list[AlphaZetaCurve]:
    """Finite-bandwidth thresholds alpha(zeta) and their zeta -> 0 limits.

    At theta = 0 the policy is water-filling at SNR = pbar_over_n0 * zeta
    and the limit threshold is z_max (inf for unbounded gains).  Each
    alpha(zeta) is exp of the threshold that the wideband CSIT sweep solves
    at the same point, and every limit comes from one _alpha_star_rows.
    """
    if zeta_grid is None:
        zeta_grid = default_grid(WIDEBAND)
    zetas = tuple(float(z) for z in zeta_grid)

    thetas = [float(theta) for theta in theta_list]
    stars = _alpha_star_rows(model, thetas, T, [pbar_over_n0] * len(thetas))
    curves = []
    for theta, star in zip(thetas, stars):
        if isinstance(star, NumericalError):
            raise star
        beta = np.array([QosConfig(theta, T, 1.0 / zeta).beta for zeta in zetas])
        try:
            roots, rows = _power_rows(pbar_over_n0 * np.array(zetas), beta, model)
            rows = [row or math.exp(x) for row, x in zip(rows, roots.x.tolist())]
        except NumericalError as exc:
            rows = [exc] * len(zetas)
        curves.append(
            AlphaZetaCurve(
                theta=theta,
                zetas=zetas,
                alphas=tuple(_gaps(rows, theta, zetas, "threshold", "zeta")),
                star=star,
            )
        )
    return curves
