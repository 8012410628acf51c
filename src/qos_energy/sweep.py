"""Dataset generation: tradeoff curves, bit-energy surfaces, threshold curves.

Everything here is a deterministic map from a declarative spec to arrays of
floats, so reruns with the same inputs are byte-identical.  _walk walks each
grid line (a tradeoff curve, an alpha(zeta) curve, a surface row): every
point starts its threshold solve at the root of the point before it, and a
point where the numerics give up becomes a gap (None) with a Python warning,
makes the next point start cold, and never aborts the sweep.  The last bits
of a CSIT point therefore depend on where its line starts; its contract is
the solver tolerance (1e-13 in ln(alpha)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .asymptotics import (
    AlphaStarSolution,
    AsymptoticSummary,
    _solve_alpha_star,
    lowpower_csir,
    lowpower_csit,
    solve_alpha_star,
    wideband_csir,
    wideband_csit,
)
from .effcap import (
    LN2,
    QosConfig,
    _check_mode,
    _csit_point,
    _solve_alpha_ln,
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

    mode: str
    theta_grid: tuple
    pbar_grid: tuple
    ebn0_min_db: tuple
    failures: int = 0


def _walk(point, theta: float, values, what: str, axis: str) -> list:
    """Results of point(theta, value, start) -> (result, root) along values,
    each started at the root of the point before.  A point that raises
    NumericalError warns; it and a point that returns (None, None) are
    stored as None, and the next point starts cold."""
    results, start = [], None
    for value in values:
        try:
            result, start = point(theta, value, start)
        except NumericalError as exc:
            warnings.warn(
                f"{what} failed at theta={theta:g}, {axis}={value:g}: {exc}",
                stacklevel=3,
            )
            result = start = None
        results.append(result)
    return results


def _point_se(spec: SweepSpec, theta: float, g: float, start: float | None):
    """(spectral efficiency, CSIT root in ln(alpha) or None) at grid value g,
    the CSIT solve started at start; (None, None) for a rate that is not
    positive and finite."""
    if spec.regime == LOWPOWER:
        snr = g
        qos = QosConfig(theta=theta, T=spec.T, B=spec.B)
    else:
        snr = spec.pbar_over_n0 * g
        qos = QosConfig(theta=theta, T=spec.T, B=1.0 / g)
    root = None
    if spec.mode == "csit":
        se, root = _csit_point(snr, qos, spec.model, start)
    elif theta == 0:
        se = shannon_limit(snr, spec.mode, qos, spec.model)
    else:
        se = spectral_efficiency_csir(snr, qos, spec.model)
    if not (se > 0 and math.isfinite(se)):
        return None, None
    return se, root


def _asymptote(
    model: FadingModel,
    mode: str,
    regime: str,
    theta: float,
    T: float,
    B: float | None,
    pbar_over_n0: float | None,
) -> AsymptoticSummary:
    """Bit-energy floor and slope for one mode/regime; B is used only in
    the lowpower regime and pbar_over_n0 only in the wideband one."""
    if regime == LOWPOWER:
        beta = theta * T * B / LN2
        if mode == "csir":
            return lowpower_csir(model, beta)
        return lowpower_csit(model, beta)
    if mode == "csir":
        return wideband_csir(model, theta, T, pbar_over_n0)
    return wideband_csit(model, theta, T, pbar_over_n0)


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
    curves = []
    for theta in spec.theta_list:
        ses = _walk(
            partial(_point_se, spec), theta, spec.grid, "tradeoff point", "grid"
        )
        failures = ses.count(None)
        scale = 1.0 if spec.regime == LOWPOWER else spec.pbar_over_n0
        pts = [
            TradeoffPoint(None if se is None else bit_energy_db(scale * g, se), se)
            for g, se in zip(spec.grid, ses)
        ]
        if spec.mode == "csir" and spec.regime == WIDEBAND:
            _check_rate_monotone(theta, spec.grid, pts)
        try:
            asym = _asymptote(
                spec.model,
                spec.mode,
                spec.regime,
                theta,
                spec.T,
                spec.B,
                spec.pbar_over_n0,
            )
        except NumericalError as exc:
            warnings.warn(
                f"asymptote failed for theta={theta:g}: {exc}", stacklevel=2
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

    CSIT cells take the floor from the xi of solve_alpha_star.  Cells that
    fail numerically are stored as None; a CSIT floor of 0 linear
    (unbounded gains at theta = 0) is stored as -inf dB.
    """
    _check_mode(mode)
    thetas = tuple(float(t) for t in theta_grid)
    pbars = tuple(float(p) for p in pbar_grid)

    def cell(theta: float, pn0: float, start: float | None):
        if mode == "csir" or theta == 0:
            summary = _asymptote(model, mode, WIDEBAND, theta, T, None, pn0)
            return summary.ebn0_min_db, None
        sol = _solve_alpha_star(model, theta, T, pn0, start)
        return to_db(-theta * T * pn0 / sol.ln_xi), sol.ln_alpha_star

    rows = []
    for theta in thetas:
        rows.append(tuple(_walk(cell, theta, pbars, "surface cell", "pbar_over_n0")))
    return Surface(
        mode=mode,
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
    and the limit threshold is z_max (inf for unbounded gains).
    """
    if zeta_grid is None:
        zeta_grid = default_grid(WIDEBAND)
    zetas = tuple(float(z) for z in zeta_grid)

    def point(theta: float, zeta: float, start: float | None):
        beta = theta * T / (zeta * LN2)
        ln_a = _solve_alpha_ln(pbar_over_n0 * zeta, beta, model, start)
        return math.exp(ln_a), ln_a

    curves = []
    for theta in theta_list:
        theta = float(theta)
        star = solve_alpha_star(model, theta, T, pbar_over_n0)
        alphas = _walk(point, theta, zetas, "threshold", "zeta")
        curves.append(
            AlphaZetaCurve(
                theta=theta,
                zetas=zetas,
                alphas=tuple(alphas),
                star=star,
            )
        )
    return curves
