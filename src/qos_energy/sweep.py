"""Dataset generation: tradeoff curves, bit-energy surfaces, threshold curves.

Everything here is a deterministic map from a declarative spec to arrays of
floats, so reruns with the same inputs are byte-identical.  Grid points
where the numerics give up produce gap markers (None) plus a Python
warning instead of aborting the whole sweep.

The CSIT grid loops (each tradeoff curve, each alpha(zeta) curve and each
row of the CSIT surface) start every threshold solve at the root of the
grid point before it, and solve cold again after a gap.  The last bits of
a point therefore depend on its neighbour and on where its curve starts;
its contract is the solver tolerance (1e-13 in ln(alpha)), not the bits of
a lone solve of the same point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
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
    _csit_point,
    _solve_alpha_ln,
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
        if self.mode not in ("csir", "csit"):
            raise ValueError(f"mode must be 'csir' or 'csit', got {self.mode!r}")
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
    """Power-policy threshold alpha(zeta) at fixed theta, with its limit."""

    label: str
    theta: float
    zetas: tuple
    alphas: tuple
    alpha_star: float


@dataclass(frozen=True)
class Surface:
    """ebn0_min_db[i][j] over (theta_grid[i], pbar_grid[j]); None = failed."""

    mode: str
    theta_grid: tuple
    pbar_grid: tuple
    ebn0_min_db: tuple
    failures: int = 0


def _point_se(spec: SweepSpec, theta: float, g: float, warm: list) -> float:
    """Spectral efficiency at grid value g.

    warm is a one-item list holding the previous CSIT threshold of the
    curve in ln(alpha), or None; a CSIT point starts its solve there and
    stores its own threshold in its place.
    """
    if spec.regime == LOWPOWER:
        snr = g
        qos = QosConfig(theta=theta, T=spec.T, B=spec.B)
    else:
        snr = spec.pbar_over_n0 * g
        qos = QosConfig(theta=theta, T=spec.T, B=1.0 / g)
    if spec.mode == "csit":
        se, warm[0] = _csit_point(snr, qos, spec.model, warm[0])
        return se
    if theta == 0:
        return shannon_limit(snr, spec.mode, qos, spec.model)
    return spectral_efficiency_csir(snr, qos, spec.model)


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
        pts = []
        failures = 0
        warm = [None]
        for g in spec.grid:
            try:
                se = _point_se(spec, theta, g, warm)
            except NumericalError as exc:
                warnings.warn(
                    f"tradeoff point failed at theta={theta:g}, grid={g:g}: {exc}",
                    stacklevel=2,
                )
                se = None
            if se is None or se <= 0 or not math.isfinite(se):
                pts.append(TradeoffPoint(None, None))
                failures += 1
                warm[0] = None
                continue
            snr = g if spec.regime == LOWPOWER else spec.pbar_over_n0 * g
            pts.append(TradeoffPoint(to_db(snr / se), se))
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
    if mode not in ("csir", "csit"):
        raise ValueError(f"mode must be 'csir' or 'csit', got {mode!r}")
    thetas = tuple(float(t) for t in theta_grid)
    pbars = tuple(float(p) for p in pbar_grid)
    rows = []
    failures = 0
    for theta in thetas:
        row = []
        ln_star = None
        for pn0 in pbars:
            try:
                if mode == "csir":
                    val = wideband_csir(model, theta, T, pn0).ebn0_min_db
                elif theta == 0:
                    val = lowpower_csit(model, 0.0).ebn0_min_db
                else:
                    sol = _solve_alpha_star(model, theta, T, pn0, ln_star)
                    ln_star = sol.ln_alpha_star
                    val = 10.0 * math.log10(-theta * T * pn0 / sol.ln_xi)
            except NumericalError as exc:
                warnings.warn(
                    f"surface cell failed at theta={theta:g}, "
                    f"pbar_over_n0={pn0:g}: {exc}",
                    stacklevel=2,
                )
                val = None
                failures += 1
                ln_star = None
            row.append(val)
        rows.append(tuple(row))
    return Surface(
        mode=mode,
        theta_grid=thetas,
        pbar_grid=pbars,
        ebn0_min_db=tuple(rows),
        failures=failures,
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
    curves = []
    for theta in theta_list:
        theta = float(theta)
        if theta == 0:
            alpha_star = model.z_max
        else:
            alpha_star = solve_alpha_star(model, theta, T, pbar_over_n0).alpha_star
        alphas = []
        ln_a = None
        for zeta in zetas:
            beta = theta * T / (zeta * LN2)
            try:
                ln_a = _solve_alpha_ln(pbar_over_n0 * zeta, beta, model, ln_a)
                alphas.append(math.exp(ln_a))
            except NumericalError as exc:
                warnings.warn(
                    f"threshold failed at theta={theta:g}, zeta={zeta:g}: {exc}",
                    stacklevel=2,
                )
                alphas.append(None)
                ln_a = None
        curves.append(
            AlphaZetaCurve(
                label=f"theta={theta:g}",
                theta=theta,
                zetas=zetas,
                alphas=tuple(alphas),
                alpha_star=alpha_star,
            )
        )
    return curves
