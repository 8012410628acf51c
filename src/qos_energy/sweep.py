"""Dataset generation: tradeoff curves, bit-energy surfaces, threshold curves.

Everything here is a deterministic map from a declarative spec to arrays of
floats, so reruns with the same inputs are byte-identical.  A tradeoff
sweep takes the rates of all its grid lines, every theta at every grid
point, as one CSIR or CSIT batch (for CSIT, one batch of thresholds), as
alpha_vs_zeta takes its thresholds, and each call solves all its alpha*
as one; each batch forms its theta*T*B, or a surface its theta*T*(Pbar/N0),
as one exact product, and a row of a batch gets the same bits as that
point alone.  _gaps then walks the lines, theta by theta: a point where
the numerics give up becomes a gap (None) with a Python warning and never
aborts the sweep.
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
    _wideband_rows,
)
from .effcap import (
    _check_mode,
    _csir_rows,
    _fold,
    _csit_rows,
    _power_rows,
    _qos_rows,
    bit_energy_db,
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
    limit star (None where it failed)."""

    theta: float
    zetas: tuple
    alphas: tuple
    star: AlphaStarSolution | None


@dataclass(frozen=True)
class Surface:
    """ebn0_min_db[i][j] over (theta_grid[i], pbar_grid[j]); None = failed."""

    theta_grid: tuple
    pbar_grid: tuple
    ebn0_min_db: tuple
    failures: int = 0


def _gap(result, label: str, *args):
    """result, or None with a warning if it is a NumericalError; label, a
    format for args, names the point, and is formatted only then."""
    if isinstance(result, NumericalError):
        warnings.warn(f"{label.format(*args)}: {result}", stacklevel=3)
        return None
    return result


def _gaps(results, theta: float, values, what: str, axis: str) -> list:
    """The results of one grid line, one per value, each through _gap."""
    return [_gap(result, "{} failed at theta={:g}, {}={:g}", what, theta, axis, value)
            for value, result in zip(values, results)]


def _sweep_se(spec: SweepSpec) -> list:
    """Per theta of spec, the spectral efficiency per grid value, or the
    NumericalError of that point; None for a rate that is not positive and
    finite.  A sweep is one _csit_rows or _csir_rows batch over every theta
    and grid value."""
    grid = np.array(spec.grid)
    if spec.regime == LOWPOWER:
        snrs, bands = grid, np.full(grid.size, float(spec.B))
    else:
        snrs, bands = spec.pbar_over_n0 * grid, 1.0 / grid
    lines = len(spec.theta_list)
    batch = _csit_rows if spec.mode == "csit" else _csir_rows
    rows = batch(np.tile(snrs, lines), np.repeat(spec.theta_list, grid.size),
                 spec.T, np.tile(bands, lines), spec.model)
    rows = [
        row if isinstance(row, NumericalError)
        else se if 0 < (se := row[0] if spec.mode == "csit" else row) < math.inf
        else None
        for row in rows
    ]
    return [rows[k : k + grid.size] for k in range(0, len(rows), grid.size)]


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
    for theta, asym, ses in zip(spec.theta_list, asyms, _sweep_se(spec)):
        ses = _gaps(ses, theta, spec.grid, "tradeoff point", "grid")
        failures = ses.count(None)
        scale = 1.0 if spec.regime == LOWPOWER else spec.pbar_over_n0
        pts = [
            TradeoffPoint(None if se is None else bit_energy_db(scale * g, se), se)
            for g, se in zip(spec.grid, ses)
        ]
        if spec.mode == "csir" and spec.regime == WIDEBAND:
            _check_rate_monotone(theta, spec.grid, pts)
        asym = _gap(asym, "asymptote failed for theta={:g}", theta)
        failures += asym is None
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

    Every cell is a row of one _wideband_rows batch, the stage that forms
    the asymptotes' floors, theta by theta: the floor ln2/r from the
    model's pair at theta > 0 for CSIR, -theta*T*(Pbar/N0)/ln xi from one
    _alpha_star_roots batch for CSIT, and the fixed-bandwidth floor at
    theta = 0.  A cell reads the floor alone, so it fails only where its
    floor is refused, never for the slope.  Cells that fail numerically
    are stored as None; a CSIT floor of 0 linear (unbounded gains at theta
    = 0) is stored as -inf dB.  An argument outside the domain of
    wideband_csir raises ValueError.
    """
    _check_mode(mode)
    thetas = tuple(float(t) for t in theta_grid)
    pbars = tuple(float(p) for p in pbar_grid)
    n = len(pbars)
    floors = _wideband_rows(model, mode, np.repeat(thetas, n).tolist(), T, pbars * len(thetas))
    cells = [row if isinstance(row, NumericalError) else to_db(row[0]) for row in floors]
    rows = [tuple(_gaps(cells[i * n : (i + 1) * n], t, pbars, "surface cell", "pbar_over_n0"))
            for i, t in enumerate(thetas)]
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
    at the same point; every threshold of every theta comes from one
    _power_rows batch on the model's mean-1 law at snr mu, as exp(ln a +
    ln mu), and every limit from one _alpha_star_rows.  A point whose beta
    passes the doubles keeps _qos_rows' refusal and is not solved.  A
    limit that fails is warned about and stored as None, as a failed
    threshold is.
    """
    if zeta_grid is None:
        zeta_grid = default_grid(WIDEBAND)
    zetas = tuple(float(z) for z in zeta_grid)
    n = len(zetas)

    thetas = [float(theta) for theta in theta_list]
    stars = _alpha_star_rows(model, thetas, T, [pbar_over_n0] * len(thetas))
    _, beta, refused = _qos_rows(np.repeat(thetas, n), T,
                                 np.tile(1.0 / np.array(zetas), len(thetas)))
    law, mu = model.unit
    snr, rows = _fold(np.tile(pbar_over_n0 * np.array(zetas), len(thetas)), mu, "snr")
    # a beta past the doubles is refused; a subnormal theta*T*B water-fills
    rows = [error if b == math.inf else row for error, row, b in zip(refused, rows, beta.tolist())]
    live = np.flatnonzero([row is None for row in rows])
    try:
        roots, errors = _power_rows(snr[live], beta[live], law)
        for i, error, x in zip(live.tolist(), errors, roots.x.tolist()):
            rows[i] = error or math.exp(x + math.log(mu))
    except NumericalError as exc:
        rows = [row or exc for row in rows]
    curves = []
    for k, (theta, star) in enumerate(zip(thetas, stars)):
        line = rows[k * n : (k + 1) * n]
        curves.append(
            AlphaZetaCurve(
                theta=theta,
                zetas=zetas,
                alphas=tuple(_gaps(line, theta, zetas, "threshold", "zeta")),
                star=_gap(star, "alpha* failed for theta={:g}", theta),
            )
        )
    return curves
