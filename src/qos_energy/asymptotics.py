"""Minimum bit energy and wideband slope in the two low-SNR regimes.

Spectral efficiency versus Eb/N0 near the minimum bit energy is captured by
two numbers: the bit-energy floor Eb/N0|min and the slope

    S0 = lim 2 * (se * ln2)^2 / (2nd order deficit)

in bits/s/Hz per 3 dB.  Two limits produce low SNR.  In the "lowpower"
regime the bandwidth B is fixed and the power P goes to zero, so the QoS
exponent enters only through beta = theta*T*B/ln2.  In the "wideband"
regime P is fixed and B grows without bound; with zeta = 1/B the relevant
channel statistic becomes the Laplace-type transform E{exp(-c z)} with
c = theta*T*Pbar/N0 / ln2, and bit energies depend on theta and T
separately.

CSIR formulas:
    lowpower:  Eb/N0|min = ln2 / E{z}
               S0 = 2 / (kappa + beta (kappa - 1)),  kappa = E{z^2}/E{z}^2
    wideband:  Eb/N0|min = -theta*T*(Pbar/N0) / ln E{exp(-c z)}
               S0 = 2 E{exp(-c z)} (ln E{exp(-c z)})^2
                    / (c^2 E{z^2 exp(-c z)})

CSIT formulas (transmitter adapts power to the fading state):
    lowpower:  Eb/N0|min = ln2 / z_max, with S0 = 0 for unbounded gains.
               For bounded gains carrying probability mass p at z_max,
               expanding the rate function to second order in the power
               gives S0 = 2 p / (beta (1 - p) + 1).
    wideband:  the threshold alpha* solves E{ln(z/alpha) (1/z), z>=alpha} = c,
               xi = F(alpha*) + alpha* E{(1/z), z >= alpha*},
               Eb/N0|min = -theta*T*(Pbar/N0) / ln xi,
               S0 = 2 xi (ln xi)^2 / (alpha* H),
               H = E{ln^2(z/alpha*) (1/z), z >= alpha*}.

The CSIT slope comes from alpha_dot(0), the derivative of the
finite-bandwidth threshold alpha(zeta) at zeta = 0.  Expanding the power
constraint E{expm1(ln(z/alpha)/(beta+1))/z, z >= alpha} = (Pbar/N0) zeta to
second order in 1/(beta+1) = zeta/(k + zeta), k = theta*T/ln2, and
differentiating implicitly at zeta = 0 gives it in closed form:

    d(ln alpha)/dzeta = -(c - H/2) / (k E{(1/z), z >= alpha*}).

Substituted into the slope definition of Verdu, "Spectral efficiency in the
wideband regime", IEEE Trans. IT 48(6), 2002, the denominator
Pbar/N0 + d(ln alpha)/dzeta E{(1/z), z >= alpha*} collapses to H/(2k),
which yields the S0 above without the cancellation of its two terms.

The wideband values are built in stages, and each stage makes its own
checks once:
    alpha* (_alpha_star_roots): each row's arguments, c (one exact
        product, a normal double), the root on the model's mean-1 law
        at c mu and ln xi, as the columns (ln a, 1/k, I_1, H_1, ln xi)
        of that law, a = alpha*/mu, for the two stages below;
    floor and slope (_wideband_rows): theta*T*(Pbar/N0) as one exact
        product, CSIR from the model's pair (_laplace), CSIT from the
        alpha* columns, theta = 0 at beta = 0 of the fixed bandwidth, for
        wideband_csir, wideband_csit, the asymptotics command, the sweep
        asymptotes and (floors alone) the Eb/N0 surface;
    derivative (_alpha_star_rows): H and alpha_dot(0), for
        solve_alpha_star and the alpha-star command alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .effcap import (_MIN_NORMAL, LN2, _fold, _log_moment_rows, _one_row, _product,
                     _qos_rows, to_db)
from .errors import NumericalError
from .fading import FadingModel

_DB_PER_FACTOR2 = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class AsymptoticSummary:
    """Bit-energy floor and wideband slope for one mode/regime combination.

    ebn0_min_db and unbounded_support are derived from ebn0_min_linear, so
    the floors cannot disagree: a linear floor of 0 (CSIT with unbounded
    gains) gives -inf dB, never NaN, and sets unbounded_support.
    """

    ebn0_min_linear: float
    ebn0_min_db: float = field(init=False)
    slope_s0: float
    regime: str
    mode: str
    unbounded_support: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ebn0_min_db", to_db(self.ebn0_min_linear))
        object.__setattr__(self, "unbounded_support", self.ebn0_min_linear == 0)


@dataclass(frozen=True)
class AlphaStarSolution:
    """Zero-bandwidth-cost threshold for CSIT in the wideband regime.

    alpha_star satisfies E{ln(z/alpha*) (1/z), z >= alpha*} = c and xi is
    the resulting Laplace-type transform value; ln_alpha_star and ln_xi are
    kept alongside because both quantities underflow for strong QoS.
    alpha_dot_zero is d alpha(zeta)/d zeta at zeta = 0 and
    dln_alpha_dzeta = alpha_dot_zero/alpha_star its scale-free form, both
    exact; log_moment2 is H = E{ln^2(z/alpha*) (1/z), z >= alpha*}.  The
    three are None at theta = 0.
    """

    alpha_star: float
    xi: float
    alpha_dot_zero: float | None
    ln_alpha_star: float
    ln_xi: float
    dln_alpha_dzeta: float | None = None
    log_moment2: float | None = None


def _check_wideband_args(theta: float, T: float, pbar_over_n0: float) -> None:
    if not (theta >= 0 and math.isfinite(theta)):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"T must be positive, got {T}")
    if not (pbar_over_n0 > 0 and math.isfinite(pbar_over_n0)):
        raise ValueError(f"pbar_over_n0 must be positive, got {pbar_over_n0}")


def lowpower_csir(model: FadingModel, beta: float) -> AsymptoticSummary:
    """Fixed-bandwidth low-power limits with receiver-only CSI.

    Eb/N0|min = ln2/E{z} regardless of beta (QoS is free at the floor);
    the slope S0 = 2/(kappa + beta (kappa - 1)) with the model's kappa =
    E{z^2}/E{z}^2 shrinks as the QoS constraint tightens.  Written so, it
    does not cancel at kappa = 1, where (beta+1) kappa - beta would.
    """
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    kappa = model.kappa
    return AsymptoticSummary(
        ebn0_min_linear=LN2 / model.mean,
        slope_s0=2.0 / (kappa + beta * (kappa - 1.0)),
        regime="lowpower",
        mode="csir",
    )


def lowpower_csit(model: FadingModel, beta: float = 0.0) -> AsymptoticSummary:
    """Fixed-bandwidth low-power limits when the transmitter rides the peak.

    All power concentrates on gains near z_max, so Eb/N0|min = ln2/z_max.
    With unbounded gains the floor is 0 linear (-inf dB) and the approach
    is infinitely slow: S0 = 0.  A bounded model with probability mass p
    at z_max behaves like an AWGN channel of gain z_max seen through a
    p-thinned frame process, which second-order expansion turns into
    S0 = 2 p / (beta (1 - p) + 1); a continuous density at z_max has p = 0
    and again S0 = 0.
    """
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    zmax = model.z_max
    lin = s0 = 0.0
    if math.isfinite(zmax):
        p = model.prob_mass_at(zmax)
        lin = LN2 / zmax
        s0 = 2.0 * p / (beta * (1.0 - p) + 1.0)
    return AsymptoticSummary(
        ebn0_min_linear=lin,
        slope_s0=s0,
        regime="lowpower",
        mode="csit",
    )


def _laplace(model: FadingModel, c: float) -> tuple[float, float]:
    """The model's wideband CSIR pair (r, S0) at c (FadingModel.laplace),
    r = -ln E{exp(-c z)}/c; NumericalError at c = inf."""
    if c == math.inf:
        raise NumericalError("E{exp(-x z)} at x = c overflows: x = inf")
    return model.laplace(c)


def wideband_csir(
    model: FadingModel, theta: float, T: float, pbar_over_n0: float
) -> AsymptoticSummary:
    """Fixed-power wideband limits with receiver-only CSI.

    With c = theta*T*(Pbar/N0)/ln2, L = E{exp(-c z)} and r = -ln L / c:
        Eb/N0|min = -theta*T*(Pbar/N0) / ln L = ln2 / r
        S0 = 2 L (ln L)^2 / (c^2 E{z^2 exp(-c z)}) = 2 L r^2 / E{z^2 exp(-c z)}
    from the model's pair (FadingModel.laplace), which reaches ln2/E{z}
    and 2 E{z}^2/E{z^2} as c rounds to 0; at theta = 0 both are those
    fixed-bandwidth values (Jensen: the floor always sits at or above
    ln2/E{z}).  The one-row case of _asymptotes.
    """
    return _one_row(_asymptotes(model, "csir", "wideband", [theta], T, None, pbar_over_n0))


def _ln_xi(ln_xi: float, ln_a: float) -> float:
    """ln xi = ln E{min(1, a/z)} = ln(F(a) + a E{(1/z), z >= a}) as computed
    at ln a, checked: raises NumericalError unless it is a negative normal
    double, which the floor divides by."""
    if not -math.inf < ln_xi <= -_MIN_NORMAL:
        raise NumericalError(
            f"ln xi = {ln_xi:g} is not negative and normal at ln alpha* = {ln_a:g}"
        )
    return ln_xi


def _wideband_params(model, theta, T, pbar_over_n0) -> str:
    return f"{model!r}, theta={theta:g}, T={T:g}, pbar_over_n0={pbar_over_n0:g}"


def solve_alpha_star(
    model: FadingModel, theta: float, T: float, pbar_over_n0: float
) -> AlphaStarSolution:
    """Threshold of the wideband CSIT policy at zero spectral cost.

    alpha(zeta) is the power-constrained threshold at bandwidth 1/zeta; as
    zeta -> 0 the power constraint degenerates into the log-moment equation
    L1 = E{ln(z/alpha*) (1/z), z >= alpha*} = c, solved here as
    ln L1 = ln c in ln(alpha), with the exact slope dL1/dln(alpha) = -I.
    The derivative of alpha(zeta) at zeta = 0 is exact too:

        dln_alpha_dzeta = -(c - H/2) / (k I) = -(Pbar/N0 - H/(2k)) / I,
        alpha_dot(0) = dln_alpha_dzeta * alpha*,

    with k = theta*T/ln2, I = E{(1/z), z >= alpha*} and
    H = E{ln^2(z/alpha*) (1/z), z >= alpha*}.  c is one exact product,
    and the derivative takes the second form, with 1/k = (Pbar/N0)/c,
    because k I underflows at weak QoS; a root that is not resolved, or a
    derivative beyond the double range, raises NumericalError.  At theta
    = 0 the threshold escapes to z_max, xi = 1 and the derivative fields
    are None.  The one-row case of _alpha_star_rows.
    """
    return _one_row(_alpha_star_rows(model, [theta], T, [pbar_over_n0]))


def _alpha_star_rows(model: FadingModel, thetas, T: float, pbars) -> list:
    """solve_alpha_star for each (thetas[i], pbars[i]): per row the
    AlphaStarSolution or the NumericalError it raised, each row of
    _alpha_star_roots with H = H_1/mu checked and dln alpha/dzeta =
    -(mu Pbar/N0 - H_1/(2k))/I_1 from the mean-1 law's I_1 and H_1."""
    mu = model.unit[1]
    out = []
    for theta, pbar_over_n0, root in zip(thetas, pbars,
                                         _alpha_star_roots(model, thetas, T, pbars)):
        if root is None:
            zmax = model.z_max
            out.append(AlphaStarSolution(
                alpha_star=zmax,
                xi=1.0,
                alpha_dot_zero=None,
                ln_alpha_star=math.log(zmax),
                ln_xi=0.0,
            ))
            continue
        if isinstance(root, NumericalError):
            out.append(root)
            continue
        ln_a, inv_k, inv_above, h_1, ln_xi = root
        h = h_1 / mu
        try:
            if not (h > 0 and math.isfinite(h)):
                raise NumericalError(
                    f"wideband CSIT curvature H = {h:g} is not positive and finite "
                    f"({_wideband_params(model, theta, T, pbar_over_n0)})"
                )
            ln_star = ln_a + math.log(mu)
            alpha_star = math.exp(ln_star)
            dln = -(_product(pbar_over_n0, mu) - 0.5 * h_1 * inv_k) / inv_above
            if not math.isfinite(dln):
                raise NumericalError(
                    f"wideband CSIT threshold derivative dln alpha/dzeta = {dln:g} "
                    f"is not finite ({_wideband_params(model, theta, T, pbar_over_n0)})"
                )
            out.append(AlphaStarSolution(
                alpha_star=alpha_star,
                xi=math.exp(ln_xi),
                alpha_dot_zero=dln * alpha_star,
                ln_alpha_star=ln_star,
                ln_xi=ln_xi,
                dln_alpha_dzeta=dln,
                log_moment2=h,
            ))
        except NumericalError as exc:
            out.append(exc)
    return out


def _alpha_star_roots(model: FadingModel, thetas, T: float, pbars) -> list:
    """The floor stage of the wideband CSIT limits, each row validated once
    and every alpha* of the batch from one _log_moment_rows on the model's
    mean-1 law (FadingModel.unit, z = mu t) at c mu: per row None at theta
    = 0, else (ln a, 1/k, I_1, H_1, ln xi) of that law, a = alpha*/mu,
    I_1 = mu I and H_1 = mu H (alpha* H = a H_1), 1/k = (Pbar/N0)/c (inf
    past the doubles) and H_1 not yet checked, or the NumericalError of a
    c or c mu that is not a normal double, of the law's nodes, of the
    bracket, of a root that is not resolved or of ln xi (_ln_xi), each
    naming the mean-1 law's values.  c is one exact _product over ln 2."""
    for theta, pbar in zip(thetas, pbars):
        _check_wideband_args(theta, T, pbar)
    theta = np.array(thetas, dtype=float)
    pbar = np.array(pbars, dtype=float)
    c = _product(theta, T, pbar) / LN2
    law, mu = model.unit
    c_1, out = _fold(c, mu, "c")
    # The root equation reads L1 = c, and a subnormal c keeps too few digits.
    normal = (c >= _MIN_NORMAL) & (c < math.inf)
    for k in np.flatnonzero((theta > 0) & ~normal):
        t, p = theta[k].item(), pbar[k].item()
        ln_c = math.log(t) + math.log(T) + math.log(p) - math.log(LN2)
        out[k] = NumericalError(
            f"c = theta*T*(Pbar/N0)/ln2 = exp({ln_c:g}) "
            + ("overflows" if c[k] == math.inf else "is below the normal doubles")
            + f" ({_wideband_params(model, t, T, p)})"
        )
    rows = np.flatnonzero((theta > 0) & np.array([o is None for o in out], dtype=bool))
    if not rows.size:
        return out
    try:
        roots, errors = _log_moment_rows(c_1[rows], law)
        cols = (roots.x, pbar[rows], c[rows], roots.inverse(), roots.log_moment2(),
                roots.ln_mean_power(np.ones(rows.size)))
    except NumericalError as exc:
        for k in rows.tolist():
            out[k] = exc
        return out
    for k, error, row in zip(rows.tolist(), errors, zip(*(a.tolist() for a in cols))):
        ln_star, p, c_k, inv_above, h, ln_xi = row
        try:
            out[k] = error or (ln_star, p / c_k, inv_above, h, _ln_xi(ln_xi, ln_star))
        except NumericalError as exc:
            out[k] = exc
    return out


def wideband_csit(
    model: FadingModel, theta: float, T: float, pbar_over_n0: float
) -> AsymptoticSummary:
    """Fixed-power wideband limits when the transmitter adapts its power.

    Eb/N0|min = -theta*T*(Pbar/N0)/ln xi with xi at alpha*.  The slope
    denominator Pbar/N0 + dln_alpha_dzeta I collapses to H/(2k), so that,
    with no derivative to compute,

        S0 = 2 xi (ln xi)^2 / (alpha* H)

    the transmitter-CSI image of the receiver-CSI 2 L (ln L)^2 /
    (c^2 E{z^2 exp(-c z)}).  theta = 0 routes to the fixed-bandwidth CSIT
    limits.  The one-row case of _asymptotes.
    """
    return _one_row(_asymptotes(model, "csit", "wideband", [theta], T, None, pbar_over_n0))


def _wideband_rows(model: FadingModel, mode: str, thetas, T: float, pbars) -> list:
    """The floor and slope stage at each (thetas[i], pbars[i]): per row
    (floor, S0), with S0 the slope's own NumericalError where only the
    slope fails, or the floor's NumericalError.  Each row's arguments are
    checked once (by _alpha_star_roots for CSIT), theta*T*(Pbar/N0) is one
    exact _product for the batch, and theta = 0 takes the fixed-bandwidth
    values at beta = 0.  A CSIR row takes ln2/r and S0 from _laplace.  A CSIT row takes -theta*T*(Pbar/N0)/ln xi and,
    from the mean-1 law's alpha* H = a H_1 (_alpha_star_roots), S0 =
    2 exp(ln xi - ln a) (ln xi)^2 / H_1, so that tiny a and xi cancel
    instead of underflowing; an H_1 or S0 past the doubles is refused."""
    if mode == "csit":
        roots = _alpha_star_roots(model, thetas, T, pbars)
    else:
        for theta, pbar in zip(thetas, pbars):
            _check_wideband_args(theta, T, pbar)
    prods = _product(np.array(thetas, dtype=float), T, np.array(pbars, dtype=float))
    out = []
    for k, (theta, pbar, prod) in enumerate(zip(thetas, pbars, prods.tolist())):
        try:
            if theta == 0:
                fixed = (lowpower_csir if mode == "csir" else lowpower_csit)(model, 0.0)
                out.append((fixed.ebn0_min_linear, fixed.slope_s0))
            elif mode == "csir":
                r, s0 = _laplace(model, prod / LN2)
                out.append((LN2 / r, s0 if s0 < math.inf else NumericalError(
                    "wideband CSIR slope overflows: S0 = 2 L r^2 / E{z^2 exp(-c z)} is "
                    f"past the doubles ({_wideband_params(model, theta, T, pbar)})")))
            elif isinstance(roots[k], NumericalError):
                out.append(roots[k])
            else:
                ln_a, _, _, h_1, ln_xi = roots[k]
                try:
                    ratio = math.exp(ln_xi - ln_a)
                except OverflowError:
                    ratio = math.inf
                s0 = 2.0 * ratio * ln_xi * ln_xi / h_1 if 0 < h_1 < math.inf else math.nan
                out.append((-prod / ln_xi, s0 if math.isfinite(s0) else NumericalError(
                    f"wideband CSIT slope overflows: xi/alpha* = exp({ln_xi - ln_a:g}) over "
                    f"curvature H = {h_1:g} ({_wideband_params(model, theta, T, pbar)})")))
        except NumericalError as exc:
            out.append(exc)
    return out


def _asymptotes(model: FadingModel, mode: str, regime: str, thetas, T: float,
                B: float | None, pbar_over_n0: float | None) -> list:
    """Bit-energy floor and slope for one mode/regime at each theta: per row
    the AsymptoticSummary or the NumericalError it raised.  B is used only
    in the lowpower regime and pbar_over_n0 only in the wideband one; the
    lowpower rows take their betas from one _qos_rows, and refuse a beta
    that overflows; the wideband rows are one _wideband_rows batch."""
    if regime == "lowpower":
        lowpower = lowpower_csir if mode == "csir" else lowpower_csit
        _, betas, errors = _qos_rows(thetas, T, B)
        return [lowpower(model, beta) if beta < math.inf else error
                for beta, error in zip(betas.tolist(), errors)]
    rows = _wideband_rows(model, mode, thetas, T, [pbar_over_n0] * len(thetas))
    return [row if isinstance(row, NumericalError) else row[1]
            if isinstance(row[1], NumericalError) else AsymptoticSummary(*row, regime, mode)
            for row in rows]


def linear_approx(ebn0_db, summary: AsymptoticSummary):
    """First-order spectral efficiency S0/(10 log10 2) * (Eb/N0|dB - min dB).

    Valid only near the floor; raises ValueError when the floor is -inf dB
    (unbounded-gain CSIT), where no linear approximation exists.
    """
    if not math.isfinite(summary.ebn0_min_db):
        raise ValueError(
            "linear approximation undefined: bit-energy floor is not finite "
            f"({summary.mode}/{summary.regime} with unbounded gains)"
        )
    x = np.asarray(ebn0_db, dtype=float)
    out = summary.slope_s0 / _DB_PER_FACTOR2 * (x - summary.ebn0_min_db)
    if np.ndim(ebn0_db) == 0:
        return float(out)
    return out


def delta_bit_energy(se: float, s0_first: float, s0_second: float) -> float:
    """Extra bit energy in dB at spectral efficiency se when the slope drops.

    Near a shared floor, moving from slope s0_first to s0_second costs
    (1/s0_second - 1/s0_first) * se * 10 log10 2 dB at fixed se.
    """
    if not (se > 0):
        raise ValueError(f"spectral efficiency must be positive, got {se}")
    if not (s0_first > 0 and s0_second > 0):
        raise ValueError("slopes must be positive to compare bit energies")
    return (1.0 / s0_second - 1.0 / s0_first) * se * _DB_PER_FACTOR2
