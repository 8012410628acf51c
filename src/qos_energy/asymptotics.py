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
               S0 = 2 / ((beta+1) E{z^2}/E{z}^2 - beta)
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

The CSIT slope needs alpha_dot(0), the derivative of the finite-bandwidth
threshold alpha(zeta) at zeta = 0.  Expanding the power constraint
E{expm1(ln(z/alpha)/(beta+1))/z, z >= alpha} = (Pbar/N0) zeta to second
order in 1/(beta+1) = zeta/(k + zeta), k = theta*T/ln2, and differentiating
implicitly at zeta = 0 gives it in closed form:

    d(ln alpha)/dzeta = -(c - H/2) / (k E{(1/z), z >= alpha*}).

Substituted into the slope definition of Verdu, "Spectral efficiency in the
wideband regime", IEEE Trans. IT 48(6), 2002, the denominator
Pbar/N0 + d(ln alpha)/dzeta E{(1/z), z >= alpha*} collapses to H/(2k),
which yields the S0 above without the cancellation of its two terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .effcap import LN2, QosConfig, _log_moment_rows, to_db
from .errors import BracketFailure, NumericalError
from .fading import FadingModel, _ln_mean_exp, _logsumexp

_DB_PER_FACTOR2 = 10.0 * math.log10(2.0)
_LN_MAX = math.log(np.finfo(float).max)


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
    the slope S0 = 2/((beta+1) kappa - beta) with kappa = E{z^2}/E{z}^2
    shrinks as the QoS constraint tightens.
    """
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    m1, m2 = model.moments()
    kurt = m2 / (m1 * m1)
    lin = LN2 / m1
    s0 = 2.0 / ((beta + 1.0) * kurt - beta)
    return AsymptoticSummary(
        ebn0_min_linear=lin,
        slope_s0=s0,
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


def _laplace(model: FadingModel, c: float) -> tuple[float, float, np.ndarray]:
    """(ln L, r, h) for L = E{exp(-c z)}, r = -ln L / c = E{z phi(c z)}
    ln L / (L - 1), phi(x) = -expm1(-x)/x, phi(0) = 1, which stays finite,
    at E{z}, as c z rounds away, and h = -c z at the support nodes;
    NumericalError unless 0 < r < inf.

    Where c times the top node passes the doubles, h is -inf from c z =
    DBL_MAX/e up, where exp and expm1 of -c z are 0 and -1 all the same,
    and z phi(c z) is -expm1(-c z)/c."""
    model._check_lumped("E{exp(-x z)} at x = c", c)
    u, ln_w, z, w = model.support_nodes
    if c * float(z[-1]) < math.inf:
        h = -c * z
        em1 = np.expm1(h)
        z_phi = z * np.divide(em1, h, out=np.ones_like(h), where=h < 0)
    else:
        below = u < (_LN_MAX - 1.0) - math.log(c)
        h = np.multiply(-c, z, out=np.full_like(z, -np.inf), where=below)
        em1 = np.expm1(h)
        z_phi = -em1 / c
    ln_l = _ln_mean_exp(ln_w, h, w, em1)
    r = float(np.dot(w, z_phi)) * (ln_l / math.expm1(ln_l) if ln_l else 1.0)
    if not 0 < r < math.inf:
        raise NumericalError(f"-ln E{{exp(-c z)}}/c = {r:g} is not positive at c = {c:g}")
    return ln_l, r, h


def wideband_csir(
    model: FadingModel, theta: float, T: float, pbar_over_n0: float
) -> AsymptoticSummary:
    """Fixed-power wideband limits with receiver-only CSI.

    With c = theta*T*(Pbar/N0)/ln2, L = E{exp(-c z)} and r = -ln L / c:
        Eb/N0|min = -theta*T*(Pbar/N0) / ln L = ln2 / r
        S0 = 2 L (ln L)^2 / (c^2 E{z^2 exp(-c z)}) = 2 L r^2 / E{z^2 exp(-c z)}
    formed from logs, so both stay finite as c rounds to 0, where they
    reach ln2/E{z} and 2 E{z}^2/E{z^2}.  At theta = 0 both collapse to the
    fixed-bandwidth values at beta = 0 (Jensen: the floor always sits at
    or above ln2/E{z}).
    """
    _check_wideband_args(theta, T, pbar_over_n0)
    if theta == 0:
        return replace(lowpower_csir(model, 0.0), regime="wideband")
    c = theta * T * pbar_over_n0 / LN2
    ln_l, r, h = _laplace(model, c)
    u, ln_w, _, _ = model.support_nodes
    ln_s0 = LN2 + 2.0 * math.log(r) - _logsumexp(ln_w + h - ln_l + 2.0 * u)
    if not ln_s0 < _LN_MAX:
        raise NumericalError(
            f"wideband CSIR slope overflows: ln S0 = {ln_s0:g} "
            f"({_wideband_params(model, theta, T, pbar_over_n0)})"
        )
    return AsymptoticSummary(
        ebn0_min_linear=LN2 / r,
        slope_s0=math.exp(ln_s0),
        regime="wideband",
        mode="csir",
    )


def _ln_xi(ln_xi: float, ln_a: float) -> float:
    """ln xi = ln E{min(1, a/z)} = ln(F(a) + a E{(1/z), z >= a}) as computed
    at ln a, checked: raises NumericalError when it is not negative and
    finite."""
    if not -math.inf < ln_xi < 0:
        raise NumericalError(
            f"ln xi = {ln_xi:g} is not negative and finite at ln alpha* = {ln_a:g}"
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
    H = E{ln^2(z/alpha*) (1/z), z >= alpha*}.  ln c and ln k are sums of
    logs and the derivative takes the second form, because c, k and k I
    underflow at weak QoS; a root that is not resolved, or a derivative
    beyond the double range, raises NumericalError.  At theta = 0 the
    threshold escapes to z_max, xi = 1 and the derivative fields are None.
    The one-row case of _alpha_star_rows.
    """
    (sol,) = _alpha_star_rows(model, [theta], T, [pbar_over_n0])
    if isinstance(sol, NumericalError):
        raise sol
    return sol


def _alpha_star_rows(model: FadingModel, thetas, T: float, pbars) -> list:
    """solve_alpha_star for each (thetas[i], pbars[i]): per row the
    AlphaStarSolution or the NumericalError it raised, every alpha* of the
    batch from one _alpha_star_roots, to which each row adds the slope's H and
    dln alpha/dzeta."""
    for theta, pbar in zip(thetas, pbars):
        _check_wideband_args(theta, T, pbar)
    solve = [(float(t), float(p)) for t, p in zip(thetas, pbars) if t > 0]
    roots = iter(_alpha_star_roots(model, [t for t, _ in solve], T,
                                   [p for _, p in solve]))
    out = []
    for theta, pbar_over_n0 in zip(map(float, thetas), map(float, pbars)):
        if theta == 0:
            zmax = model.z_max
            out.append(AlphaStarSolution(
                alpha_star=zmax,
                xi=1.0,
                alpha_dot_zero=None,
                ln_alpha_star=math.log(zmax),
                ln_xi=0.0,
            ))
            continue
        if isinstance(root := next(roots), NumericalError):
            out.append(root)
            continue
        ln_star, ln_k, inv_above, h, ln_xi = root
        try:
            if not (h > 0 and math.isfinite(h)):
                raise NumericalError(
                    f"wideband CSIT curvature H = {h:g} is not positive and finite "
                    f"({_wideband_params(model, theta, T, pbar_over_n0)})"
                )
            ln_xi = _ln_xi(ln_xi, ln_star)
            alpha_star = math.exp(ln_star)
            try:
                h_over_2k = 0.5 * h * math.exp(-ln_k)
            except OverflowError:
                h_over_2k = math.inf
            dln = -(pbar_over_n0 - h_over_2k) / inv_above
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
    """The floor half of _alpha_star_rows, at theta > 0: per row
    (ln alpha*, ln k, I, H, ln xi) at a resolved root, with H and ln xi
    not yet checked, or the NumericalError of a c past the doubles, of the
    bracket or of a root that is not resolved; every alpha* from one
    _log_moment_rows."""
    for theta, pbar in zip(thetas, pbars):
        _check_wideband_args(theta, T, pbar)
    theta = np.array(thetas, dtype=float)
    pbar = np.array(pbars, dtype=float)
    ln_k = np.log(theta) + (math.log(T) - math.log(LN2))
    ln_c = ln_k + np.log(pbar)
    out = [None] * len(theta)
    # The root equation reads L1 = c, so c must be a double.
    big = ~(ln_c < _LN_MAX)
    for k in np.flatnonzero(big):
        out[k] = NumericalError(
            f"c = theta*T*(Pbar/N0)/ln2 = exp({ln_c[k]:g}) overflows "
            f"({_wideband_params(model, theta[k], T, pbar[k])})"
        )
    rows = np.flatnonzero(~big)
    if not rows.size:
        return out
    try:
        roots, errors = _log_moment_rows(ln_c[rows], model)
    except BracketFailure as exc:
        return [exc if o is None else o for o in out]
    cols = (roots.x, ln_k[rows], ln_c[rows], roots.inverse(), roots.log_moment(),
            roots.log_moment2(), roots.ln_mean_power(np.ones(rows.size)))
    for k, error, row in zip(rows.tolist(), errors, zip(*(a.tolist() for a in cols))):
        ln_star, ln_k_row, ln_c_row, inv_above, l1, h, ln_xi = row
        # A root has |ln L1 - ln c| well inside 1e-9 |dln L1/dln a| = 1e-9 I/L1,
        # and, by the solver's 1e-13 stopping rule, inside 1e-13 I/L1 <= 1e-6
        # unless alpha* sits within ~1e-7 (in ln z) of the last expectation
        # node.  There L1 falls to 0 with the width of the nodes left above
        # alpha*, so a short Newton step there does not make L1 = c: a
        # threshold past the nodes ends on that fall.
        ln_l1 = math.log(l1) if l1 > 0 else -math.inf
        r = abs(ln_l1 - ln_c_row)
        if error is None and not (r <= 1e-6 and r * l1 <= 1e-9 * inv_above):
            error = NumericalError(
                f"wideband CSIT threshold alpha* = exp({ln_star:g}) is not resolved: "
                f"ln L1 = {ln_l1:g} against ln c = {ln_c_row:g} "
                f"({_wideband_params(model, float(theta[k]), T, float(pbar[k]))})"
            )
        out[k] = error or (ln_star, ln_k_row, inv_above, h, ln_xi)
    return out


def _bit_energy_floor(theta: float, T: float, pbar_over_n0: float, ln_l: float) -> float:
    """Wideband CSIT bit-energy floor -theta*T*(Pbar/N0)/ln xi, linear."""
    return -theta * T * pbar_over_n0 / ln_l


def wideband_csit(
    model: FadingModel, theta: float, T: float, pbar_over_n0: float
) -> AsymptoticSummary:
    """Fixed-power wideband limits when the transmitter adapts its power.

    Eb/N0|min = -theta*T*(Pbar/N0)/ln xi with xi from solve_alpha_star.
    The slope denominator Pbar/N0 + dln_alpha_dzeta I collapses to H/(2k),
    so that

        S0 = 2 xi (ln xi)^2 / (alpha* H)

    the transmitter-CSI image of the receiver-CSI 2 L (ln L)^2 /
    (c^2 E{z^2 exp(-c z)}).  It is evaluated as 2 exp(ln xi - ln alpha*)
    (ln xi)^2 / H so that tiny alpha* and xi cancel instead of underflowing;
    a slope beyond the double range raises NumericalError.  theta = 0
    routes to the fixed-bandwidth CSIT limits.  The one-row case of
    _asymptotes.
    """
    (row,) = _asymptotes(model, "csit", "wideband", [theta], T, None, pbar_over_n0)
    if isinstance(row, NumericalError):
        raise row
    return row


def _csit_summary(model, theta, T, pbar_over_n0, sol) -> AsymptoticSummary:
    """wideband_csit from the AlphaStarSolution sol at theta."""
    if theta == 0:
        return replace(lowpower_csit(model, 0.0), regime="wideband")
    try:
        ratio = math.exp(sol.ln_xi - sol.ln_alpha_star)
    except OverflowError:
        ratio = math.inf
    s0 = 2.0 * ratio * sol.ln_xi * sol.ln_xi / sol.log_moment2
    if not math.isfinite(s0):
        raise NumericalError(
            "wideband CSIT slope overflows: xi/alpha* = "
            f"exp({sol.ln_xi - sol.ln_alpha_star:g}) "
            f"({_wideband_params(model, theta, T, pbar_over_n0)})"
        )
    return AsymptoticSummary(
        ebn0_min_linear=_bit_energy_floor(theta, T, pbar_over_n0, sol.ln_xi),
        slope_s0=s0,
        regime="wideband",
        mode="csit",
    )


def _asymptotes(model: FadingModel, mode: str, regime: str, thetas, T: float,
                B: float | None, pbar_over_n0: float | None) -> list:
    """Bit-energy floor and slope for one mode/regime at each theta: per row
    the AsymptoticSummary or the NumericalError it raised.  B is used only
    in the lowpower regime and pbar_over_n0 only in the wideband one; the
    wideband CSIT rows take every alpha* from one _alpha_star_rows."""
    if mode == "csit" and regime == "wideband":
        sols = _alpha_star_rows(model, thetas, T, [pbar_over_n0] * len(thetas))
    out = []
    for k, theta in enumerate(thetas):
        try:
            if regime == "lowpower":
                lowpower = lowpower_csir if mode == "csir" else lowpower_csit
                out.append(lowpower(model, QosConfig(theta, T, B).beta))
            elif mode == "csir":
                out.append(wideband_csir(model, theta, T, pbar_over_n0))
            elif isinstance(sols[k], NumericalError):
                out.append(sols[k])
            else:
                out.append(_csit_summary(model, theta, T, pbar_over_n0, sols[k]))
        except NumericalError as exc:
            out.append(exc)
    return out


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
