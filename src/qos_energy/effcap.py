"""Effective capacity and spectral efficiency under block fading.

With a QoS exponent theta > 0, frame length T and bandwidth B, the service
process R[i] = B log2(1 + SNR z[i]) (receiver CSI) or
B log2(1 + mu_opt(theta, z) z) (transmitter and receiver CSI) has effective
capacity

    C_E = -(1/(theta T)) ln E{exp(-theta T R)}            [bits/s]

which this module evaluates per bandwidth unit (bits/s/Hz) using
beta = theta*T*B/ln2:

    csir:  -(1/(theta T B)) ln E{(1 + SNR z)^(-beta)}
    csit:  -(1/(theta T B)) ln (F(alpha) + E{(z/alpha)^(-beta/(beta+1)) 1{z>=alpha}})

The transmitter-CSI power adaptation is a gain threshold policy

    mu_opt(theta, z) = 1/(alpha^(1/(beta+1)) z^(beta/(beta+1))) - 1/z   for z >= alpha

with alpha set so E{mu_opt} equals the average SNR.  theta = 0 degenerates
to the ergodic (Shannon) limits: the csir formula becomes E{log2(1+SNR z)}
and the threshold equation becomes classical water-filling (beta = 0).

All solves run on ln(alpha): the threshold shrinks like
(1+SNR z)^-(beta+1) for degenerate channels and would underflow long
before its logarithm does.  A grid line's thresholds are one batch
(_power_rows, or _log_moment_rows for alpha*), one row per point; the
one-point functions below are its one-row case.  Each model keeps sums
at its grid edges or atoms (fading._Groups), built whole; the mean power
at an edge is their tilted sum for the row's exponent 1/(beta+1), summed
only as deep as the deepest row needs, and the edge values place each
root.  Between two atoms, or below the last edge, the root is a closed
form.  Inside a grid panel, _solve_rows runs a safeguarded Newton on every
row at once, each row costing one 16-node partial panel plus the edge
sums composed across the gap to the edge, until its step or its panel is
narrower than 1e-13 in ln(alpha).  _Roots holds the one copy of each
formula on those sums: the residuals read M, I and L1 through it, and
the rate (or, for alpha*, L1, I, H and ln xi) at each root.  A row's
root and rate do not depend on the other rows of its batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailure, DivergentInverseMoment, NumericalError, ThetaZero
from .fading import FadingModel, _ln_mean_exp

LN2 = math.log(2.0)

_LN_ALPHA_TOL = 1e-13
_MAX_ITER = 100
_MIN_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class QosConfig:
    """QoS exponent theta (1/bits), frame duration T (s), bandwidth B (Hz)."""

    theta: float
    T: float
    B: float

    def __post_init__(self):
        if not (self.theta >= 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be >= 0 and finite, got {self.theta}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not (self.B > 0 and math.isfinite(self.B)):
            raise ValueError(f"B must be positive and finite, got {self.B}")

    @property
    def beta(self) -> float:
        """Normalized QoS exponent theta*T*B/ln2."""
        return _product(self.theta, self.T, self.B) / LN2

    @property
    def zeta(self) -> float:
        """Inverse bandwidth 1/B."""
        return 1.0 / self.B


@dataclass(frozen=True)
class PowerPolicy:
    """Threshold power adaptation: zero power below the gain cutoff alpha.

    The cutoff is held as ln_alpha; alpha = exp(ln_alpha) may underflow to
    0 for very large beta without harming evaluation.
    """

    ln_alpha: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.ln_alpha):
            raise ValueError(f"ln_alpha must be finite, got {self.ln_alpha}")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")

    @property
    def alpha(self) -> float:
        return math.exp(self.ln_alpha)


def power_policy_value(policy: PowerPolicy, z):
    """mu_opt(z): 0 below the threshold, expm1(ln(z/alpha)/(beta+1))/z above.

    Accepts scalars or arrays; continuous (value 0) at z = alpha.  Where
    expm1 overflows or z is inf, mu is alpha^(-1/(beta+1)) z^(-p) - 1/z with
    p = beta/(beta+1): 1/alpha - 1/z at beta = 0, 0 at z = inf for beta > 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z_arr = np.asarray(z, dtype=float)
        ln_z = np.log(z_arr)
        h = np.fmax(ln_z - policy.ln_alpha, 0.0) / (policy.beta + 1.0)
        mu = np.where(h > 0, np.expm1(h) / z_arr, 0.0)
        huge = (h > 0) & ~np.isfinite(mu)
        if huge.any():
            b1 = policy.beta + 1.0
            ln_head = -policy.ln_alpha / b1
            if policy.beta > 0:
                ln_head = ln_head - policy.beta / b1 * ln_z
            mu = np.where(huge, np.exp(ln_head) - 1.0 / z_arr, mu)
    if np.ndim(z) == 0:
        return float(mu)
    return mu


def _product(*factors: float) -> float:
    """The product of nonnegative factors with the exponents summed apart
    from the mantissas, so that it never underflows or overflows on the way
    to a result in the double range: theta*T first would."""
    mant, expo = 1.0, 0
    for factor in factors:
        m, e = math.frexp(factor)
        mant, expo = mant * m, expo + e
    try:
        return math.ldexp(mant, expo)
    except OverflowError:
        return math.inf


def _theta_tb(qos: QosConfig) -> float:
    """theta*T*B, which the rates divide by.

    Raises NumericalError when it is not a positive normal double: below
    the normal doubles it keeps too few digits for a rate at or below the
    Shannon limit.
    """
    k = _product(qos.theta, qos.T, qos.B)
    if not _MIN_NORMAL <= k < math.inf:
        raise NumericalError(
            f"theta*T*B = {k:g} leaves the normal doubles "
            f"(theta={qos.theta:g}, T={qos.T:g}, B={qos.B:g})"
        )
    return k


def _solve_rows(residual, lo, hi, r_lo, r_hi) -> np.ndarray:
    """Roots of decreasing residuals, one per row, each in its bracket.

    residual(x, rows) returns (r, dr/dx) for the rows indexed by rows at
    the points x.  Row i has r_lo[i] >= 0 >= r_hi[i] at its ends lo[i] <
    hi[i]; a row whose ends do not change sign gets NaN.  Each row starts
    at the secant point of its ends and takes Newton steps from its
    latest probe.  A step that leaves the bracket (unless it is below
    _LN_ALPHA_TOL), or a dr that is not finite and negative, is replaced
    by bisection; every probe shrinks the bracket by the sign of its
    residual.  A row stops when its step or its bracket is narrower than
    _LN_ALPHA_TOL, and only rows still running are evaluated, so a row's
    root does not depend on the other rows.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = np.where(r_lo == 0, lo, np.where(r_hi == 0, hi, np.nan))
    with np.errstate(invalid="ignore", divide="ignore"):
        secant = lo + (hi - lo) * (r_lo / (r_lo - r_hi))
    rows = np.flatnonzero((r_lo > 0) & (r_hi < 0))
    x[rows] = np.where((lo < secant) & (secant < hi), secant, 0.5 * (lo + hi))[rows]
    for _ in range(_MAX_ITER):
        if not rows.size:
            break
        at, a, b = x[rows], lo[rows], hi[rows]
        r, dr = residual(at, rows)
        up = r > 0
        a, b = np.where(up, at, a), np.where(up, b, at)
        lo[rows], hi[rows] = a, b
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.where(np.isfinite(dr) & (dr < 0), -r / dr, np.nan)
        small = np.abs(step) < _LN_ALPHA_TOL
        step = np.where(small | ((a < at + step) & (at + step < b)), step, 0.5 * (a + b) - at)
        x[rows] = at + step
        rows = rows[~(small | (np.abs(step) < _LN_ALPHA_TOL) | (b - a < _LN_ALPHA_TOL))]
    return x


class _Roots:
    """Thresholds x = ln a of a batch on one model, and the sums at them.

    Row i composes from edge e[i] of the model's groups (-1 when no node
    lies above x) across the gap y[i] = ell[e] - x, plus a partial panel
    from x up to that edge when partial[i] (x inside a grid panel).
    Every value is computed from x and y, so a root that rounds onto the
    far side of a fall in the sums shows it.
    """

    def __init__(self, model: FadingModel, x, y, e, partial):
        groups = model._groups
        self.model, self.groups, self.x, self.y, self.e = model, groups, x, y, e
        self.sums = np.where(e >= 0, groups.sums[:, e], 0.0)
        self.part = None
        if groups.panels:
            with np.errstate(invalid="ignore"):
                u, ln_w = model._partial(x, np.where(partial, groups.ell[e], x))
            self.part = (u - x[:, None], np.exp(ln_w - u), ln_w)

    def _partial_sum(self, f) -> np.ndarray:
        """sum f(d, v, ln_w) over each row's partial panel; 0 without one."""
        return 0.0 if self.part is None else f(*self.part).sum(1)

    def inverse(self) -> np.ndarray:
        """I = E{1/z ; z >= a}."""
        return self._partial_sum(lambda d, v, ln_w: v) + self.sums[0]

    def log_moment(self) -> np.ndarray:
        """L1 = E{ln(z/a)/z ; z >= a}."""
        cv, _, d1 = self.sums[:3]
        return self._partial_sum(lambda d, v, ln_w: v * d) + (d1 + self.y * cv)

    def log_moment2(self) -> np.ndarray:
        """H = E{ln^2(z/a)/z ; z >= a}; inf past the doubles, which
        _alpha_star_rows refuses."""
        cv, _, d1, d2 = self.sums[:4]
        with np.errstate(over="ignore"):
            return self._partial_sum(lambda d, v, ln_w: v * d * d) + (
                d2 + self.y * (2.0 * d1 + self.y * cv)
            )

    def log_gain(self) -> np.ndarray:
        """E{ln(z/a) ; z >= a}, the water-filling rate in nats."""
        _, cw, _, _, wd = self.sums
        return self._partial_sum(lambda d, v, ln_w: np.exp(ln_w) * d) + (
            wd + self.y * cw
        )

    def mean_power(self, s, m_e) -> np.ndarray:
        """M = E{expm1(s ln(z/a))/z ; z >= a}, the threshold policy's mean
        power at s = 1/(beta+1) per row, from m_e = M at the row's edge."""
        return self._partial_sum(lambda d, v, ln_w: v * np.expm1(s[:, None] * d)) + (
            m_e + np.expm1(s * self.y) * (self.sums[0] + m_e)
        )

    def _tilted(self, s):
        """(sum w expm1(s d), ln sum w exp(s d)) at each row's edge, exponent
        s per row, built as deep as the deepest row needs; 0 and -inf
        without nodes."""
        t, ln_x = np.zeros(len(self.x)), np.full(len(self.x), -np.inf)
        s_u, inv = np.unique(s, return_inverse=True)
        deepest = self.e.max(initial=-1)
        if deepest >= 0:
            for start, tb, lxb in self.groups.tilted(s_u, "w", True, deepest + 1):
                rows = np.flatnonzero((self.e >= start) & (self.e < start + tb.shape[1]))
                at = (inv[rows], self.e[rows] - start)
                t[rows], ln_x[rows] = tb[at], lxb[at]
        return t, ln_x

    def ln_mean_power(self, p) -> np.ndarray:
        """ln(F(a) + E{(z/a)^-p ; z >= a}) per row, p >= 0 per row.

        As in fading._ln_mean_exp: while the mean is above 1/2 this is
        log1p of sum w expm1(-p ln(z/a)), which keeps its digits at weak
        QoS; below, the log-sum-exp of F(a) and the terms, from the
        exponential tilted sums.  Both compose as the other sums do.
        """
        t, ln_x = self._tilted(-p)
        g = np.expm1(-p * self.y)
        s = self._partial_sum(
            lambda d, v, ln_w: np.exp(ln_w) * np.expm1(-p[:, None] * d)
        ) + (t + g * (self.sums[1] + t))
        with np.errstate(divide="ignore"):
            out = np.log1p(np.maximum(s, -1.0))
        low = np.flatnonzero(~(s > -0.5) & np.isfinite(self.x))
        if low.size:
            terms = [(-p * self.y + ln_x)[low, None]]
            terms.append([[self.model.ln_cdf(float(x))] for x in self.x[low]])
            if self.part is not None:
                d, _, ln_w = self.part
                terms.append(ln_w[low] - p[low, None] * d[low])
            terms = np.concatenate(terms, axis=1)
            top = terms.max(1)
            top[top == -np.inf] = 0.0
            out[low] = top + np.log(np.exp(terms - top[:, None]).sum(1))
        return out


def _search(blocks, target: np.ndarray, first: int, size: int):
    """(j, f_above, f_at) per row for an increasing edge sum f read block by
    block as (start, f rows x block): j is the first edge from first on with
    f >= target (size when none); f_above and f_at are f at edges j-1 and j
    (0 where there is none)."""
    n = len(target)
    j = np.full(n, size)
    f_above, f_at, last = np.zeros(n), np.zeros(n), np.zeros(n)
    open_ = np.ones(n, dtype=bool)
    for start, f in blocks:
        f = np.broadcast_to(f, (n, f.shape[1]))
        edge = start + np.arange(f.shape[1])
        hit = (f >= target[:, None]) & (edge >= first)
        rows = np.flatnonzero(open_ & hit.any(1))
        k = hit[rows].argmax(1)
        j[rows], f_at[rows] = start + k, f[rows, k]
        f_above[rows] = np.where(k > 0, f[rows, k - 1], last[rows])
        open_[rows] = False
        last = f[:, -1]
        if not open_.any():
            break
    f_above[open_] = last[open_]
    return j, f_above, f_at


def _thresholds(model, target, blocks, residual, closed, what) -> tuple:
    """(roots, errors) of a batch for an edge sum f, decreasing in ln a and
    read from blocks as _search reads it, that reaches target at the root.

    _search places each root below edge e = j - 1.  Edge j at or above
    first (no nodes above the root: the jump at the top of a grid) puts
    the root on ell[first] with no nodes; between two grid edges the root
    is solved by _solve_rows on ln f - ln target, from residual(roots,
    rows, f_e) -> (ln f - ln target, dln f/dln a) at the rows' _Roots, with
    f_e = f at their edges; below the last edge, or between two atoms, the gap
    y = ell[e] - ln a is closed(rows, f_e, I_e), with I_e = I at the edges,
    and the roots keep it: ell[e] minus ln a loses its digits near an atom.
    errors[i] is the BracketFailure of a row whose root is not finite,
    else None.
    """
    groups = model._groups
    if groups.size <= groups.first:
        raise BracketFailure(f"{what}: the model has no nodes")
    j, f_above, f_at = _search(blocks, target, groups.first, groups.size)
    e = np.where(j <= groups.first, -1, j - 1)
    x, y = np.where(e < 0, groups.ell[groups.first], np.nan), np.zeros(len(j))
    inside = (e >= 0) & (j < groups.size) & groups.panels
    shut = np.flatnonzero((e >= 0) & ~inside)
    if shut.size:
        y[shut] = closed(shut, f_above[shut], groups.sums[0, e[shut]])
        x[shut] = groups.ell[e[shut]] - y[shut]
    panel = np.flatnonzero(inside)
    if panel.size:
        ep, f_e = e[panel], f_above[panel]
        lo, hi = groups.ell[ep + 1], groups.ell[ep]
        ln_target = np.log(target[panel])
        with np.errstate(divide="ignore"):
            r_lo = np.log(f_at[panel]) - ln_target
            r_hi = np.log(f_e) - ln_target
        found = _solve_rows(
            lambda at, rows: residual(
                _Roots(model, at, hi[rows] - at, ep[rows], True), panel[rows], f_e[rows]
            ),
            lo, hi, r_lo, r_hi,
        )
        x[panel] = np.clip(found, lo, hi)
        y[panel] = hi - x[panel]
    errors = [None] * len(x)
    for i in np.flatnonzero(~np.isfinite(x)):
        errors[i] = BracketFailure(f"{what}: no root in the double range")
    return _Roots(model, x, y, e, inside), errors


def _power_rows(snr: np.ndarray, beta: np.ndarray, model: FadingModel):
    """(roots, errors): ln(alpha) per row with E{mu_opt} = snr[i] at beta[i].

    The mean power M is the tilted sum of v with exponent s = 1/(beta+1),
    decreasing in ln a; its values at the edges place each root, and
    inside a grid panel _solve_rows solves ln M = ln snr with
    dln M/dln a = -(M + I) s / M.  Below the last edge, or between two
    atoms, M = M(e) + expm1(s y)(I(e) + M(e)) gives the gap in closed form,
    y = (beta+1) log1p((snr - M(e))/(I(e) + M(e))).
    """
    s = 1.0 / (beta + 1.0)
    s_u, inv = np.unique(s, return_inverse=True)
    ln_snr = np.log(snr)

    def residual(roots, rows, m_e):
        m = roots.mean_power(s[rows], m_e)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(m) - ln_snr[rows], -(m + roots.inverse()) * s[rows] / m

    def closed(rows, m_e, i_e):
        with np.errstate(over="ignore"):
            return (beta[rows] + 1.0) * np.log1p((snr[rows] - m_e) / (i_e + m_e))

    blocks = ((start, t[inv]) for start, t, _ in model._groups.tilted(s_u, "v"))
    return _thresholds(model, snr, blocks, residual, closed, "power threshold solve")


def _log_moment_rows(ln_c: np.ndarray, model: FadingModel):
    """(roots, errors): ln(alpha*) per row with L1 = E{ln(z/a)/z ; z >= a}
    = exp(ln_c[i]), solved as _power_rows solves, on the edge sums of v d:
    dln L1/dln a = -I/L1 inside a grid panel, and the gap in closed form
    y = (c - L1(e))/I(e) between two atoms or below the last edge."""
    c = np.exp(ln_c)

    def residual(roots, rows, l1_e):
        l1 = roots.log_moment()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(l1) - ln_c[rows], -roots.inverse() / l1

    def closed(rows, l1_e, i_e):
        return (c[rows] - l1_e) / i_e

    what = "wideband CSIT threshold alpha*"
    blocks = [(0, model._groups.sums[2, None])]  # L1 at every edge, one block
    return _thresholds(model, c, blocks, residual, closed, what)


def solve_alpha(snr: float, qos: QosConfig, model: FadingModel) -> PowerPolicy:
    """Find the gain cutoff alpha with E{mu_opt} = snr.

    The mean transmit power is strictly decreasing in alpha, so the root is
    unique; theta = 0 (beta = 0) gives the classical water-filling threshold.
    The one-row case of _power_rows.
    """
    if not (snr > 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be positive and finite, got {snr}")
    roots, (error,) = _power_rows(np.array([snr]), np.array([qos.beta]), model)
    if error is not None:
        raise error
    return PowerPolicy(float(roots.x[0]), qos.beta)


def spectral_efficiency_csir(snr: float, qos: QosConfig, model: FadingModel) -> float:
    """-(1/(theta T B)) ln E{(1+snr z)^(-beta)} in bits/s/Hz.

    Raises ThetaZero at theta = 0; that limit is shannon_limit's job.
    """
    if qos.theta == 0:
        raise ThetaZero("spectral_efficiency_csir is 0/0 at theta=0; use shannon_limit")
    _check_snr(snr)
    if snr == 0:
        return 0.0
    theta_tb = _theta_tb(qos)
    beta = theta_tb / LN2
    model._check_lumped("E{(1 + x z)^-beta} at x = snr", snr, beta)
    _, ln_w, _, w = model.support_nodes
    log_e = _ln_mean_exp(ln_w, -beta * _ln1p_nodes(snr, model), w)
    return -log_e / theta_tb


def _ln1p_nodes(x: float, model: FadingModel) -> np.ndarray:
    """ln(1 + x z) at the model's support nodes: log1p(x z) while x times
    the top node is a double, logaddexp(0, ln x + ln z) past it, where x z
    overflows."""
    u, _, z, _ = model.support_nodes
    if x * float(z[-1]) < math.inf:
        return np.log1p(x * z)
    return np.logaddexp(0.0, math.log(x) + u)


def spectral_efficiency_csit(snr: float, qos: QosConfig, model: FadingModel) -> float:
    """Spectral efficiency with the optimal threshold power policy.

    Evaluates -(1/(theta T B)) ln(F(alpha) + E{(z/alpha)^(-beta/(beta+1))
    1{z>=alpha}}) at the solved alpha in the log domain, so a threshold
    below the smallest double still gives a finite rate and a weak QoS
    exponent keeps its digits; theta = 0 routes to the ergodic
    water-filling limit.  The one-row case of _csit_rows.
    """
    _check_snr(snr)
    if snr == 0:
        return 0.0
    (row,) = _csit_rows(np.array([snr]), qos.theta, qos.T, np.array([qos.B]), model)
    if isinstance(row, NumericalError):
        raise row
    return row[0]


def _csit_rows(snr, theta: float, T: float, B, model: FadingModel) -> list:
    """CSIT rates of a grid line at one theta: per row (spectral efficiency,
    ln alpha), or the NumericalError that row raised.  snr > 0 and B are
    per row; every threshold is solved in one _power_rows batch."""
    snr = np.asarray(snr, dtype=float)
    qos = [QosConfig(theta, T, b) for b in B]
    out = [None] * len(snr)
    # Per row theta*T*B; ln 2 at theta = 0, where the rate is in nats.
    scale = np.full(len(snr), LN2)
    for i, q in enumerate(qos):
        if theta > 0:
            try:
                scale[i] = _theta_tb(q)
            except NumericalError as exc:
                out[i] = exc
    rows = np.flatnonzero([o is None for o in out])
    if not rows.size:
        return out
    beta = np.array([qos[i].beta for i in rows])
    try:
        roots, errors = _power_rows(snr[rows], beta, model)
    except NumericalError as exc:
        return [exc if o is None else o for o in out]
    if theta == 0:
        log_total = -roots.log_gain()
    else:
        log_total = roots.ln_mean_power(beta / (beta + 1.0))
    se = np.maximum(-log_total / scale[rows], 0.0)
    for k, i in enumerate(rows):
        out[i] = errors[k] or (float(se[k]), float(roots.x[k]))
    return out


def shannon_limit(snr: float, mode: str, qos: QosConfig, model: FadingModel) -> float:
    """Ergodic capacity in bits/s/Hz, the theta -> 0 limit of the above.

    csir: E{log2(1+snr z)}.  csit: water-filling over the gain, which is
    spectral_efficiency_csit at theta = 0.  qos is accepted for signature
    symmetry; the limit does not depend on it.
    """
    _check_mode(mode)
    _check_snr(snr)
    if snr == 0:
        return 0.0
    if mode == "csir":
        return float(np.dot(model.support_nodes[3], _ln1p_nodes(snr, model))) / LN2
    return spectral_efficiency_csit(snr, replace(qos, theta=0.0), model)


def delay_limited_limit(snr: float, mode: str, model: FadingModel) -> float:
    """Rate sustainable in every fading state, the theta -> infinity limit.

    csir: log2(1+snr z_min).  csit: log2(1+snr/E{1/z}) by channel inversion;
    when E{1/z} diverges (e.g. exponential gains) the value is 0 and a
    DivergentInverseMoment warning is issued.
    """
    _check_mode(mode)
    _check_snr(snr)
    if mode == "csir":
        x = snr * model.z_min
        # Past the doubles log1p(x) is ln x to the last bit: ln snr + ln z.
        if math.isinf(x):
            return (math.log(snr) + math.log(model.z_min)) / LN2
        return math.log1p(x) / LN2
    inv = model.inverse_moment()
    if math.isinf(inv):
        warnings.warn(
            "E{1/z} diverges; delay-limited rate with transmitter CSI is 0",
            DivergentInverseMoment,
            stacklevel=2,
        )
        return 0.0
    x = snr / inv
    if math.isinf(x):
        return (math.log(snr) - math.log(inv)) / LN2
    return math.log1p(x) / LN2


def bit_energy(snr: float, spectral_efficiency: float) -> float:
    """Energy per bit over noise density, linear scale: snr/SE."""
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if not spectral_efficiency > 0:
        raise ValueError(
            f"spectral efficiency must be positive, got {spectral_efficiency}"
        )
    return snr / spectral_efficiency


def bit_energy_db(snr: float, spectral_efficiency: float) -> float:
    """bit_energy in dB."""
    return to_db(bit_energy(snr, spectral_efficiency))


def to_db(x: float) -> float:
    """10 log10(x); -inf at x = 0."""
    if x == 0:
        return -math.inf
    return 10.0 * math.log10(x)


def service_rate_csir(snr: float, z, qos: QosConfig, out=None):
    """Frame service rate B log2(1+snr z) in bits/s (scalar or array z).

    An out array, z itself included, receives the rates; the bits are
    those of the call without it.
    """
    r = np.log1p(np.multiply(snr, np.asarray(z, dtype=float), out=out), out=out)
    return np.divide(np.multiply(qos.B, r, out=out), LN2, out=out)


def service_rate_csit(policy: PowerPolicy, z, qos: QosConfig, out=None):
    """Frame service rate B log2(1+mu_opt z) = B ln(z/alpha)/((beta+1) ln2)
    above the cutoff, 0 below (scalar or array z); out as for
    service_rate_csir.

    fmax maps the -inf of a zero gain and the NaN of a negative or NaN gain
    to 0, so the rate takes one pass per operation and no mask.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.log(np.asarray(z, dtype=float), out=out)
        r = np.fmax(np.subtract(r, policy.ln_alpha, out=out), 0.0, out=out)
        r = np.multiply(qos.B, r, out=out)
        return np.divide(r, (policy.beta + 1.0) * LN2, out=out)


def _check_snr(snr: float):
    if not (snr >= 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be >= 0 and finite, got {snr}")


def _check_mode(mode: str):
    if mode not in ("csir", "csit"):
        raise ValueError(f"mode must be 'csir' or 'csit', got {mode!r}")
