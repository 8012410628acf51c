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
         = -(1/(theta T B)) ln (xi(alpha) + alpha SNR)

The transmitter-CSI power adaptation is a gain threshold policy

    mu_opt(theta, z) = 1/(alpha^(1/(beta+1)) z^(beta/(beta+1))) - 1/z   for z >= alpha

with alpha set so E{mu_opt} equals the average SNR, and
xi(alpha) = F(alpha) + alpha E{1/z 1{z>=alpha}} = E{min(1, alpha/z)}, the
xi of the wideband CSIT floor.  theta = 0 degenerates
to the ergodic (Shannon) limits: the csir formula becomes E{log2(1+SNR z)}
and the threshold equation becomes classical water-filling (beta = 0).

Rates and thresholds come in batches (_csir_rows, _csit_rows and
_alpha_rows), one row per point, with one-row cases below.  _qos_rows
forms a batch's theta*T*B as one exact _product and refuses each row
whose theta*T*B or beta is not a normal double (_alpha_rows refuses only
the beta); each CSIR row sums over the support nodes on its own.  Each
batch reads the mean-1 law of its model (FadingModel.unit, z = mu t):
the rates see z only through snr z = (snr mu) t and z/alpha, so _fold
takes snr mu in, as one exact product whose row is refused outside the
normal doubles, and ln alpha = ln a + ln mu comes out.  Every solve and
refusal below is on that law, and names its values.

All solves run on ln(alpha): the threshold shrinks like
(1+SNR z)^-(beta+1) for degenerate channels and would underflow long
before its logarithm does.  Thresholds are solved in batches
(_power_rows, or _log_moment_rows for alpha*), one row per point: a CSIT
sweep (_csit_rows) or alpha(zeta) set (_alpha_rows) is one batch over
every theta and grid point.  Each model keeps sums at its grid edges or
atoms (fading._Groups), built whole, and each equation places its rows on
its own edge values: the mean power at an edge is the tilted sum for the
row's exponent 1/(beta+1), which _Groups.search reads only until all the
exponent's rows are placed, and L1 at the edges is a fixed nondecreasing
sum, searched once for every alpha* row.  _thresholds then solves and refuses.  A root above the top
of a density's nodes is refused.  Between two atoms, or below the last
edge, the root is a closed form; below a density's last edge, the floor
of its nodes (1e-280 on a mean-1 law), a row is refused where the law
between the root and the floor could move it.  Every refusal is one
row's.  Inside a grid panel, _solve_rows runs a
safeguarded Newton on every row at once, each row costing one 16-node
partial panel plus the edge sums composed across the gap to the edge,
until its step or its panel is narrower than 1e-13 in ln(alpha).  _Roots
holds the one copy of each formula on those sums: the residuals read M,
I and L1 through it, and the rate (or, for alpha*, I, H and ln xi) at
each root: the rate and ln xi from F and I where their mean is below
1/2, else from the tilted sums of those rows alone, each only as deep as
its own deepest row.  A row's root and rate do not depend on the other
rows of its batch.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailure, DivergentInverseMoment, NumericalError, ThetaZero
from .fading import _LN_MAX, _MIN_NORMAL, FadingModel, _ln_mean_exp

LN2 = math.log(2.0)

_LN_ALPHA_TOL = 1e-13
_MAX_ITER = 100


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


def _product(*factors):
    """The product of nonnegative factors (of arrays elementwise; a float
    for scalars) with the exponents summed apart from the mantissas, so
    that it never underflows or overflows on the way to a result in the
    double range: theta*T first would."""
    mant, expo = 1.0, 0
    for factor in factors:
        m, e = np.frexp(factor)
        mant, expo = mant * m, expo + e
    with np.errstate(over="ignore"):
        out = np.ldexp(mant, expo)
    return out if np.ndim(out) else float(out)


def _qos_rows(theta, T: float, B) -> tuple:
    """(k, beta, errors) per row: k = theta*T*B, one exact _product for the
    batch (theta or B may be one for all), beta = k/ln2, and the
    NumericalError of a theta > 0 whose k or beta is not a normal double,
    else None: below them k, which the rates divide by, keeps too few
    digits for a rate at or below the Shannon limit."""
    theta, B = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(B, dtype=float))
    # QosConfig's ValueError, for the first row that fails its checks
    bad = ~((theta >= 0) & (theta < math.inf) & (B > 0) & (B < math.inf))
    if theta.size and (bad.any() or not 0 < T < math.inf):
        QosConfig(theta[bad.argmax()].item(), T, B[bad.argmax()].item())
    k = _product(theta, T, B)
    with np.errstate(over="ignore"):
        beta = k / LN2
    errors = [None] * k.size
    for i in np.flatnonzero((theta > 0) & ~((k >= _MIN_NORMAL) & (beta < math.inf))):
        t, k_i, b_i = theta[i].item(), k[i].item(), B[i].item()
        # a normal k whose beta overflows is named by its beta
        what = f"theta*T*B = {k_i:g}" if not _MIN_NORMAL <= k_i < math.inf else "beta = inf"
        errors[i] = NumericalError(
            f"{what} leaves the normal doubles (theta={t:g}, T={T:g}, B={b_i:g})"
        )
    return k, beta, errors


def _fold(x, mu: float, what: str) -> tuple:
    """(x mu, errors): a batch's snr or c on the mean-1 law of a model of
    mean mu (FadingModel.unit), one exact _product, and per row the
    NumericalError of a positive x whose x mu is not a normal double, else
    None; at mu = 1, x itself and no errors."""
    x = np.asarray(x, dtype=float)
    out = _product(x, mu)
    bad = (x > 0) & (mu != 1.0) & ~((out >= _MIN_NORMAL) & (out < math.inf))
    return out, [NumericalError(f"{what}*mean = exp({math.log(v) + math.log(mu):g}) leaves the "
                                f"normal doubles ({what}={v:g}, mean={mu:g})") if b else None
                 for v, b in zip(x.tolist(), bad.tolist())]


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
    far side of a fall in the sums shows it.  The partial panels are built
    on first use.
    """

    def __init__(self, model: FadingModel, x, y, e, partial):
        groups = model._groups
        self.model, self.groups, self.x, self.y, self.e = model, groups, x, y, e
        self.sums = np.where(e >= 0, groups.sums[:, e], 0.0)
        self.partial = partial

    def take(self, rows) -> "_Roots":
        """The _Roots of the given rows alone."""
        return _Roots(self.model, self.x[rows], self.y[rows], self.e[rows],
                      self.partial[rows])

    @functools.cached_property
    def part(self):
        """(d, v, ln_w) over each row's partial panel; None without panels."""
        if not self.groups.panels:
            return None
        x, top = self.x, self.groups.ell[self.e]
        with np.errstate(invalid="ignore", over="ignore"):
            u, ln_w = self.model._partial(x, np.where(self.partial, top, x))
        return (u - x[:, None], np.exp(ln_w - u), ln_w)

    def _partial_sum(self, f, rows=slice(None)) -> np.ndarray:
        """sum f(d, v, ln_w) over the partial panel of each row (of the
        given rows); 0 without one."""
        return 0.0 if self.part is None else f(*(a[rows] for a in self.part)).sum(1)

    def inverse(self) -> np.ndarray:
        """I = E{1/z ; z >= a}."""
        return self._partial_sum(lambda d, v, ln_w: v) + self.sums[0]

    def log_moment(self) -> np.ndarray:
        """L1 = E{ln(z/a)/z ; z >= a}."""
        cv, _, d1 = self.sums[:3]
        return self._partial_sum(lambda d, v, ln_w: v * d) + (d1 + self.y * cv)

    def log_moment2(self) -> np.ndarray:
        """H = E{ln^2(z/a)/z ; z >= a}; inf past the doubles, which the
        wideband CSIT slope refuses."""
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

    def _tilted(self, s, rows) -> np.ndarray:
        """sum w expm1(s d) at the edges of the given rows, exponent s per
        row, each exponent built as deep as its deepest row needs; 0
        without nodes."""
        e, t = self.e[rows], np.zeros(len(rows))
        s_u, inv = np.unique(s, return_inverse=True)
        depth = np.zeros(len(s_u), dtype=int)
        np.maximum.at(depth, inv, e + 1)
        at = np.full(len(s_u), -1)
        for start, idx, tb in self.groups.tilted(s_u, "w", depth):
            at[idx] = np.arange(len(idx))
            k = at[inv]
            hit = np.flatnonzero((k >= 0) & (e >= start) & (e < start + tb.shape[1]))
            t[hit] = tb[k[hit], e[hit] - start]
            at[idx] = -1
        return t

    def ln_mean_power(self, p, snr=0.0) -> np.ndarray:
        """ln(F(a) + E{(z/a)^-p ; z >= a}) per row, 0 < p <= 1, at a root of
        M(a) = snr, the mean power of exponent 1 - p (p = 1 and snr = 0 for
        xi at alpha*).

        As w (z/a)^-p = a v (z/a)^(1-p), the mean is xi(a) + a snr, with
        xi = F(a) + a I(a).  Where the nodes put it below 1/2 its log is
        logaddexp(ln F, ln a + ln(I + snr)), where nothing cancels and an a
        below the doubles stays in the log; above, as in
        fading._ln_mean_exp, log1p of sum w expm1(-p ln(z/a)) from those
        rows' own tilted sums keeps the digits of weak QoS.
        """
        i_snr = self.inverse() + snr
        q = self._partial_sum(lambda d, v, ln_w: np.exp(ln_w)) + self.sums[1]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = 1.0 - q + np.exp(self.x) * i_snr
        out, finite = np.full(len(self.x), np.nan), np.isfinite(self.x)
        low = np.flatnonzero(~(mean >= 0.5) & finite)
        if low.size:
            ln_f = [self.model.ln_cdf(x) for x in self.x[low].tolist()]
            with np.errstate(divide="ignore"):
                out[low] = np.logaddexp(ln_f, self.x[low] + np.log(i_snr[low]))
        high = np.flatnonzero((mean >= 0.5) & finite)
        if high.size:
            p, t = p[high], self._tilted(-p[high], high)
            s = self._partial_sum(
                lambda d, v, ln_w: np.exp(ln_w) * np.expm1(-p[:, None] * d), high
            ) + (t + np.expm1(-p * self.y[high]) * (self.sums[1, high] + t))
            with np.errstate(divide="ignore"):
                out[high] = np.log1p(np.maximum(s, -1.0))
        return out


def _thresholds(model, target, placed, residual, closed, what) -> tuple:
    """(roots, errors) of a batch for an edge sum f, decreasing in ln a,
    that reaches target at the root, with each row placed by its caller:
    placed = (j, f_above, f_at), j the first edge from first on with f >=
    target (size when none), f_above and f_at f at edges j-1 and j (0
    where there is none).

    Each root lies below edge e = j - 1.  j = first (no nodes above the
    root: the jump at the top of a grid) leaves e = -1 and the row on
    ell[first], refused; between two grid edges the root
    is solved by _solve_rows on ln f - ln target, from residual(roots,
    rows, f_e) -> (ln f - ln target, dln f/dln a) at the rows' _Roots, with
    f_e = f at their edges; below the last edge, or between two atoms, the gap
    y = ell[e] - ln a and ln w are closed(rows, f_e, I_e), with I_e = I at
    the edges and w the weight of 1/z at the edge in f's integrand, and the
    roots keep y: ell[e] minus ln a loses its digits near an atom.  Below a
    density's last edge the closed form takes no mass between the root and
    that edge; the part it leaves out is at most w E{1/z ; a <= z < edge},
    which the model bounds, and a row whose bound passes 2^-53 of its
    target is refused.  errors[i] is the BracketFailure of a row whose root
    is not finite, the NumericalError of a row so refused or placed above
    the nodes, else None; nothing is raised for the batch.
    """
    groups = model._groups
    j, f_above, f_at = placed
    e = np.where(j <= groups.first, -1, j - 1)
    x, y = np.where(e < 0, groups.ell[groups.first], np.nan), np.zeros(len(j))
    inside = (e >= 0) & (j < groups.size) & groups.panels
    shut = np.flatnonzero((e >= 0) & ~inside)
    if shut.size:
        y[shut], ln_w = closed(shut, f_above[shut], groups.sums[0, e[shut]])
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
    if groups.panels and shut.size:
        # The part of the law that the closed form leaves out, past 2^-53
        # of the target, moves the root.
        floor = groups.ell[-1]
        ln_miss = ln_w + model._ln_inverse_below(floor, y[shut])
        for i, miss in zip(shut.tolist(), ln_miss.tolist()):
            if miss > math.log(target[i]) - 53.0 * LN2:
                errors[i] = NumericalError(
                    f"{what}: the root exp({x[i]:g}) lies below the "
                    f"{math.exp(floor):g} floor of the expectation nodes, "
                    f"and the law between the two may add up to exp({miss:g}) "
                    f"to its target {target[i]:g}"
                )
    for i in np.flatnonzero(e < 0):
        errors[i] = NumericalError(
            f"{what} = exp({x[i]:g}) is not resolved: its target {target[i]:g} "
            "is reached only above the top of the expectation nodes"
        )
    for i in np.flatnonzero(~np.isfinite(x)):
        errors[i] = BracketFailure(f"{what}: no root in the double range")
    return _Roots(model, x, y, e, inside), errors


def _power_rows(snr: np.ndarray, beta: np.ndarray, model: FadingModel):
    """(roots, errors): ln(alpha) per row with E{mu_opt} = snr[i] at beta[i],
    on a mean-1 law (its callers fold the mean in).

    The mean power M is the tilted sum of v with exponent s = 1/(beta+1),
    decreasing in ln a; _Groups.search places each root by its values at
    the edges, and inside a grid panel _solve_rows solves ln M = ln snr
    with dln M/dln a = -(M + I) s / M.  Below the last edge, or between two
    atoms, M = M(e) + expm1(s y)(I(e) + M(e)) gives the gap in closed form,
    y = (beta+1) log1p((snr - M(e))/(I(e) + M(e))); where that quotient
    passes the doubles, log1p of it is ln(snr - M(e)) - ln(I(e) + M(e)).
    """
    s = 1.0 / (beta + 1.0)
    s_u, inv = np.unique(s, return_inverse=True)
    ln_snr = np.log(snr)

    def residual(roots, rows, m_e):
        m = roots.mean_power(s[rows], m_e)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(m) - ln_snr[rows], -(m + roots.inverse()) * s[rows] / m

    def closed(rows, m_e, i_e):
        gap, room = snr[rows] - m_e, i_e + m_e
        with np.errstate(over="ignore", divide="ignore"):
            ln_q = np.log(gap) - np.log(room)
            q = gap / room
            y = np.log1p(q)
            past = np.isinf(q)
            y[past] = ln_q[past]
            return (beta[rows] + 1.0) * y, ln_q

    placed = model._groups.search(s_u, snr, inv)
    return _thresholds(model, snr, placed, residual, closed, "power threshold")


def _log_moment_rows(c: np.ndarray, model: FadingModel):
    """(roots, errors): ln(alpha*) per row with L1 = E{ln(z/a)/z ; z >= a}
    = c[i], solved as _power_rows solves, on the edge sums of v d: one
    searchsorted of those nondecreasing sums places each row, dln L1/dln a
    = -I/L1 inside a grid panel, and the gap in closed form y = (c -
    L1(e))/I(e) between two atoms or below the last edge."""
    ln_c = np.log(c)

    def residual(roots, rows, l1_e):
        l1 = roots.log_moment()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(l1) - ln_c[rows], -roots.inverse() / l1

    def closed(rows, l1_e, i_e):
        with np.errstate(divide="ignore", over="ignore"):
            y = (c[rows] - l1_e) / i_e
            return y, np.log(y)

    edge_l1, first = model._groups.sums[2], model._groups.first
    j = first + np.searchsorted(edge_l1[first:], c)
    # L1 at edges j-1 and j, 0 past either end
    padded = np.concatenate(([0.0], edge_l1, [0.0]))
    what = "wideband CSIT threshold alpha*"
    return _thresholds(model, c, (j, padded[j], padded[j + 1]), residual, closed, what)


def solve_alpha(snr: float, qos: QosConfig, model: FadingModel) -> PowerPolicy:
    """Find the gain cutoff alpha with E{mu_opt} = snr.

    The mean transmit power is strictly decreasing in alpha, so the root is
    unique; theta = 0 (beta = 0) gives the classical water-filling threshold.
    The one-row case of _alpha_rows.
    """
    if not (snr > 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be positive and finite, got {snr}")
    return PowerPolicy(_one_row(_alpha_rows([snr], qos.theta, qos.T, [qos.B], model)), qos.beta)


def _alpha_rows(snr, theta, T: float, B, model: FadingModel) -> list:
    """Thresholds of a batch: per row ln alpha with E{mu_opt} = snr > 0 at beta = theta*T*B/ln2,
    or that row's NumericalError; theta and B as for _csit_rows.  A beta past the doubles keeps
    _qos_rows' refusal (a subnormal theta*T*B water-fills), an snr*mean _fold's; the other rows
    are one _power_rows batch on the mean-1 law, ln a + ln mu; a law whose nodes are refused
    refuses them all."""
    _, beta, refused = _qos_rows(theta, T, B)
    law, mu = model.unit
    x, out = _fold(snr, mu, "snr")
    out = [error if b == math.inf else o for error, o, b in zip(refused, out, beta.tolist())]
    live = np.flatnonzero([o is None for o in out])
    try:
        roots, errors = _power_rows(x[live], beta[live], law)
    except NumericalError as exc:
        return [o or exc for o in out]
    for i, error, ln_a in zip(live.tolist(), errors, (roots.x + math.log(mu)).tolist()):
        out[i] = error or ln_a
    return out


def spectral_efficiency_csir(snr: float, qos: QosConfig, model: FadingModel) -> float:
    """-(1/(theta T B)) ln E{(1+snr z)^(-beta)} in bits/s/Hz.

    Raises ThetaZero at theta = 0; that limit is shannon_limit's job.  The
    one-row case of _csir_rows.
    """
    if qos.theta == 0:
        raise ThetaZero("spectral_efficiency_csir is 0/0 at theta=0; use shannon_limit")
    _check_snr(snr)
    return _one_row(_csir_rows([snr], qos.theta, qos.T, [qos.B], model))


def _csir_rows(snr, theta, T: float, B, model: FadingModel) -> list:
    """CSIR rates of a batch: per row the spectral efficiency, or the
    NumericalError that row raised; snr >= 0, theta and B as for
    _csit_rows.  A row at snr = 0 has rate 0, a row at theta = 0 the
    Shannon limit E{log2(1 + snr z)}.  The batch reads the support nodes
    once (a refused set is the refusal of every row left), and each row
    sums over them on its own; where beta ln(1 + x z) passes the doubles,
    the least L = ln(1 + x z) comes out: the rate is L_min/ln2 -
    ln E{exp(-beta (L - L_min))}/(theta T B)."""
    snr = np.asarray(snr, dtype=float)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), snr.shape)
    k, beta, out = _qos_rows(theta, T, B)
    law, mu = model.unit
    xs, folded = _fold(snr, mu, "snr")
    out = [0.0 if s == 0 else o or f for s, o, f in zip(snr.tolist(), out, folded)]
    if None not in out:
        return out
    try:
        u, ln_w, z, w = law.support_nodes
    except NumericalError as exc:
        return [exc if o is None else o for o in out]
    for i, (x, t, k_i, b) in enumerate(zip(*(a.tolist() for a in (xs, theta, k, beta)))):
        if out[i] is not None:
            continue
        try:
            if t > 0:
                law._check_lumped(x, b)
            # ln(1 + x z): log1p(x z) while x z at the top node is a double
            ln1p = (np.log1p(x * z) if x * float(z[-1]) < math.inf
                    else np.logaddexp(0.0, math.log(x) + u))
            if t == 0:
                out[i] = float(np.dot(w, ln1p)) / LN2
            elif b * float(ln1p[-1]) < math.inf:
                out[i] = -_ln_mean_exp(ln_w, -b * ln1p, w) / k_i
            else:
                low = float(ln1p[0])
                with np.errstate(over="ignore"):
                    out[i] = low / LN2 - _ln_mean_exp(ln_w, -b * (ln1p - low), w) / k_i
        except NumericalError as exc:
            out[i] = exc
    return out


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
    return _one_row(_csit_rows([snr], qos.theta, qos.T, [qos.B], model))[0]


def _one_row(rows: list):
    """The row of a one-row batch; raises it if it is a NumericalError."""
    (row,) = rows
    if isinstance(row, NumericalError):
        raise row
    return row


def _csit_rows(snr, theta, T: float, B, model: FadingModel) -> list:
    """CSIT rates of a batch: per row (spectral efficiency, ln alpha), or
    the NumericalError that row raised.  snr > 0 and B are per row, theta
    per row or one for all; every threshold is solved in one _power_rows
    batch.  A row at theta = 0 reads its rate from log_gain, the others
    from ln_mean_power at their snr."""
    snr = np.asarray(snr, dtype=float)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), snr.shape)
    k, beta, out = _qos_rows(theta, T, B)
    law, mu = model.unit
    x, folded = _fold(snr, mu, "snr")
    out = [o or f for o, f in zip(out, folded)]
    # ln 2 at theta = 0, where the rate is in nats
    scale = np.where(theta > 0, k, LN2)
    rows = np.flatnonzero([o is None for o in out])
    if not rows.size:
        return out
    try:
        roots, errors = _power_rows(x[rows], beta[rows], law)
    except NumericalError as exc:
        return [exc if o is None else o for o in out]
    log_total = np.empty(len(rows))
    water = theta[rows] == 0
    if water.any():
        log_total[water] = -roots.take(water).log_gain()
    if not water.all():
        b = beta[rows][~water]
        log_total[~water] = roots.take(~water).ln_mean_power(b / (b + 1.0),
                                                             x[rows][~water])
    se = np.maximum(-log_total / scale[rows], 0.0)
    ln_mu = math.log(mu)
    for j, i in enumerate(rows):
        out[i] = errors[j] or (float(se[j]), float(roots.x[j]) + ln_mu)
    return out


def shannon_limit(snr: float, mode: str, qos: QosConfig, model: FadingModel) -> float:
    """Ergodic capacity in bits/s/Hz, the theta -> 0 limit of the above.

    csir: E{log2(1+snr z)}.  csit: water-filling over the gain, which is
    spectral_efficiency_csit at theta = 0.  qos is accepted for signature
    symmetry; the limit does not depend on it.
    """
    _check_mode(mode)
    _check_snr(snr)
    if mode == "csir":
        return _one_row(_csir_rows([snr], 0.0, qos.T, [qos.B], model))
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
        if qos.B * (_LN_MAX - policy.ln_alpha) < math.inf:
            return np.divide(np.multiply(qos.B, r, out=out), (policy.beta + 1.0) * LN2, out=out)
        # B ln(z/alpha) may pass the doubles where the rate does not
        return np.multiply(np.divide(r, (policy.beta + 1.0) * LN2, out=out), qos.B, out=out)


def _check_snr(snr: float):
    if not (snr >= 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be >= 0 and finite, got {snr}")


def _check_mode(mode: str):
    if mode not in ("csir", "csit"):
        raise ValueError(f"mode must be 'csir' or 'csit', got {mode!r}")
