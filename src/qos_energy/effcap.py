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
before its logarithm does.  solve_threshold takes a decreasing residual
that returns its value and its analytic derivative in ln(alpha), both from
one node set, and an optional start point.  Newton runs from the start
(the upper end of the initial bracket when there is none), so a sweep
that starts each grid point at the root of the one before takes a few
steps where a cold solve takes about nine.  The bracket is lazy: an end
is probed only when a step would leave the bracket on its side, and
grows geometrically while its residual keeps the sign of the inside.  A
step that is not strictly inside the bracket, or a derivative that is not
finite and negative, gives that end probe or a bisection step instead.
Every probe shrinks the bracket by its sign, and the solve stops when a
step or the bracket is narrower than 1e-13 in ln(alpha).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DivergentInverseMoment, ThetaZero
from .fading import FadingModel, _ln_mean_exp

LN2 = math.log(2.0)

_LN_ALPHA_TOL = 1e-13
_MAX_ITER = 300
_MAX_EXPAND = 60


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
        return self.theta * self.T * self.B / LN2

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


def _mean_policy_power(
    model: FadingModel, ln_alpha: float, beta: float
) -> tuple[float, float]:
    """(M, -dM/dln alpha) for M = E{mu_opt(z) 1{z >= alpha}}, from one node set.

    -dM/dln alpha = E{(z/alpha)^(1/(beta+1))/z ; z >= alpha}/(beta+1), the
    weights of M times expm1(...) + 1; the boundary term vanishes because
    mu_opt is 0 at z = alpha.
    """
    u, ln_w = model.log_nodes(ln_alpha)
    w = np.exp(ln_w - u)
    m = float(np.dot(w, np.expm1((u - ln_alpha) / (beta + 1.0))))
    return m, (m + float(w.sum())) / (beta + 1.0)


def solve_threshold(
    residual, lo_ln: float, hi_ln: float, what: str, start: float | None = None
) -> float:
    """Root in ln(alpha) of a decreasing residual, to _LN_ALPHA_TOL.

    residual(ln_a) returns (r, dr/dln_a).  The first probe is start, or
    hi_ln when start is None, and Newton steps go from the latest probe.
    [lo_ln, hi_ln] is an unprobed guess at the bracket: an end is probed
    only when a step would leave the bracket on its side, and moves out
    geometrically (at most _MAX_EXPAND times each way) while its residual
    has the sign of the inside.  A probed end takes over as the Newton
    point only if its |r| is smaller.  A step that leaves the bracket
    (unless it is below _LN_ALPHA_TOL, which ends the solve), or a dr that
    is not finite and negative, is replaced by that end probe or, once
    both ends are known, by bisection.  Every probe shrinks the bracket by
    the sign of its residual.
    """
    span = max(hi_ln - lo_ln, 1.0)
    lo_known = hi_known = False
    up = down = 0
    x = hi_ln if start is None else start
    at_end = False
    for _ in range(_MAX_ITER):
        r, dr = residual(x)
        if r > 0:
            if x >= hi_ln:
                up += 1
                if up > _MAX_EXPAND:
                    raise BracketFailure(
                        f"{what}: no upper bracket; residual stays positive"
                    )
                hi_ln, span = x + span, 2.0 * span
            lo_ln, lo_known = x, True
        else:
            if x <= lo_ln:
                down += 1
                if down > _MAX_EXPAND:
                    raise BracketFailure(
                        f"{what}: no lower bracket; residual stays negative"
                    )
                lo_ln, span = x - span, 2.0 * span
            hi_ln, hi_known = x, True
        if not at_end or abs(r) < abs(best[1]):
            best = x, r, dr
        x, r, dr = best
        step = -r / dr if math.isfinite(dr) and dr < 0 else math.nan
        at_end = False
        if not (abs(step) < _LN_ALPHA_TOL or lo_ln < x + step < hi_ln):
            if r > 0 and not hi_known:
                step, at_end = hi_ln - x, True
            elif r <= 0 and not lo_known:
                step, at_end = lo_ln - x, True
            else:
                step = 0.5 * (lo_ln + hi_ln) - x
        x += step
        if abs(step) < _LN_ALPHA_TOL or hi_ln - lo_ln < _LN_ALPHA_TOL:
            break
    return x


def _solve_alpha_ln(
    snr: float, beta: float, model: FadingModel, start: float | None = None
) -> float:
    """ln(alpha) such that the threshold policy spends exactly snr on average.

    Solves ln M - ln snr, whose derivative in ln(alpha) is dM/M; start is
    the solve's first probe (None for a cold start).
    """
    ln_snr = math.log(snr)

    def residual(ln_a: float) -> tuple[float, float]:
        m, slope = _mean_policy_power(model, ln_a, beta)
        if m <= 0:
            return -math.inf, math.nan
        return math.log(m) - ln_snr, -slope / m

    return solve_threshold(
        residual,
        math.log(1e-12),
        math.log(model.upper_cutoff()),
        "power threshold solve",
        start,
    )


def solve_alpha(snr: float, qos: QosConfig, model: FadingModel) -> PowerPolicy:
    """Find the gain cutoff alpha with E{mu_opt} = snr.

    The mean transmit power is strictly decreasing in alpha, so the root is
    unique; theta = 0 (beta = 0) gives the classical water-filling threshold.
    """
    if not (snr > 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be positive and finite, got {snr}")
    return PowerPolicy(_solve_alpha_ln(snr, qos.beta, model), qos.beta)


def spectral_efficiency_csir(snr: float, qos: QosConfig, model: FadingModel) -> float:
    """-(1/(theta T B)) ln E{(1+snr z)^(-beta)} in bits/s/Hz.

    Raises ThetaZero at theta = 0; that limit is shannon_limit's job.
    """
    if qos.theta == 0:
        raise ThetaZero("spectral_efficiency_csir is 0/0 at theta=0; use shannon_limit")
    _check_snr(snr)
    if snr == 0:
        return 0.0
    _, ln_w, z, w = model.support_nodes
    log_e = _ln_mean_exp(ln_w, -qos.beta * np.log1p(snr * z), w=w)
    return -log_e / (qos.theta * qos.T * qos.B)


def spectral_efficiency_csit(snr: float, qos: QosConfig, model: FadingModel) -> float:
    """Spectral efficiency with the optimal threshold power policy.

    Evaluates -(1/(theta T B)) ln(F(alpha) + E{(z/alpha)^(-beta/(beta+1))
    1{z>=alpha}}) at the solved alpha in the log domain (fading._ln_mean_exp),
    so a threshold below the smallest double still gives a finite rate and
    a weak QoS exponent keeps its digits; theta = 0 routes to the ergodic
    water-filling limit.
    """
    _check_snr(snr)
    if snr == 0:
        return 0.0
    return _csit_point(snr, qos, model)[0]


def _csit_point(
    snr: float, qos: QosConfig, model: FadingModel, start: float | None = None
) -> tuple[float, float]:
    """(spectral efficiency, ln alpha) of the CSIT policy at snr > 0, with
    start as the threshold solve's first probe (None for a cold start)."""
    ln_a = _solve_alpha_ln(snr, qos.beta, model, start)
    if qos.theta == 0:
        return _waterfill_se(ln_a, model), ln_a
    p = qos.beta / (qos.beta + 1.0)
    u, ln_w = model.log_nodes(ln_a)
    log_total = _ln_mean_exp(ln_w, -p * (u - ln_a), model.ln_cdf(ln_a))
    se = -log_total / (qos.theta * qos.T * qos.B)
    return max(se, 0.0), ln_a


def _waterfill_se(ln_a: float, model: FadingModel) -> float:
    """Water-filling rate E{log2(z/alpha), z >= alpha} with cutoff ln(alpha)."""
    u, ln_w = model.log_nodes(ln_a)
    return float(np.dot(np.exp(ln_w), u - ln_a)) / LN2


def shannon_limit(snr: float, mode: str, qos: QosConfig, model: FadingModel) -> float:
    """Ergodic capacity in bits/s/Hz, the theta -> 0 limit of the above.

    csir: E{log2(1+snr z)}.  csit: water-filling over the gain with the
    beta = 0 threshold.  qos is accepted for signature symmetry; the limit
    does not depend on it.
    """
    _check_mode(mode)
    _check_snr(snr)
    if snr == 0:
        return 0.0
    if mode == "csir":
        _, _, z, w = model.support_nodes
        return float(np.dot(w, np.log1p(snr * z))) / LN2
    return _waterfill_se(_solve_alpha_ln(snr, 0.0, model), model)


def delay_limited_limit(snr: float, mode: str, model: FadingModel) -> float:
    """Rate sustainable in every fading state, the theta -> infinity limit.

    csir: log2(1+snr z_min).  csit: log2(1+snr/E{1/z}) by channel inversion;
    when E{1/z} diverges (e.g. exponential gains) the value is 0 and a
    DivergentInverseMoment warning is issued.
    """
    _check_mode(mode)
    _check_snr(snr)
    if mode == "csir":
        return math.log1p(snr * model.z_min) / LN2
    inv = model.inverse_moment()
    if math.isinf(inv):
        warnings.warn(
            "E{1/z} diverges; delay-limited rate with transmitter CSI is 0",
            DivergentInverseMoment,
            stacklevel=2,
        )
        return 0.0
    return math.log1p(snr / inv) / LN2


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


def service_rate_csir(snr: float, z, qos: QosConfig):
    """Frame service rate B log2(1+snr z) in bits/s (scalar or array z)."""
    return qos.B * np.log1p(snr * np.asarray(z, dtype=float)) / LN2


def service_rate_csit(policy: PowerPolicy, z, qos: QosConfig):
    """Frame service rate B log2(1+mu_opt z) = B ln(z/alpha)/((beta+1) ln2)
    above the cutoff, 0 below (scalar or array z).

    fmax maps the -inf of a zero gain and the NaN of a negative or NaN gain
    to 0, so the rate takes one pass per operation and no mask.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lnz = np.log(np.asarray(z, dtype=float))
        return (
            qos.B * np.fmax(lnz - policy.ln_alpha, 0.0)
            / ((policy.beta + 1.0) * LN2)
        )


def _check_snr(snr: float):
    if not (snr >= 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be >= 0 and finite, got {snr}")


def _check_mode(mode: str):
    if mode not in ("csir", "csit"):
        raise ValueError(f"mode must be 'csir' or 'csit', got {mode!r}")
