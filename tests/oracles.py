"""Closed forms, plain estimators and direct sums the tests check the
package against.

None is used by the package or the CLI: each is an independent route to
a quantity that the package computes another way, except solve_alpha_ln,
the one-row threshold solve that batch rows are checked against.  The
direct sums run over the node set log_nodes(ln a) at the threshold itself,
where the package composes them from its sums at the grid edges and
atoms; gamma_panel_nodes builds a uniform node set of its own.
json_artifact and csv_artifact are the CLI's former writer, built on
json.dumps and per-cell formatting, and use nothing of the package.
"""

import json
import math

import numpy as np

from qos_energy import AsymptoticSummary, ThetaZero
from qos_energy.asymptotics import _check_wideband_args
from qos_energy.effcap import LN2, _power_rows
from qos_energy.fading import _logsumexp


def wideband_csir_rayleigh_closed_form(
    theta: float, T: float, pbar_over_n0: float
) -> AsymptoticSummary:
    """Unit-mean Rayleigh wideband CSIR limits in closed form.

    E{exp(-c z)} = 1/(1+c) turns the general expressions into
        Eb/N0|min = theta*T*(Pbar/N0) / ln(1+c)
        S0 = ((1 + 1/c) ln(1+c))^2
    which the general route must reproduce; both tend to the
    fixed-bandwidth values ln2 and 2 as theta -> 0.
    """
    _check_wideband_args(theta, T, pbar_over_n0)
    if theta == 0:
        raise ValueError("closed form needs theta > 0; use wideband_csir for theta = 0")
    x = theta * T * pbar_over_n0
    c = x / LN2
    lin = x / math.log1p(c)
    s0 = ((1.0 + 1.0 / c) * math.log1p(c)) ** 2
    return AsymptoticSummary(
        ebn0_min_linear=lin,
        slope_s0=s0,
        regime="wideband",
        mode="csir",
    )


def effective_capacity_from_rates(rates, theta: float, T: float) -> float:
    """-(1/(theta T)) ln mean(exp(-theta T r)) over sampled service rates."""
    if theta <= 0:
        raise ThetaZero("empirical effective capacity needs theta > 0")
    r = np.asarray(rates, dtype=float)
    log_mean = _logsumexp(-theta * T * r) - math.log(r.size)
    return -log_mean / (theta * T)


def mean_policy_power(model, ln_alpha: float, beta: float) -> tuple[float, float]:
    """(M, -dM/dln alpha) for M = E{mu_opt(z) 1{z >= alpha}}, summed directly
    over log_nodes(ln alpha).

    -dM/dln alpha = E{(z/alpha)^(1/(beta+1))/z ; z >= alpha}/(beta+1), the
    weights of M times expm1(...) + 1; the boundary term vanishes because
    mu_opt is 0 at z = alpha.
    """
    u, ln_w = model.log_nodes(ln_alpha)
    w = np.exp(ln_w - u)
    m = float(np.dot(w, np.expm1((u - ln_alpha) / (beta + 1.0))))
    return m, (m + float(w.sum())) / (beta + 1.0)


def ln_rate_mean(model, ln_a: float, p: float) -> float:
    """ln(F(a) + E{(z/a)^-p ; z >= a}), the log of the CSIT rate's mean at
    the threshold a and p = beta/(beta+1), and ln xi at p = 1: a direct
    log-sum-exp over log_nodes(ln a), with F(a) = P(Z < a) from the
    model's CDF."""
    u, ln_w = model.log_nodes(ln_a)
    return _logsumexp(np.append(ln_w - p * (u - ln_a), model.ln_cdf(ln_a)))


def log_moments_above(model, ln_a: float) -> tuple[float, float, float]:
    """E{ln^k(z/a) (1/z), z >= a} for k = 0, 1, 2, summed directly over
    log_nodes(ln a): the inverse moment I, the alpha* equation's left side
    L1 = -integral of I, and the curvature H of the wideband slope."""
    u, ln_w = model.log_nodes(ln_a)
    w = np.exp(ln_w - u)
    d = u - ln_a
    wd = w * d
    return float(w.sum()), float(wd.sum()), float(np.dot(wd, d))


def solve_alpha_ln(snr: float, beta: float, model) -> float:
    """ln(alpha) with E{mu_opt} = snr at beta: the one-row _power_rows
    batch, raising the row's error."""
    roots, (error,) = _power_rows(np.array([snr]), np.array([beta]), model)
    if error is not None:
        raise error
    return float(roots.x[0])


def gamma_panel_nodes(m: float, scale: float, ln_lo: float, ln_hi: float):
    """(u, ln_w) of 16-point Gauss-Legendre panels 0.25 wide in u = ln z,
    from ln_lo up to ln_hi, the last one partial, for the Gamma law of
    shape m and scale: exp(ln_w) = the rule's weights times z p(z), with
    ln(z p(z)) = m u - z/scale - lgamma(m) - m ln(scale) written out here."""
    x, w = np.polynomial.legendre.leggauss(16)
    lo = ln_lo + 0.25 * np.arange(math.ceil((ln_hi - ln_lo) / 0.25))
    half = 0.5 * (np.minimum(lo + 0.25, ln_hi) - lo)[:, None]
    u = lo[:, None] + half * (1.0 + x)
    ln_zp = m * u - np.exp(u) / scale - math.lgamma(m) - m * math.log(scale)
    return u.ravel(), (np.log(half * w) + ln_zp).ravel()


def json_artifact(doc) -> str:
    """A JSON artifact as json.dumps writes it: numpy scalars as Python
    numbers, non-finite floats as the strings "inf", "-inf" and "nan",
    two-space indent, sorted keys and a final newline."""

    def sanitize(obj):
        if isinstance(obj, dict):
            return {k: sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            obj = obj.item()
        if isinstance(obj, float):
            if math.isnan(obj):
                return "nan"
            if math.isinf(obj):
                return "inf" if obj > 0 else "-inf"
        return obj

    return json.dumps(sanitize(doc), indent=2, sort_keys=True) + "\n"


def csv_artifact(header: str, rows) -> str:
    """A CSV artifact cell by cell: text as is, empty for None and nan,
    inf and -inf spelled out, other numbers to 12 significant digits."""

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        if x is None or math.isnan(x):
            return ""
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{float(x):.12g}"

    lines = [header] + [",".join(cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"
