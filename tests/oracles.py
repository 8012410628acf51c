"""Closed forms and plain estimators the tests check the package against.

Neither is used by the package or the CLI: each is an independent route to
a quantity that the package computes another way.
"""

import math

import numpy as np

from qos_energy import AsymptoticSummary, ThetaZero
from qos_energy.asymptotics import _check_wideband_args
from qos_energy.effcap import LN2
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
