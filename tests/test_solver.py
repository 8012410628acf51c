"""The safeguarded Newton threshold solver and the residuals it is fed."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qos_energy import (
    BoundedTable,
    BracketFailure,
    Deterministic,
    NakagamiM,
    Rayleigh,
    SweepSpec,
    solve_alpha_star,
    tradeoff_curve,
)
from qos_energy import asymptotics, effcap
from qos_energy import sweep as sweep_mod
from qos_energy.asymptotics import _log_moments_above
from qos_energy.cli import main
from qos_energy.effcap import _mean_policy_power, _solve_alpha_ln, solve_threshold

RAY = Rayleigh()
TAB0 = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
T = 2e-3

# (model, snr, beta): the Nakagami-2 case is where Newton without the
# bracket diverges; the table's kinks at its atoms force bisection steps.
POWER_CASES = [
    (NakagamiM(m=2.0), 10.0, 288.0),
    (RAY, 1e-5, 1e-3),
    (RAY, 1.0, 7.2),
    (RAY, 10.0, 1e3),
    (NakagamiM(m=0.5), 0.1, 2.0),
    (NakagamiM(m=0.6), 3.0, 50.0),
    (Deterministic(z0=1.3), 2.0, 28.8),
    (TAB0, 0.5, 0.0),
    (TAB0, 5.0, 3.0),
    (TAB0, 20.0, 0.1),
]
STAR_CASES = [
    (RAY, 0.01, 1e4),
    (RAY, 1.0, 1e6),
    (NakagamiM(m=0.5), 0.1, 1e4),
    (NakagamiM(m=2.0), 0.3, 1e5),
    (TAB0, 0.01, 1e4),
    (TAB0, 1.0, 1e2),
]


def brentq_root(f, lo, hi):
    """Independent root of a decreasing f: expand down, then scipy brentq."""
    span = max(hi - lo, 1.0)
    while f(lo) <= 0:
        hi, lo = lo, lo - span
        span *= 2.0
    return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)


def count_evals(monkeypatch, what=None):
    """Residual evaluations of every threshold solve made while patched,
    or of those whose `what` is the given one."""
    counts = []

    def counting(residual, lo_ln, hi_ln, solve_what, start):
        n = 0

        def counted(ln_a):
            nonlocal n
            n += 1
            return residual(ln_a)

        root = solve_threshold(counted, lo_ln, hi_ln, solve_what, start)
        if what in (None, solve_what):
            counts.append(n)
        return root

    monkeypatch.setattr(effcap, "solve_threshold", counting)
    monkeypatch.setattr(asymptotics, "solve_threshold", counting)
    return counts


class TestSolveThreshold:
    def test_newton_divergence_is_caught_by_the_bracket(self):
        # Newton on arctan overshoots from far away; bisection reins it in
        def residual(x):
            return -math.atan(x - 0.3), -1.0 / (1.0 + (x - 0.3) ** 2)

        root = solve_threshold(residual, -40.0, 40.0, "arctan")
        assert abs(root - 0.3) < 1e-13

    def test_bad_derivative_falls_back_to_bisection(self):
        evals = 0

        def residual(x):
            nonlocal evals
            evals += 1
            return 1.1 - x, math.nan

        root = solve_threshold(residual, -3.0, 5.0, "nan derivative")
        assert abs(root - 1.1) < 1e-13
        assert evals > 40  # only bisection can find it

    def test_exact_derivative_converges_quadratically(self):
        evals = 0

        def residual(x):
            nonlocal evals
            evals += 1
            return math.exp(-x) - 0.25, -math.exp(-x)

        root = solve_threshold(residual, -10.0, 10.0, "exp")
        assert root == pytest.approx(math.log(4.0), abs=1e-14)
        assert evals <= 12

    def test_expands_the_bracket_both_ways(self):
        up = solve_threshold(lambda x: (50.0 - x, -1.0), 0.0, 1.0, "up")
        down = solve_threshold(lambda x: (-50.0 - x, -1.0), 0.0, 1.0, "down")
        assert up == pytest.approx(50.0, abs=1e-13)
        assert down == pytest.approx(-50.0, abs=1e-13)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketFailure):
            solve_threshold(lambda x: (1.0, 0.0), 0.0, 1.0, "positive")
        with pytest.raises(BracketFailure):
            solve_threshold(lambda x: (-1.0, 0.0), 0.0, 1.0, "negative")

    @pytest.mark.parametrize("start", [-80.0, -49.0, 0.5, 49.0, 80.0])
    def test_a_start_anywhere_finds_the_root(self, start):
        for root in (-50.0, 0.3, 50.0):
            got = solve_threshold(lambda x: (root - x, -1.0), 0.0, 1.0, "line", start)
            assert got == pytest.approx(root, abs=1e-13)
        arctan = solve_threshold(
            lambda x: (-math.atan(x - 0.3), -1.0 / (1.0 + (x - 0.3) ** 2)),
            -40.0,
            40.0,
            "arctan",
            start,
        )
        assert abs(arctan - 0.3) < 1e-13

    def test_a_start_at_the_root_takes_one_evaluation(self):
        evals = 0

        def residual(x):
            nonlocal evals
            evals += 1
            return math.exp(-x) - 0.25, -math.exp(-x)

        root = solve_threshold(residual, -10.0, 10.0, "exp", math.log(4.0))
        assert root == pytest.approx(math.log(4.0), abs=1e-14)
        assert evals == 1

    def test_no_sign_change_raises_from_a_start(self):
        with pytest.raises(BracketFailure, match="upper"):
            solve_threshold(lambda x: (1.0, 0.0), 0.0, 1.0, "positive", 5.0)
        with pytest.raises(BracketFailure, match="lower"):
            solve_threshold(lambda x: (-1.0, 0.0), 0.0, 1.0, "negative", -5.0)


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=0.6), TAB0])
    def test_power_slope_matches_central_difference(self, model):
        for ln_a, beta in ((-3.0, 0.5), (-0.4, 20.0), (0.6, 0.0)):
            _, slope = _mean_policy_power(model, ln_a, beta)
            h = 1e-5
            plus, _ = _mean_policy_power(model, ln_a + h, beta)
            minus, _ = _mean_policy_power(model, ln_a - h, beta)
            assert -slope == pytest.approx((plus - minus) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=0.6), TAB0])
    def test_log_moment_slope_is_minus_inverse_moment(self, model):
        for ln_a in (-3.0, -0.4, 0.6):
            inv, _, _ = _log_moments_above(model, ln_a)
            h = 1e-5
            plus = _log_moments_above(model, ln_a + h)[1]
            minus = _log_moments_above(model, ln_a - h)[1]
            assert -inv == pytest.approx((plus - minus) / (2 * h), rel=1e-6)


class TestRootsMatchBrentq:
    @pytest.mark.parametrize("model, snr, beta", POWER_CASES)
    def test_power_threshold(self, model, snr, beta):
        got = _solve_alpha_ln(snr, beta, model)
        want = brentq_root(
            lambda x: _mean_policy_power(model, x, beta)[0] - snr,
            math.log(1e-12),
            math.log(model.upper_cutoff()),
        )
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("model, theta, pbar_over_n0", STAR_CASES)
    def test_alpha_star(self, model, theta, pbar_over_n0):
        c = theta * T * pbar_over_n0 / math.log(2.0)
        got = solve_alpha_star(model, theta, T, pbar_over_n0).ln_alpha_star
        want = brentq_root(
            lambda x: _log_moments_above(model, x)[1] - c,
            math.log(1e-12),
            math.log(model.upper_cutoff()),
        )
        assert abs(got - want) <= 1e-12


class TestEvaluationBudget:
    def test_rayleigh_power_solves_take_at_most_20_evaluations(self, monkeypatch):
        # plain bisection needs ~45 inside the bracket alone
        counts = count_evals(monkeypatch)
        for snr in np.logspace(-5, 1, 7):
            for beta in np.logspace(-3, 3, 7):
                _solve_alpha_ln(float(snr), float(beta), RAY)
        assert len(counts) == 49
        assert max(counts) <= 20

    def test_alpha_star_solves_take_at_most_20_evaluations(self, monkeypatch):
        counts = count_evals(monkeypatch)
        for model in (RAY, NakagamiM(m=0.5), NakagamiM(m=2.0), TAB0):
            for theta in np.logspace(-3, 0, 4):
                solve_alpha_star(model, float(theta), T, 1e4)
        assert len(counts) == 16
        assert max(counts) <= 20

    def test_alpha_star_command_solves_each_alpha_star_once(
        self, monkeypatch, tmp_path, capsys
    ):
        # the default thetas are 0, 0.001, 0.01, 0.1 and 1; theta = 0 needs
        # no solve
        counts = count_evals(monkeypatch, "wideband CSIT threshold alpha*")
        assert main(["alpha-star", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(counts) == 4

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=2.0)], ids=repr)
    @pytest.mark.parametrize("regime", ["lowpower", "wideband"])
    def test_warm_csit_sweeps_take_at_most_60_percent_of_cold(
        self, monkeypatch, model, regime
    ):
        spec = SweepSpec(
            model=model,
            mode="csit",
            regime=regime,
            theta_list=(0.0, 0.001, 0.01, 0.1, 1.0),
            T=T,
            B=1e5,
            pbar_over_n0=1e4,
        )
        counts = count_evals(monkeypatch)
        tradeoff_curve(spec)
        warm = list(counts)
        counts.clear()
        real = sweep_mod._csit_point
        monkeypatch.setattr(
            sweep_mod, "_csit_point", lambda snr, qos, m, start: real(snr, qos, m)
        )
        tradeoff_curve(spec)
        assert len(warm) == len(counts) >= 300
        assert sum(warm) <= 0.6 * sum(counts)
        assert max(warm) <= 20
