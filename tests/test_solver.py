"""The batched safeguarded Newton threshold solver and the residuals it is fed."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import log_moments_above, mean_policy_power, solve_alpha_ln
from qos_energy import (
    BoundedTable,
    BracketFailure,
    Deterministic,
    NakagamiM,
    NumericalError,
    Rayleigh,
    SweepSpec,
    solve_alpha_star,
    tradeoff_curve,
)
from qos_energy import asymptotics, effcap
from qos_energy import sweep as sweep_mod
from qos_energy.cli import main
from qos_energy.effcap import _power_rows, _solve_rows

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


def count_evals(monkeypatch) -> list:
    """Residual calls of every batched solve made while patched: one list of
    the rows evaluated at each call, per _solve_rows batch."""
    batches = []

    def counting(residual, lo, hi, r_lo, r_hi):
        calls = []

        def counted(x, rows):
            calls.append(len(rows))
            return residual(x, rows)

        batches.append(calls)
        return _solve_rows(counted, lo, hi, r_lo, r_hi)

    monkeypatch.setattr(effcap, "_solve_rows", counting)
    return batches


def solve(residual, lo, hi):
    """_solve_rows on residual(x, rows), its ends evaluated here."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    every = np.arange(lo.size)
    r_lo, r_hi = residual(lo, every)[0], residual(hi, every)[0]
    return _solve_rows(residual, lo, hi, r_lo, r_hi)


def arctan(x, rows):
    return -np.arctan(x - 0.3), -1.0 / (1.0 + (x - 0.3) ** 2)


class TestSolveThreshold:
    """The batched safeguarded Newton solver on synthetic residuals; each
    case solves several rows at once."""

    def test_newton_divergence_is_caught_by_the_bracket(self):
        # Newton on arctan overshoots from far away; bisection reins it in
        root = solve(arctan, [-40.0, -3.0, 0.2], [40.0, 39.0, 0.4])
        assert np.all(np.abs(root - 0.3) < 1e-13)

    def test_bad_derivative_falls_back_to_bisection(self):
        calls = []

        def residual(x, rows):
            calls.append(x.size)
            return (1.1 - x) * (1.0 + (1.1 - x) ** 2), np.full(x.size, np.nan)

        root = solve(residual, [-3.0, -2.0], [5.0, 4.0])
        assert np.all(np.abs(root - 1.1) < 1e-13)
        assert len(calls) > 40  # only bisection can find it

    def test_exact_derivative_converges_quadratically(self):
        calls = []

        def residual(x, rows):
            calls.append(x.size)
            return np.exp(-x) - 0.25, -np.exp(-x)

        root = solve(residual, [-10.0, -1.0, 1.0], [10.0, 2.0, 20.0])
        assert root == pytest.approx(math.log(4.0), abs=1e-14)
        assert len(calls) <= 2 + 12

    def test_expands_the_bracket_both_ways(self):
        # A root on either end of its bracket needs no evaluation, and the
        # model solves reach roots past the lattice both ways: the closed
        # form below its floor, the panels just below its top.
        root = _solve_rows(
            lambda x, rows: pytest.fail("evaluated"),
            np.array([0.0, 0.0]), np.array([1.0, 1.0]),
            np.array([0.0, 1.0]), np.array([-1.0, 0.0]),
        )
        assert root.tolist() == [0.0, 1.0]
        for snr, beta in ((1e300, 0.0), (1e-30, 0.0)):
            ln_a = solve_alpha_ln(snr, beta, RAY)
            assert mean_policy_power(RAY, ln_a, beta)[0] == pytest.approx(snr, rel=1e-12)
        assert solve_alpha_ln(1e300, 0.0, RAY) < math.log(1e-280)
        # The root at beta = 1e3 lies as far below the floor, but the law
        # between it and the floor moves it, and mean_policy_power, clamped
        # to the same floor, cannot see that: it is refused.
        with pytest.raises(NumericalError, match="1e-280 floor"):
            solve_alpha_ln(1e250, 1e3, RAY)

    def test_no_sign_change_raises(self):
        # rows whose ends do not bracket a root come back NaN, the rest solve
        def line(x, rows):
            return np.array([1.0, -1.0, 0.3])[rows] - x, -np.ones(x.size)

        root = solve(line, [-5.0, 5.0, 0.0], [-4.0, 6.0, 1.0])
        assert np.isnan(root[:2]).all()
        assert root[2] == pytest.approx(0.3, abs=1e-13)

    @pytest.mark.parametrize("start", [-80.0, -49.0, 0.5, 49.0, 80.0])
    def test_a_start_anywhere_finds_the_root(self, start):
        # brackets stretched from just past the root out to start
        roots = np.array([-50.0, 0.3, 50.0])
        got = solve(
            lambda x, rows: (roots[rows] - x, -np.ones(x.size)),
            np.minimum(roots - 1.0, start), np.maximum(roots + 1.0, start),
        )
        assert got == pytest.approx(roots, abs=1e-13)
        got = solve(arctan, [min(start, -0.7)], [max(start, 1.3)])
        assert abs(got[0] - 0.3) < 1e-13

    def test_a_start_at_the_root_takes_one_evaluation(self):
        # the first probe is the secant point, the root of a line
        calls = []

        def residual(x, rows):
            calls.append(x.size)
            return 0.3 - x, -np.ones(x.size)

        root = solve(residual, [0.0], [1.0])
        assert root[0] == 0.3
        assert calls == [1, 1, 1]  # both ends, then the root

    def test_no_sign_change_raises_from_a_start(self):
        # a row with no root in the double range is a BracketFailure for
        # that row only; its neighbours are the one-row solves
        snr, beta = np.array([1.0, 1e308, 2.0]), np.array([0.3, 1e306, 0.3])
        roots, errors = _power_rows(snr, beta, RAY)
        assert errors[0] is None and errors[2] is None
        with pytest.raises(BracketFailure, match="power threshold"):
            raise errors[1]
        for i in (0, 2):
            assert roots.x[i] == solve_alpha_ln(snr[i], beta[i], RAY)


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=0.6), TAB0])
    def test_power_slope_matches_central_difference(self, model):
        for ln_a, beta in ((-3.0, 0.5), (-0.4, 20.0), (0.6, 0.0)):
            _, slope = mean_policy_power(model, ln_a, beta)
            h = 1e-5
            plus, _ = mean_policy_power(model, ln_a + h, beta)
            minus, _ = mean_policy_power(model, ln_a - h, beta)
            assert -slope == pytest.approx((plus - minus) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=0.6), TAB0])
    def test_log_moment_slope_is_minus_inverse_moment(self, model):
        for ln_a in (-3.0, -0.4, 0.6):
            inv, _, _ = log_moments_above(model, ln_a)
            h = 1e-5
            plus = log_moments_above(model, ln_a + h)[1]
            minus = log_moments_above(model, ln_a - h)[1]
            assert -inv == pytest.approx((plus - minus) / (2 * h), rel=1e-6)


class TestRootsMatchBrentq:
    @pytest.mark.parametrize("model, snr, beta", POWER_CASES)
    def test_power_threshold(self, model, snr, beta):
        got = solve_alpha_ln(snr, beta, model)
        want = brentq_root(
            lambda x: mean_policy_power(model, x, beta)[0] - snr,
            math.log(1e-12),
            math.log(model.upper_cutoff()),
        )
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("model, theta, pbar_over_n0", STAR_CASES)
    def test_alpha_star(self, model, theta, pbar_over_n0):
        c = theta * T * pbar_over_n0 / math.log(2.0)
        got = solve_alpha_star(model, theta, T, pbar_over_n0).ln_alpha_star
        want = brentq_root(
            lambda x: log_moments_above(model, x)[1] - c,
            math.log(1e-12),
            math.log(model.upper_cutoff()),
        )
        assert abs(got - want) <= 1e-12


def default_csit_spec(model, regime) -> SweepSpec:
    return SweepSpec(
        model=model,
        mode="csit",
        regime=regime,
        theta_list=(0.0, 0.001, 0.01, 0.1, 1.0),
        T=T,
        B=1e5,
        pbar_over_n0=1e4,
    )


def count_line_evals(monkeypatch) -> tuple[list, list]:
    """count_evals, plus per sweep._csit_rows call (one per CSIT sweep, all
    its grid lines) the batches made inside it."""
    batches, lines = count_evals(monkeypatch), []
    real = sweep_mod._csit_rows

    def recording(*args):
        before = len(batches)
        out = real(*args)
        lines.append(batches[before:])
        return out

    monkeypatch.setattr(sweep_mod, "_csit_rows", recording)
    return batches, lines


class TestEvaluationBudget:
    def test_rayleigh_power_solves_take_at_most_20_evaluations(self, monkeypatch):
        # plain bisection needs ~45 inside the bracket alone
        batches = count_evals(monkeypatch)
        for snr in np.logspace(-5, 1, 7):
            for beta in np.logspace(-3, 3, 7):
                solve_alpha_ln(float(snr), float(beta), RAY)
        assert 40 <= len(batches) <= 49
        assert max(map(len, batches)) <= 20

    def test_alpha_star_solves_take_at_most_20_evaluations(self, monkeypatch):
        batches = count_evals(monkeypatch)
        for model in (RAY, NakagamiM(m=0.5), NakagamiM(m=2.0), TAB0):
            for theta in np.logspace(-3, 0, 4):
                solve_alpha_star(model, float(theta), T, 1e4)
        # the table's roots are closed forms
        assert len(batches) == 12
        assert max(map(len, batches)) <= 20

    def test_alpha_star_command_solves_each_alpha_star_once(
        self, monkeypatch, tmp_path, capsys
    ):
        # the default thetas are 0, 0.001, 0.01, 0.1 and 1; theta = 0 needs
        # no solve
        real = asymptotics._alpha_star_rows
        solved = []

        def counting(model, thetas, T, pbars):
            solved.extend(theta for theta in thetas if theta > 0)
            return real(model, thetas, T, pbars)

        monkeypatch.setattr(asymptotics, "_alpha_star_rows", counting)
        monkeypatch.setattr(sweep_mod, "_alpha_star_rows", counting)
        assert main(["alpha-star", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(solved) == 4

    @pytest.mark.parametrize(
        "argv, thresholds",
        [
            (["sweep", "--mode", "csit", "--regime", "wideband"], 2),
            (["asymptotics", "--mode", "csit", "--regime", "wideband"], 1),
            (["alpha-star"], 2),
        ],
        ids=["sweep", "asymptotics", "alpha-star"],
    )
    def test_each_command_solves_its_alpha_stars_as_one_batch(
        self, monkeypatch, tmp_path, capsys, argv, thresholds
    ):
        # one threshold batch for every grid line (5 thetas) and one alpha*
        # floor batch (_alpha_star_roots) for every theta of the invocation
        calls = {"thresholds": 0, "alpha_star": 0}

        def counted(name, real):
            def counting(*args):
                calls[name] += 1
                return real(*args)

            return counting

        monkeypatch.setattr(effcap, "_thresholds", counted("thresholds", effcap._thresholds))
        stars = counted("alpha_star", asymptotics._alpha_star_roots)
        monkeypatch.setattr(asymptotics, "_alpha_star_roots", stars)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls == {"thresholds": thresholds, "alpha_star": 1}

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=2.0)], ids=repr)
    @pytest.mark.parametrize("regime", ["lowpower", "wideband"])
    def test_warm_csit_sweeps_take_at_most_60_percent_of_cold(
        self, monkeypatch, model, regime
    ):
        # The batched sweep makes at most 60% of the residual calls that
        # solving its points one by one makes, and at most 20 in all.
        spec = default_csit_spec(model, regime)
        batches, lines = count_line_evals(monkeypatch)
        tradeoff_curve(spec)
        batches.clear()
        grid = np.array(spec.grid)
        snrs, bands = (grid, np.full(60, 1e5)) if regime == "lowpower" else (
            1e4 * grid, 1.0 / grid)
        for theta in spec.theta_list:
            for i in range(60):
                effcap._csit_rows(snrs[i : i + 1], theta, T, bands[i : i + 1], model)
        calls = [len(calls) for line in lines for calls in line]
        assert len(lines) == 1 and max(calls) <= 20
        assert sum(calls) <= 0.6 * sum(map(len, batches))

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=2.0), TAB0], ids=repr)
    @pytest.mark.parametrize("regime", ["lowpower", "wideband"])
    def test_each_default_grid_line_is_one_batch(self, monkeypatch, model, regime):
        # one _csit_rows call of 60 rows per theta (5 thetas), at most one
        # batched solve in it, and no residual call per point
        _, lines = count_line_evals(monkeypatch)
        curves = tradeoff_curve(default_csit_spec(model, regime))
        assert sum(c.failures for c in curves) == 0
        assert len(lines) == 1
        for line in lines:
            assert len(line) <= 1
            assert all(len(calls) <= 20 and max(calls) == 5 * 60 for calls in line)
