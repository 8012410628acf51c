"""Bit-energy floors, wideband slopes, and the CSIT threshold solver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import digamma, exp1, polygamma

from oracles import (
    log_moments_above,
    solve_alpha_ln,
    wideband_csir_rayleigh_closed_form,
)
from qos_energy import (
    AlphaStarSolution,
    AsymptoticSummary,
    BoundedTable,
    Deterministic,
    NakagamiM,
    NumericalError,
    QosConfig,
    Rayleigh,
    delta_bit_energy,
    linear_approx,
    lowpower_csir,
    lowpower_csit,
    solve_alpha_star,
    spectral_efficiency_csit,
    wideband_csir,
    wideband_csit,
)
from qos_energy.asymptotics import _DB_PER_FACTOR2, _ln_xi
from qos_energy.effcap import LN2, _Roots
from test_acceptance import CSIT_SLOPES

RAY = Rayleigh()
NAK2 = NakagamiM(m=2.0, mean=1.0)
TAB = BoundedTable(((0.25, 0.2), (1.0, 0.5), (4.0, 0.3)))
T = 2e-3
PN0 = 1e4

# Independently derived reference values for Rayleigh (unit mean) with
# T = 2e-3 and Pbar/N0 = 1e4.  alpha* from brentq on the log-moment
# equation, xi = 1 - exp(-a) + a*E1(a), alpha_dot(0) from implicit
# differentiation of the finite-bandwidth power constraint, S0 from its
# definition as the zeta -> 0 secant slope of the exact finite-bandwidth
# curve.  TestWidebandCsitAnchors.test_oracle_recipe_reproduces rebuilds
# a, xi, eb_db and s0 with scipy alone.
CSIT_ANCHORS = {
    0.001: dict(a=1.60409526513, xi=0.936549215634, eb_db=-5.155639392,
                a_dot=-134157.6945, s0=0.3078279675),
    0.01: dict(a=0.57175383026, xi=0.710607287308, eb_db=-2.325327941,
               a_dot=-6248.99509, s0=1.060527618),
    0.1: dict(a=0.0711571033923, xi=0.22064473007, eb_db=1.217076406,
              a_dot=-5.463877199, s0=2.49514697),
    1.0: dict(a=0.000314422867111, xi=0.00266873115283, eb_db=5.282571987,
              a_dot=0.6820547995, s0=3.936588301),
}


# QoS exponents where E{exp(h)} sits within rounding of 1.
WEAK_THETAS = (1e-6, 1e-9, 1e-12, 1e-15, 1e-18, 1e-30)


class TestAsymptoticSummary:
    @pytest.mark.parametrize(
        "lin, db, unbounded",
        [(0.0, -math.inf, True), (2.0, 10.0 * math.log10(2.0), False)],
    )
    def test_db_floor_and_flag_follow_the_linear_floor(self, lin, db, unbounded):
        summary = AsymptoticSummary(
            ebn0_min_linear=lin, slope_s0=1.0, regime="lowpower", mode="csit"
        )
        assert summary.ebn0_min_db == db
        assert summary.unbounded_support is unbounded
        moved = replace(summary, regime="wideband")
        assert (moved.ebn0_min_db, moved.unbounded_support) == (db, unbounded)

    def test_negative_floor_raises(self):
        with pytest.raises(ValueError):
            AsymptoticSummary(
                ebn0_min_linear=-1.0, slope_s0=1.0, regime="lowpower", mode="csir"
            )


class TestWeakQos:
    def test_wideband_csir_matches_rayleigh_laplace_transform(self):
        # ln E{exp(-c z)} = -log1p(c) for unit-mean Rayleigh
        for theta in WEAK_THETAS + (1e-300,):
            x = theta * T * PN0
            c = x / LN2
            summary = wideband_csir(RAY, theta, T, PN0)
            assert summary.ebn0_min_linear == pytest.approx(
                x / math.log1p(c), rel=1e-12
            )
            assert summary.slope_s0 == pytest.approx(
                ((1.0 + 1.0 / c) * math.log1p(c)) ** 2, rel=1e-12
            )

    def test_rayleigh_xi_at_the_solved_threshold(self):
        # xi = 1 - exp(-a) + a E1(a) for unit-mean Rayleigh
        for theta in WEAK_THETAS:
            sol = solve_alpha_star(RAY, theta, T, PN0)
            a = sol.alpha_star
            want = math.log1p(a * exp1(a) - math.exp(-a))
            assert sol.ln_xi == pytest.approx(want, rel=1e-9)
            summary = wideband_csit(RAY, theta, T, PN0)
            assert math.isfinite(summary.ebn0_min_db)

    def test_laplace_transform_rounding_to_one_is_a_numerical_error(self):
        # c z0 = 3e-333 rounds to 0, so ln E{exp(-c z)} = 0 and the floor
        # would divide by zero
        with pytest.raises(NumericalError, match="not negative"):
            wideband_csir(Deterministic(z0=1e-300), 1e-30, T, 1.0)

    def test_xi_of_one_is_a_numerical_error(self):
        # at the atom itself, xi = F(a) + a E{1/z ; z >= a} = 1
        det = Deterministic(z0=1.0)
        roots = _Roots(
            det, np.zeros(1), np.zeros(1), np.zeros(1, dtype=int), np.zeros(1, dtype=bool)
        )
        ln_xi = float(roots.ln_mean_power(np.ones(1))[0])
        assert ln_xi == 0.0
        with pytest.raises(NumericalError, match="not negative"):
            _ln_xi(ln_xi, 0.0)

    @pytest.mark.parametrize(
        "model, theta, t, pn0",
        [
            # c = theta*T*(Pbar/N0)/ln2 underflows to 0 or a subnormal
            (BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3))),
             5e-324, 1.0, 100.0),
            (Deterministic(1.3), 1e-310, 1e-20, 1.0),
            (RAY, 1e-300, 1e-20, 1e-3),
            # k = theta*T/ln2 underflows: dln alpha/dzeta leaves the doubles
            (RAY, 1e-300, 1e-20, 1e300),
        ],
    )
    def test_underflowing_parameter_products_are_numerical_errors(
        self, model, theta, t, pn0
    ):
        for solve in (solve_alpha_star, wideband_csit):
            with pytest.raises(NumericalError):
                solve(model, theta, t, pn0)

    def test_threshold_near_the_node_cut_is_resolved_or_refused(self):
        # alpha* ~ 69 at theta = 1e-33 still has the tail above it in its
        # nodes; past the last threshold with nodes (~75) it is refused,
        # never solved on nodes truncated just above it
        for theta in (1e-28, 1e-33):
            a = solve_alpha_star(RAY, theta, T, 100.0).alpha_star
            l1, _ = quad(lambda t: t * math.exp(-a * math.exp(t)), 0.0, 50.0,
                         epsabs=0.0, epsrel=1e-13, limit=200)
            assert l1 == pytest.approx(theta * T * 100.0 / LN2, rel=1e-12)
        for theta in (1e-40, 1e-50):
            with pytest.raises(NumericalError, match="not resolved"):
                solve_alpha_star(RAY, theta, T, 100.0)

    def test_threshold_beyond_the_nodes_is_a_numerical_error(self):
        # alpha* ~ 680 for c ~ 3e-301, beyond the last Rayleigh node (~75)
        with pytest.raises(NumericalError, match="not resolved"):
            solve_alpha_star(RAY, 1e-300, T, 100.0)


class TestLowpowerCsir:
    def test_floor_is_ln2_over_mean_gain(self):
        for model in (RAY, NAK2, Deterministic(1.0)):
            for beta in (0.0, 1.0, 10.0):
                s = lowpower_csir(model, beta)
                assert s.ebn0_min_linear == pytest.approx(LN2, rel=1e-12)
                assert s.ebn0_min_db == pytest.approx(-1.5917, abs=5e-4)
        s = lowpower_csir(TAB, 2.0)
        assert s.ebn0_min_linear == pytest.approx(LN2 / 1.75, rel=1e-12)

    def test_rayleigh_slope_2_over_beta_plus_2(self):
        # E{z^2}/E{z}^2 = 2 for exponential gains
        for beta in (0.0, 0.5, 2.0, 50.0):
            s = lowpower_csir(RAY, beta)
            assert s.slope_s0 == pytest.approx(2.0 / (beta + 2.0), rel=1e-12)
        assert lowpower_csir(RAY, 0.0).slope_s0 == pytest.approx(1.0, rel=1e-12)

    def test_nakagami_slope_from_second_moment(self):
        # E{z^2}/E{z}^2 = (m+1)/m for a gamma-distributed gain
        for m in (0.5, 2.0, 4.0):
            kurt = (m + 1.0) / m
            for beta in (0.0, 3.0):
                s = lowpower_csir(NakagamiM(m=m, mean=1.0), beta)
                assert s.slope_s0 == pytest.approx(
                    2.0 / ((beta + 1.0) * kurt - beta), rel=1e-10
                )

    def test_deterministic_slope_is_2_for_any_beta(self):
        for beta in (0.0, 1.0, 300.0):
            assert lowpower_csir(Deterministic(1.3), beta).slope_s0 == pytest.approx(
                2.0, rel=1e-12
            )

    def test_tags_and_validation(self):
        s = lowpower_csir(RAY, 1.0)
        assert (s.regime, s.mode, s.unbounded_support) == ("lowpower", "csir", False)
        with pytest.raises(ValueError):
            lowpower_csir(RAY, -0.5)
        with pytest.raises(ValueError):
            lowpower_csir(RAY, math.inf)


class TestLowpowerCsit:
    def test_unbounded_gain_floor_is_zero(self):
        for model in (RAY, NAK2):
            s = lowpower_csit(model, 2.0)
            assert s.ebn0_min_linear == 0.0
            assert s.ebn0_min_db == -math.inf
            assert not math.isnan(s.ebn0_min_db)
            assert s.slope_s0 == 0.0
            assert s.unbounded_support

    def test_bounded_gain_floor_and_slope(self):
        # mass p = 0.3 at z_max = 4.0
        for beta, want in ((0.0, 0.6), (2.0, 2.0 * 0.3 / (2.0 * 0.7 + 1.0))):
            s = lowpower_csit(TAB, beta)
            assert s.ebn0_min_linear == pytest.approx(LN2 / 4.0, rel=1e-12)
            assert s.slope_s0 == pytest.approx(want, rel=1e-12)
            assert not s.unbounded_support

    def test_deterministic_behaves_like_awgn(self):
        s = lowpower_csit(Deterministic(2.5), 5.0)
        assert s.ebn0_min_linear == pytest.approx(LN2 / 2.5, rel=1e-12)
        assert s.slope_s0 == pytest.approx(2.0, rel=1e-12)


class TestWidebandCsir:
    def test_slope_overflow_is_a_numerical_error(self):
        # a zero atom keeps E{exp(-c z)} at P(z = 0) = 0.5 while
        # E{z^2 exp(-c z)} ~ exp(-2885) underflows: S0 is beyond the doubles
        table = BoundedTable(((0.0, 0.5), (1.0, 0.5)))
        with pytest.raises(NumericalError, match="theta=1, T=0.002, pbar_over_n0=1e"):
            wideband_csir(table, 1.0, T, 1e6)

    def test_matches_rayleigh_closed_form(self):
        # generic quadrature route vs the analytic expressions, mutually
        for theta in (0.001, 0.01, 0.1, 1.0):
            a = wideband_csir(RAY, theta, T, PN0)
            b = wideband_csir_rayleigh_closed_form(theta, T, PN0)
            assert a.ebn0_min_linear == pytest.approx(b.ebn0_min_linear, rel=1e-10)
            assert a.slope_s0 == pytest.approx(b.slope_s0, rel=1e-10)

    def test_rayleigh_slope_reference_values(self):
        want = {0.001: 1.0288, 0.01: 1.2817, 0.1: 3.3401, 1.0: 12.3484}
        for theta, s0 in want.items():
            s = wideband_csir(RAY, theta, T, PN0)
            assert s.slope_s0 == pytest.approx(s0, abs=1e-3)

    def test_small_theta_limit_recovers_lowpower(self):
        s = wideband_csir_rayleigh_closed_form(1e-9, T, PN0)
        assert s.ebn0_min_linear == pytest.approx(LN2, rel=1e-6)
        assert s.slope_s0 == pytest.approx(1.0, abs=1e-6)

    def test_theta_zero_routes_to_lowpower_values(self):
        s = wideband_csir(RAY, 0.0, T, PN0)
        assert s.regime == "wideband"
        base = lowpower_csir(RAY, 0.0)
        assert s.ebn0_min_linear == base.ebn0_min_linear
        assert s.slope_s0 == base.slope_s0
        with pytest.raises(ValueError):
            wideband_csir_rayleigh_closed_form(0.0, T, PN0)

    def test_floor_rises_and_slope_grows_with_theta(self):
        thetas = np.logspace(-3, 0, 8)
        floors = [wideband_csir(RAY, t, T, PN0).ebn0_min_db for t in thetas]
        slopes = [wideband_csir(RAY, t, T, PN0).slope_s0 for t in thetas]
        assert all(b > a for a, b in zip(floors, floors[1:]))
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            wideband_csir(RAY, -0.1, T, PN0)
        with pytest.raises(ValueError):
            wideband_csir(RAY, 0.1, 0.0, PN0)
        with pytest.raises(ValueError):
            wideband_csir(RAY, 0.1, T, 0.0)


class TestSolveAlphaStar:
    def test_fixed_point_residual_small(self):
        for model in (RAY, NAK2):
            for theta in (1e-3, 1e-2, 1e-1, 1.0):
                c = theta * T * PN0 / LN2
                sol = solve_alpha_star(model, theta, T, PN0)
                res = log_moments_above(model, sol.ln_alpha_star)[1] - c
                assert abs(res) <= 1e-8 * c

    def test_alpha_star_strictly_decreasing_in_theta(self):
        for model in (RAY, NAK2):
            vals = [
                solve_alpha_star(model, t, T, PN0).alpha_star
                for t in np.logspace(-3, 0, 7)
            ]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_log_fields_consistent(self):
        for theta in (0.001, 1.0):
            sol = solve_alpha_star(RAY, theta, T, PN0)
            assert math.exp(sol.ln_alpha_star) == pytest.approx(
                sol.alpha_star, rel=1e-13
            )
            assert math.exp(sol.ln_xi) == pytest.approx(sol.xi, rel=1e-13)
            assert sol.alpha_dot_zero == pytest.approx(
                sol.dln_alpha_dzeta * sol.alpha_star, rel=1e-13
            )

    def test_theta_zero_escapes_to_z_max(self):
        sol = solve_alpha_star(TAB, 0.0, T, PN0)
        assert sol.alpha_star == 4.0
        assert sol.xi == 1.0
        assert sol.ln_xi == 0.0
        assert sol.alpha_dot_zero is None
        ray_sol = solve_alpha_star(RAY, 0.0, T, PN0)
        assert ray_sol.alpha_star == math.inf
        assert ray_sol.xi == 1.0

    def test_derivative_quotients_converge(self):
        # (ln alpha(zeta) - ln alpha*)/zeta -> dln_alpha_dzeta with O(zeta)
        for model in (RAY, NAK2, TAB):
            for theta in (0.01, 0.1):
                sol = solve_alpha_star(model, theta, T, PN0)
                scale = theta * T / LN2
                errs = []
                for frac in (1e-2, 1e-3, 1e-4):
                    zeta = scale * frac
                    beta = theta * T / (zeta * LN2)
                    ln_k = solve_alpha_ln(PN0 * zeta, beta, model)
                    q = (ln_k - sol.ln_alpha_star) / zeta
                    errs.append(abs(q - sol.dln_alpha_dzeta))
                assert errs[0] > errs[1] > errs[2]
                assert errs[2] <= 5e-3 * abs(sol.dln_alpha_dzeta)


def rayleigh_expect_above(f, a):
    """E{f(z) ; z >= a} for the unit-mean exponential gain, scipy only."""
    pts = [a * 10.0**k for k in range(1, 60) if a * 10.0**k < 60.0]
    val, _ = quad(
        lambda z: f(z) * math.exp(-z),
        a,
        60.0,
        epsabs=1e-16,
        epsrel=1e-13,
        limit=400,
        points=pts or None,
    )
    return val


class TestWidebandCsitAnchors:
    def test_oracle_recipe_reproduces(self):
        # rebuild every anchor row from scratch, with scipy only, so the
        # frozen table and the ACCEPTANCE 2 references stay auditable.
        # S0 comes from its definition: the secant of the exact
        # finite-bandwidth spectral efficiency against Eb/N0|dB above the
        # floor, at zeta = 1/B = 1e-8 and 5e-9, extrapolated to zeta = 0
        # (Richardson, first order).
        ln2 = math.log(2.0)
        db_per_factor2 = 10.0 * math.log10(2.0)
        expect_above = rayleigh_expect_above

        for theta, ref in CSIT_ANCHORS.items():
            k = theta * T / ln2
            c = k * PN0
            a_star = brentq(
                lambda a: expect_above(lambda z: math.log(z / a) / z, a) - c,
                1e-8,
                50.0,
                rtol=8.9e-16,
            )
            xi = 1.0 - math.exp(-a_star) + a_star * exp1(a_star)
            eb_db = 10.0 * math.log10(-theta * T * PN0 / math.log(xi))
            assert a_star == pytest.approx(ref["a"], rel=1e-9)
            assert xi == pytest.approx(ref["xi"], rel=1e-9)
            assert eb_db == pytest.approx(ref["eb_db"], abs=1e-8)

            secants = []
            for zeta in (1e-8, 5e-9):
                # beta = k/zeta: mu(z) = expm1(s ln(z/a))/z above the
                # threshold with s = 1/(beta+1), and the power constraint
                # E{mu} = snr = (Pbar/N0) zeta is divided through by zeta
                s = zeta / (k + zeta)

                def power_over_zeta(a):
                    mu_over_s = expect_above(
                        lambda z: math.expm1(s * math.log(z / a)) / (s * z), a
                    )
                    return mu_over_s / (k + zeta)

                a = brentq(
                    lambda a: power_over_zeta(a) - PN0, 1e-8, 50.0, rtol=8.9e-16
                )
                xi_zeta = -math.expm1(-a) + expect_above(
                    lambda z: math.exp(-(1.0 - s) * math.log(z / a)), a
                )
                se = -zeta * math.log(xi_zeta) / (theta * T)
                eb_db_zeta = 10.0 * math.log10(PN0 * zeta / se)
                secants.append(se * db_per_factor2 / (eb_db_zeta - eb_db))
            s0 = 2.0 * secants[1] - secants[0]
            assert s0 == pytest.approx(ref["s0"], rel=1e-5)
            assert round(s0, 4) == CSIT_SLOPES[theta]

    def test_strong_qos_threshold_matches_oracle(self):
        # theta = 1, Pbar/N0 = 1e6: c ~ 2885 puts alpha* near 1e-33, where
        # the oracle's decade breakpoints carry the quadrature
        theta, pn0 = 1.0, 1e6
        c = theta * T * pn0 / math.log(2.0)
        ln_star = brentq(
            lambda x: rayleigh_expect_above(
                lambda z: (math.log(z) - x) / z, math.exp(x)
            )
            - c,
            math.log(1e-40),
            math.log(1e-20),
            xtol=1e-14,
        )
        sol = solve_alpha_star(RAY, theta, T, pn0)
        assert abs(sol.ln_alpha_star - ln_star) <= 1e-11
        assert math.isfinite(wideband_csit(RAY, theta, T, pn0).slope_s0)

    def test_threshold_and_xi(self):
        for theta, ref in CSIT_ANCHORS.items():
            sol = solve_alpha_star(RAY, theta, T, PN0)
            assert sol.alpha_star == pytest.approx(ref["a"], rel=1e-8)
            assert sol.xi == pytest.approx(ref["xi"], rel=1e-8)

    def test_threshold_derivative(self):
        for theta, ref in CSIT_ANCHORS.items():
            sol = solve_alpha_star(RAY, theta, T, PN0)
            assert sol.alpha_dot_zero == pytest.approx(ref["a_dot"], rel=1e-4)

    def test_floor_and_slope(self):
        for theta, ref in CSIT_ANCHORS.items():
            s = wideband_csit(RAY, theta, T, PN0)
            assert s.ebn0_min_db == pytest.approx(ref["eb_db"], abs=1e-7)
            assert s.slope_s0 == pytest.approx(ref["s0"], rel=1e-6)
            assert (s.regime, s.mode) == ("wideband", "csit")


class TestWidebandCsitStructure:
    def test_slope_matches_secant_slope(self):
        # S0 against its definition: the secant slope of the exact
        # spectral-efficiency curve versus Eb/N0|dB just above the floor.
        # The error shrinks roughly linearly with zeta.
        for model in (RAY, NAK2, NakagamiM(0.7), TAB, Deterministic(1.3)):
            for theta in (0.001, 0.01, 0.1, 1.0):
                s = wideband_csit(model, theta, T, PN0)
                errs = []
                for zeta in (1e-7, 1e-8):
                    qos = QosConfig(theta=theta, T=T, B=1.0 / zeta)
                    snr = PN0 * zeta
                    se = spectral_efficiency_csit(snr, qos, model)
                    eb_db = 10.0 * math.log10(snr / se)
                    secant = se * _DB_PER_FACTOR2 / (eb_db - s.ebn0_min_db)
                    errs.append(abs(secant - s.slope_s0) / s.slope_s0)
                assert errs[1] < errs[0]
                assert errs[1] <= 1e-3

    def test_deterministic_floor_and_slope(self):
        # ln(z/alpha)/z0 = c gives xi = exp(-c z0) and so the floor
        # ln2/z0 exactly; the slope is the AWGN value 2 for every theta
        for z0 in (1.0, 2.5):
            for theta in (0.001, 0.01, 1.0):
                s = wideband_csit(Deterministic(z0), theta, T, PN0)
                assert s.ebn0_min_linear == pytest.approx(LN2 / z0, rel=1e-12)
                assert s.slope_s0 == pytest.approx(2.0, rel=1e-12)

    def test_underflowing_threshold_reaches_channel_inversion(self):
        # Nakagami m > 1 at c ~ 2885 puts alpha* near exp(-1694), far below
        # the smallest double.  The gamma moments E{z^r ln^j z} then give
        # the fixed point, H and xi = alpha* E{1/z} in closed form; the
        # floor approaches the channel-inversion value ln2 E{1/z}.
        model = NakagamiM(m=2.42, mean=1.0)
        theta, pn0 = 1.0, 1e6
        c = theta * T * pn0 / LN2
        inv = model.inverse_moment()
        mu = math.log(model.scale) + digamma(model.m - 1.0)
        ln_a = mu - c / inv
        h = inv * ((mu - ln_a) ** 2 + polygamma(1, model.m - 1.0))
        ln_xi = ln_a + math.log(inv)
        sol = solve_alpha_star(model, theta, T, pn0)
        assert sol.alpha_star == 0.0
        assert sol.ln_alpha_star == pytest.approx(ln_a, rel=1e-12)
        assert sol.ln_xi == pytest.approx(ln_xi, rel=1e-12)
        s = wideband_csit(model, theta, T, pn0)
        floor = -theta * T * pn0 / ln_xi
        assert s.ebn0_min_linear == pytest.approx(floor, rel=1e-12)
        assert s.ebn0_min_linear < LN2 * inv
        assert s.slope_s0 == pytest.approx(2.0 * inv * ln_xi**2 / h, rel=1e-10)

    def test_slope_overflow_is_a_numerical_error(self):
        # a zero atom keeps xi near P(z = 0) = 0.1 while alpha* falls to
        # exp(-2432), so S0 ~ xi/alpha* is beyond the double range
        table = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
        sol = solve_alpha_star(table, 1.0, T, 1e6)
        assert sol.ln_alpha_star < -2400
        assert sol.xi == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(NumericalError, match="theta=1, T=0.002, pbar_over_n0=1e"):
            wideband_csit(table, 1.0, T, 1e6)

    def test_theta_zero_routes_to_lowpower(self):
        s = wideband_csit(TAB, 0.0, T, PN0)
        assert s.regime == "wideband"
        assert s.ebn0_min_linear == pytest.approx(LN2 / 4.0, rel=1e-12)
        assert s.slope_s0 == pytest.approx(0.6, rel=1e-12)
        ray_s = wideband_csit(RAY, 0.0, T, PN0)
        assert ray_s.ebn0_min_db == -math.inf
        assert ray_s.unbounded_support

    def test_csit_floor_below_csir_floor(self):
        for theta in (0.001, 0.01, 0.1, 1.0):
            csit = wideband_csit(RAY, theta, T, PN0)
            csir = wideband_csir(RAY, theta, T, PN0)
            assert csit.ebn0_min_db < csir.ebn0_min_db

    def test_db_fields_never_nan(self):
        for model in (RAY, NAK2, TAB, Deterministic(0.7)):
            for theta in (0.0, 0.01, 1.0):
                for s in (
                    wideband_csir(model, theta, T, PN0),
                    wideband_csit(model, theta, T, PN0),
                ):
                    assert not math.isnan(s.ebn0_min_db)
                    assert not math.isnan(s.slope_s0)


class TestLinearApprox:
    def test_scalar_and_vector(self):
        s = lowpower_csir(RAY, 0.0)  # floor ln2, slope 1
        assert linear_approx(s.ebn0_min_db, s) == pytest.approx(0.0, abs=1e-14)
        assert linear_approx(s.ebn0_min_db + _DB_PER_FACTOR2, s) == pytest.approx(
            1.0, rel=1e-12
        )
        grid = np.array([s.ebn0_min_db, s.ebn0_min_db + 1.0, s.ebn0_min_db + 2.0])
        out = linear_approx(grid, s)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_rejects_infinite_floor(self):
        with pytest.raises(ValueError):
            linear_approx(0.0, lowpower_csit(RAY, 1.0))


class TestDeltaBitEnergy:
    def test_consistent_with_linear_approx(self):
        # at fixed se, the dB gap between two slopes sharing a floor
        se = 0.5
        s0_a, s0_b = 2.0, 1.0
        base = lowpower_csir(RAY, 0.0)
        eb_a = base.ebn0_min_db + se * _DB_PER_FACTOR2 / s0_a
        eb_b = base.ebn0_min_db + se * _DB_PER_FACTOR2 / s0_b
        assert delta_bit_energy(se, s0_a, s0_b) == pytest.approx(
            eb_b - eb_a, rel=1e-12
        )
        assert linear_approx(eb_a, replace(base, slope_s0=s0_a)) == pytest.approx(
            se, rel=1e-12
        )

    def test_sign_and_validation(self):
        assert delta_bit_energy(1.0, 2.0, 1.0) > 0
        assert delta_bit_energy(1.0, 1.0, 2.0) < 0
        with pytest.raises(ValueError):
            delta_bit_energy(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            delta_bit_energy(1.0, 0.0, 1.0)
