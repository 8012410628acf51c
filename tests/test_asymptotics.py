"""Bit-energy floors, wideband slopes, and the CSIT threshold solver."""

import itertools
import math
import warnings
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
from qos_energy.asymptotics import _DB_PER_FACTOR2, _alpha_star_roots, _ln_xi
from qos_energy.effcap import LN2, _Roots
from qos_energy.sweep import ebn0_min_surface
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


# The wideband CSIR floor ln2/r and slope S0 of NakagamiM(m) at unit mean,
# with theta = x m ln2 and T = Pbar/N0 = 1, so that c s = x: m -> {x: (floor,
# S0)}.  From mpmath quadrature of the Gamma density at 40 digits, which
# imports nothing of qos_energy: 1 - L = E{-expm1(-c z)} for x <= 1, L itself
# above, and E{z^2 exp(-c z)}, each matching its closed form to 30 digits.
CSIR_ORACLE = {
    0.5: {
        1e-300: (0.6931471805599453, 0.6666666666666666),
        0.001: (0.6934936964168231, 0.6673332777777852),
        1.0: (1.0, 1.2812080371152037),
        1000.0: (100.32881506161208, 31.884268077869947),
        1e30: (1.0034333188799373e28, 3181.1388662870386),
        1e300: (1.0034333188799375e297, 318113.88662870385),
    },
    1.0: {
        1e-300: (0.6931471805599453, 1.0),
        0.001: (0.6934936964168231, 1.0009999166666779),
        1.0: (1.0, 1.9218120556728058),
        1000.0: (100.32881506161208, 47.82640211680492),
        1e30: (1.0034333188799373e28, 4771.708299430558),
        1e300: (1.0034333188799375e297, 477170.8299430558),
    },
    2.0: {
        1e-300: (0.6931471805599453, 1.3333333333333333),
        0.001: (0.6934936964168231, 1.3346665555555703),
        1.0: (1.0, 2.5624160742304074),
        1000.0: (100.32881506161208, 63.768536155739895),
        1e30: (1.0034333188799373e28, 6362.277732574077),
        1e300: (1.0034333188799375e297, 636227.7732574077),
    },
    8.0: {
        1e-300: (0.6931471805599453, 1.777777777777778),
        0.001: (0.6934936964168231, 1.7795554074074271),
        1.0: (1.0, 3.4165547656405435),
        1000.0: (100.32881506161208, 85.02471487431987),
        1e30: (1.0034333188799373e28, 8483.036976765437),
        1e300: (1.0034333188799375e297, 848303.6976765437),
    },
    20.0: {
        1e-300: (0.6931471805599453, 1.9047619047619049),
        0.001: (0.6934936964168231, 1.906666507936529),
        1.0: (1.0, 3.660594391757725),
        1000.0: (100.32881506161208, 91.09790879391414),
        1e30: (1.003433318879937e28, 9088.968189391539),
        1e300: (1.0034333188799373e297, 908896.8189391539),
    },
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

    def test_laplace_transform_rounding_to_one_takes_the_limit(self):
        # c z rounds to 0, so ln E{exp(-c z)} = 0: the floor is ln2/E{z}
        # and the slope 2 E{z}^2/E{z^2}, in wideband_csir and surface cells
        cases = (
            (Deterministic(z0=1e-300), 1e-30, T, 1.0, LN2 / 1e-300, 2.0),
            (RAY, 1e-310, 1e-20, 1e-3, LN2, 1.0),
        )
        for model, theta, t, pn0, floor, slope in cases:
            s = wideband_csir(model, theta, t, pn0)
            assert s.ebn0_min_linear == pytest.approx(floor, rel=1e-12)
            assert s.slope_s0 == pytest.approx(slope, rel=1e-12)
            ((db,),) = ebn0_min_surface("csir", model, (theta,), (pn0,), t).ebn0_min_db
            assert db == pytest.approx(10.0 * math.log10(floor), rel=1e-12)

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
            # k = theta*T/ln2 underflows: dln alpha/dzeta leaves the doubles,
            # which solve_alpha_star alone reports; wideband_csit resolves
            # (TestWidebandStages)
            (RAY, 1e-300, 1e-20, 1e300),
        ],
    )
    def test_underflowing_parameter_products_are_numerical_errors(
        self, model, theta, t, pn0
    ):
        derivative_only = (theta, t, pn0) == (1e-300, 1e-20, 1e300)
        for solve in (solve_alpha_star,) if derivative_only else (
            solve_alpha_star, wideband_csit
        ):
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

    def test_the_slope_does_not_cancel(self):
        # (beta+1) kappa - beta cancelled to 0 at kappa = 1 from beta = 2^53,
        # and "float division by zero" ended the asymptotics run; a table's
        # kappa reads its atoms over the top one, so no gain is squared
        for det in (Deterministic(1.3), Deterministic(4.9e199)):
            for beta in (2.0**53, 1e20 / LN2, 1e300):
                assert lowpower_csir(det, beta).slope_s0 == 2.0
        # against the old form at the default thetas: Rayleigh's bits,
        # Nakagami-2 within one ulp, a table within 1e-15
        for theta in (0.0, 0.001, 0.01, 0.1, 1.0):
            beta = QosConfig(theta, 2e-3, 1e5).beta
            for model, ulps in ((RAY, 0), (NAK2, 1)):
                kappa = (model.m + 1.0) / model.m
                old = 2.0 / ((beta + 1.0) * kappa - beta)
                assert abs(lowpower_csir(model, beta).slope_s0 - old) <= ulps * math.ulp(old)
            m1, m2 = float(TAB.ps @ TAB.zs), float(TAB.ps @ TAB.zs**2)
            old = 2.0 / ((beta + 1.0) * (m2 / (m1 * m1)) - beta)
            assert lowpower_csir(TAB, beta).slope_s0 == pytest.approx(old, rel=1e-15, abs=0.0)

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

    def test_negative_beta_is_rejected(self):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            lowpower_csit(TAB, -1.0)


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

    @pytest.mark.parametrize("m", (0.5, 1.0, 2.0))
    def test_gamma_law_matches_its_laplace_transform(self, m):
        # L = (1 + c s)^-m: the floor is ln2 c / (m ln(1 + c s)) and
        # S0 = 2 m (1 + 1/(c s))^2 ln^2(1 + c s) / (m + 1), to 1e-14 and
        # 1e-12 at means from 1e-20 to 1e20
        for mean in (1e-20, 1.0, 1e20):
            model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
            for cs in (1e-3, 1.0, 1e3, 1e8, 1e12, 1e16):
                theta = cs / model.scale * LN2
                c = theta / LN2
                cs = c * model.scale
                got = wideband_csir(model, theta, 1.0, 1.0)
                floor = LN2 * c / (m * math.log1p(cs))
                s0 = 2.0 * m * (1.0 + 1.0 / cs) ** 2 * math.log1p(cs) ** 2 / (m + 1.0)
                assert got.ebn0_min_linear == pytest.approx(floor, rel=1e-14, abs=0.0)
                assert got.slope_s0 == pytest.approx(s0, rel=1e-12, abs=0.0)

    def test_c_past_the_lumped_node_is_resolved(self):
        # sums over the support nodes refused c s > 1e20, where the mass
        # below scale 1e-30, on one node, moved E{exp(-c z)}: at c s = 1e30
        # the floor came out 4.4e-3 low and S0 3209.  The closed form takes
        # it; the references are CSIR_ORACLE's mpmath quadrature
        got = wideband_csir(RAY, 1e30 * LN2, 1.0, 1.0)
        assert got.ebn0_min_linear == pytest.approx(1.0034333188799374e28, rel=1e-13, abs=0.0)
        assert got.slope_s0 == pytest.approx(4771.7082994305582, rel=1e-13, abs=0.0)

    def test_c_z_past_the_doubles_is_resolved(self):
        # c = 1e306/ln2, so c z passes the doubles on the top nodes, and the
        # node sums refused it; a numpy warning on the way fails the test
        # (pyproject.toml).  mpmath quadrature as for CSIR_ORACLE
        got = wideband_csir(RAY, 1e3, 1e3, 1e300)
        assert got.ebn0_min_linear == pytest.approx(1.4185251268633578e303, rel=1e-13, abs=0.0)
        assert got.slope_s0 == pytest.approx(496965.14924311671, rel=1e-13, abs=0.0)

    def test_a_table_pair_where_every_c_z_passes_the_doubles(self):
        # c = 1.44e308: exp(-c z) is 0 on every positive atom.  With no zero
        # atom, L = 0 and r came out inf, refused as "not positive", where
        # r = z and S0 = 2; with the zero atom, L = 0.1, r = ln 10 / c and S0
        # passes the doubles (E{z^2 exp(-c z)} is 0)
        c = 1e308 / LN2
        table = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, s0 = Deterministic(1.3).laplace(c)
            got = wideband_csir(Deterministic(1.3), 1e5, 1e3, 1e300)
            r_table, s0_table = table.laplace(c)
            with pytest.raises(NumericalError, match="slope overflows"):
                wideband_csir(table, 1e5, 1e3, 1e300)
        assert (r, s0) == (1.3, pytest.approx(2.0, rel=1e-15))
        assert got.ebn0_min_linear == LN2 / 1.3
        assert got.slope_s0 == pytest.approx(2.0, rel=1e-15)
        assert r_table == pytest.approx(math.log(10.0) / c, rel=1e-14)
        assert s0_table == math.inf

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


class TestWidebandCsirClosedForm:
    """The Gamma law's wideband CSIR pair in closed form (NakagamiM.laplace)
    against oracles that do not import the package, at 1e-13 relative."""

    @pytest.mark.parametrize("m", sorted(CSIR_ORACLE))
    def test_floor_and_slope_match_mpmath(self, m):
        model = RAY if m == 1.0 else NakagamiM(m)
        cases = CSIR_ORACLE[m]
        thetas = [x * m * LN2 for x in cases]
        cells = ebn0_min_surface("csir", model, thetas, (1.0,), 1.0).ebn0_min_db
        for theta, (floor, s0), (db,) in zip(thetas, cases.values(), cells):
            got = wideband_csir(model, theta, 1.0, 1.0)
            assert got.ebn0_min_linear == pytest.approx(floor, rel=1e-13, abs=0.0)
            assert got.slope_s0 == pytest.approx(s0, rel=1e-13, abs=0.0)
            assert db == got.ebn0_min_db
        # at c s = 1e-300 the limits: r = E{z} and S0 = 2 E{z}^2/E{z^2}
        tiny = wideband_csir(model, thetas[0], 1.0, 1.0)
        assert LN2 / tiny.ebn0_min_linear == pytest.approx(model.mean, rel=1e-13, abs=0.0)
        assert tiny.slope_s0 == pytest.approx(2.0 * m / (m + 1.0), rel=1e-13, abs=0.0)

    def test_c_s_past_the_doubles(self):
        # c = 1e306/ln2 at mean 1e10: c s = 1.44e316 (7.2e315 at m = 1/2)
        # overflows, and log1p(c s) is ln c + ln s; mpmath quadrature as for
        # CSIR_ORACLE
        for model, floor, s0 in (
            (Rayleigh(1e10), 1.3736576916882771e303, 529959.83403403877),
            (NakagamiM(0.5, 1e10), 2.7447020236994295e303, 353979.67584843956),
        ):
            got = wideband_csir(model, 1e3, 1e3, 1e300)
            assert got.ebn0_min_linear == pytest.approx(floor, rel=1e-13, abs=0.0)
            assert got.slope_s0 == pytest.approx(s0, rel=1e-13, abs=0.0)

    def test_a_law_scaled_far_down(self):
        # c s = 7.2e-301, so the limits ln2/E{z} and 4/3; the sums over the
        # support nodes gave S0 = 1.333333333333114, 1.6e-13 off
        got = wideband_csir(NakagamiM(2.0, mean=1e-300), 1.0, 1.0, 1.0)
        assert got.ebn0_min_linear == pytest.approx(6.9314718055994529e299, rel=1e-13, abs=0.0)
        assert got.slope_s0 == pytest.approx(4.0 / 3.0, rel=1e-13, abs=0.0)


class TestCsirRefusalCensus:
    """wideband_csir over a thinned grid of Gamma laws, theta, T and
    Pbar/N0, with every warning an error: the only refusal is a c that
    overflows (theta T Pbar/N0 = 1e309)."""

    MODELS = (RAY, NakagamiM(0.5), NAK2, NakagamiM(8.0))
    THETAS = (1e-300, 1e-60, 1e-10, 1e-3, 1.0, 1e3, 1e6)
    TS = (1e-20, 2e-3, 1e3)
    PBARS = (1e-3, 1e4, 1e100, 1e300)

    def test_gamma_laws_refuse_only_an_overflowing_c(self):
        refused = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, theta, t, pbar in itertools.product(
                self.MODELS, self.THETAS, self.TS, self.PBARS
            ):
                try:
                    got = wideband_csir(model, theta, t, pbar)
                except NumericalError as exc:
                    refused.append((model.m, theta, t, pbar, str(exc)))
                    continue
                assert 0 < got.ebn0_min_linear < math.inf
                assert 0 < got.slope_s0 < math.inf
        overflow = "E{exp(-x z)} at x = c overflows: x = inf"
        assert refused == [(model.m, 1e6, 1e3, 1e300, overflow) for model in self.MODELS]


class TestWidebandStages:
    """The wideband CSIT limits in stages on one alpha*: the floor
    (_alpha_star_roots, which checks each row and ln xi once), the slope
    (H and S0), and the derivative alpha_dot(0), which only
    solve_alpha_star and the alpha-star command report."""

    TABLE = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))

    def test_floor_and_slope_need_no_derivative(self):
        # k = theta T/ln2 underflows, so dln alpha/dzeta = -(Pbar/N0 -
        # H/(2k))/I leaves the doubles, but the floor and the slope hold.
        # The references are the theta T (Pbar/N0) = 1e-20 limits from
        # scipy quadrature in t = ln(z/alpha), z = alpha e^t:
        # L1 = int t e^(-alpha e^t), H = int t^2 e^(-alpha e^t) and
        # 1 - xi = int (1 - e^-t) alpha e^t e^(-alpha e^t).
        c = 1e-20 / LN2

        def integral(f):
            return quad(f, 0.0, 6.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        a = brentq(
            lambda a: math.log(integral(lambda t: t * math.exp(-a * math.exp(t))))
            - math.log(c),
            10.0, 100.0, rtol=8.9e-16,
        )
        ln_xi = math.log1p(-integral(
            lambda t: -math.expm1(-t) * a * math.exp(t - a * math.exp(t))))
        h = integral(lambda t: t * t * math.exp(-a * math.exp(t)))
        got = wideband_csit(RAY, 1e-300, 1e-20, 1e300)
        assert got.ebn0_min_linear == pytest.approx(-1e-20 / ln_xi, rel=1e-12)
        assert got.slope_s0 == pytest.approx(
            2.0 * math.exp(ln_xi) * ln_xi**2 / (a * h), rel=1e-12
        )
        # the same against mpmath's 40-digit values
        assert got.ebn0_min_linear == pytest.approx(0.0176498449454629, rel=1e-12)
        assert got.slope_s0 == pytest.approx(2.39130484720547e-17, rel=1e-12)
        with pytest.raises(NumericalError, match="derivative"):
            solve_alpha_star(RAY, 1e-300, 1e-20, 1e300)

    def test_one_ln_xi_rule(self):
        # c = 1.44e-307 is a normal double, but ln xi = -1.44e-309 is not;
        # the surface cell and solve_alpha_star refuse it alike
        det = Deterministic(0.01)
        want = "ln xi = -1.4427e-309 is not negative and normal"
        with pytest.raises(NumericalError, match=want):
            solve_alpha_star(det, 1e-300, 1e-7, 1.0)
        with pytest.warns(UserWarning, match=want):
            surf = ebn0_min_surface("csit", det, (1e-300,), (1.0,), 1e-7)
        assert surf.ebn0_min_db == ((None,),)

    def test_c_must_be_a_normal_double(self):
        # theta = ln 2 and T = 2^-1022 make c = theta T (Pbar/N0)/ln2 the
        # smallest normal double, which resolves; just below it c is
        # refused, as theta*T*B is.  On this table L1 = c puts y =
        # ln(1e300/alpha*) at 2e300 c, and xi = 1/2 + e^-y/2.
        table = BoundedTable(((0.0, 0.5), (1e300, 0.5)))
        (at,) = _alpha_star_roots(table, [LN2], 2.0**-1022, [1.0])
        y = 2e300 * 2.0**-1022
        assert at[0] == pytest.approx(300.0 * math.log(10.0) - y, rel=1e-15)
        assert at[4] == pytest.approx(math.log1p(0.5 * math.expm1(-y)), rel=1e-9)
        (below,) = _alpha_star_roots(table, [LN2 * (1.0 - 1e-12)], 2.0**-1022, [1.0])
        assert isinstance(below, NumericalError)
        assert "is below the normal doubles" in str(below)
        # c = 2.19e-318 gave -3001.591741950627 dB, where mpmath gives
        # -3001.59174538955 dB: a gap now
        with pytest.warns(UserWarning, match="is below the normal doubles"):
            surf = ebn0_min_surface("csit", table, (1.52062e-318,), (1.0,), 1.0)
        assert surf.ebn0_min_db == ((None,),)

    def test_floor_stage_takes_every_row(self):
        rows = _alpha_star_roots(RAY, [0.0, 0.1], T, [PN0, PN0])
        assert rows[0] is None
        assert rows[1][0] == solve_alpha_star(RAY, 0.1, T, PN0).ln_alpha_star
        for thetas in ([0.0], [0.1, 0.0]):
            with pytest.raises(ValueError, match="T must be positive"):
                _alpha_star_roots(RAY, thetas, -1.0, [PN0] * len(thetas))


class TestRefusalsComeAlone:
    # pyproject.toml makes a numpy RuntimeWarning an error, so a warning on
    # the way to a refusal fails these
    TABLE = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
    CASES = {
        # the root's gap y below the last edge would make H = y^2 sum v
        # overflow, but the root lies below the node floor, refused first
        "alpha-star-H": (solve_alpha_star, RAY, 1e-100, 1e-20, 1e300, "1e-280 floor"),
        "csit-H": (wideband_csit, RAY, 1e-100, 1e-20, 1e300, "1e-280 floor"),
        # c = theta T (Pbar/N0)/ln2 itself overflows
        "alpha-star-c": (solve_alpha_star, RAY, 1e6, 1e3, 1e300, "exp.* overflows"),
        "csit-c": (wideband_csit, RAY, 1e6, 1e3, 1e300, "exp.* overflows"),
        # an infinite c meets the zero gain: inf * 0
        "csir-c-inf": (wideband_csir, TABLE, 1e6, 1e3, 1e300, "x = inf"),
        # and the Gamma law's closed form: x = c s = inf
        "csir-c-inf-gamma": (wideband_csir, NAK2, 1e6, 1e3, 1e300, "x = inf"),
        # c = 1.44e308, just below DBL_MAX: the gap of a one-atom table's
        # closed form overflows, and on Nakagami-8 the root lies near
        # exp(-1e308), where the bound below the floor and the partial
        # panel overflow on the way to H = inf
        "alpha-star-c-max-det": (solve_alpha_star, Deterministic(1.3), 1e5, 1e3, 1e300,
                                 "no root in the double range"),
        "csit-c-max-det": (wideband_csit, Deterministic(1.3), 1e5, 1e3, 1e300,
                           "no root in the double range"),
        "alpha-star-c-max-nak8": (solve_alpha_star, NakagamiM(8.0), 1e5, 1e3, 1e300,
                                  "curvature H = inf"),
        "csit-c-max-nak8": (wideband_csit, NakagamiM(8.0), 1e5, 1e3, 1e300,
                            "curvature H = inf"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refusal_without_a_numpy_warning(self, case):
        func, model, theta, t, pbar, match = self.CASES[case]
        with pytest.raises(NumericalError, match=match):
            func(model, theta, t, pbar)


class TestSolveAlphaStar:
    def test_a_law_below_1e_280_is_the_unit_law_rescaled(self):
        # NakagamiM(2, mean 1e-300) at Pbar/N0 = 1e300 is NakagamiM(2) at 1:
        # alpha* scales with the mean, and the floor Eb/N0 with Pbar/N0.
        # Its threshold nodes used to end at 1e-280, above all its mass.
        low = NakagamiM(2.0, mean=1e-300)
        sol = solve_alpha_star(low, 0.1, T, 1e300)
        unit = solve_alpha_star(NAK2, 0.1, T, 1.0)
        assert sol.ln_alpha_star == pytest.approx(unit.ln_alpha_star - 300 * math.log(10),
                                                  rel=1e-14)
        assert sol.ln_xi == pytest.approx(unit.ln_xi, rel=1e-12)
        got, want = wideband_csit(low, 0.1, T, 1e300), wideband_csit(NAK2, 0.1, T, 1.0)
        assert got.ebn0_min_db - want.ebn0_min_db == pytest.approx(3000.0, rel=1e-14)
        assert got.slope_s0 == pytest.approx(want.slope_s0, rel=1e-12)

    def test_a_law_scaled_far_down_keeps_its_wideband_slope(self):
        # H = E{ln^2(z/alpha*)/z ; z >= alpha*} scales as 1/mean, and the
        # slope refused "curvature H = inf"; it reads alpha* H = a H_1 of the
        # mean-1 law, whose value at Pbar/N0 = 1e4 it is
        low = NakagamiM(2.0, mean=1e-300)
        got, want = wideband_csit(low, 1e3, T, 1e304), wideband_csit(NAK2, 1e3, T, 1e4)
        assert got.slope_s0 == want.slope_s0 == 2.000160025558617
        assert got.ebn0_min_linear == pytest.approx(want.ebn0_min_linear * 1e300, rel=1e-14)
        # solve_alpha_star reports H in units of z, 4.2e308, past the doubles
        with pytest.raises(NumericalError, match="curvature H = inf"):
            solve_alpha_star(low, 1e3, T, 1e304)

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


class TestExactC:
    """c = theta*T*(Pbar/N0)/ln2 is one exact product, read by the root
    equation, its closed form and the derivative (1/k = (Pbar/N0)/c).
    mpmath is not a test dependency, so its values are pinned as literals."""

    # theta: (alpha*, alpha_dot(0)) for Rayleigh at T = 2e-3, Pbar/N0 = 1e4,
    # from mpmath at 40 digits on the doubles theta and T (alpha_dot(0)
    # moves by 3e-15 between the double 0.1 and the decimal one)
    MPMATH = {
        0.001: (1.604095265132227, -134157.69449387729),
        0.01: (0.57175383025996139, -6248.9950899134977),
        0.1: (0.071157103392272131, -5.4638771993960115),
        1.0: (0.00031442286711142696, 0.68205479948266107),
    }

    @pytest.mark.parametrize("theta", MPMATH)
    def test_rayleigh_alpha_star_and_derivative(self, theta):
        # a log-sum c put alpha_dot(0) at theta = 0.1 9.6e-14 off, and
        # alpha* at theta = 1 5.0e-15 off
        a, a_dot = self.MPMATH[theta]
        sol = solve_alpha_star(RAY, theta, T, PN0)
        assert sol.alpha_star == pytest.approx(a, rel=1e-15, abs=0)
        assert sol.alpha_dot_zero == pytest.approx(a_dot, rel=1e-14, abs=0)

    def test_deterministic_floor_is_ln2(self):
        # z = 1 gives alpha* = exp(-c) and ln xi = -c, so the floor
        # theta T (Pbar/N0)/c is ln 2 exactly; a log-sum c left it 1.0e-13
        # off at (3e-250, 2e-3, 1e100).  The slope's H = c^2 must be a
        # normal double too, so the grid keeps theta T (Pbar/N0) within
        # 1e153 of 1.
        det = Deterministic(1.0)
        cells = [(theta, t, pn0) for theta in (3e-250, 1e-100, 1e-6, 0.01, 1.0, 3.0)
                 for t in (1e-7, 2e-3, 1.0) for pn0 in (1.0, 1e4, 1e100, 1e250)
                 if abs(math.log10(theta * t) + math.log10(pn0)) < 153]
        assert len(cells) == 53 and (3e-250, 2e-3, 1e100) in cells
        for theta, t, pn0 in cells:
            floor = wideband_csit(det, theta, t, pn0).ebn0_min_linear
            assert floor == pytest.approx(LN2, rel=1e-15, abs=0), (theta, t, pn0)


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
