"""Effective capacity, power policies, and limiting rates."""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1, gammaln, hyperu, logsumexp

from oracles import ln_rate_mean, mean_policy_power
from qos_energy import (
    BoundedTable,
    Deterministic,
    DivergentInverseMoment,
    NakagamiM,
    NumericalError,
    PowerPolicy,
    QosConfig,
    Rayleigh,
    SimConfig,
    SweepSpec,
    ThetaZero,
    bit_energy,
    bit_energy_db,
    delay_limited_limit,
    ebn0_min_surface,
    effective_capacity_empirical,
    power_policy_value,
    predicted_effective_capacity,
    service_rate_csir,
    service_rate_csit,
    shannon_limit,
    solve_alpha,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
    solve_alpha_star,
    wideband_csir,
    wideband_csit,
)
from qos_energy.asymptotics import _alpha_star_roots
from qos_energy.effcap import LN2, _csir_rows, _csit_rows, _product, _qos_rows, to_db
from qos_energy.fading import FadingModel, _Groups

EULER_GAMMA = 0.5772156649015329


def gamma_moment_csit_se(snr, theta, T, B, m):
    """CSIT spectral efficiency of unit-mean Nakagami-m once alpha underflows.

    With m > 1 and alpha -> 0 the power constraint becomes
    alpha^-q E{z^(q-1)} - E{1/z} = snr (q = 1/(beta+1)) and the rate term
    alpha^p E{z^-p} (p = 1 - q); both gamma moments are closed forms.
    """
    beta = theta * T * B / math.log(2.0)
    q = 1.0 / (beta + 1.0)
    p = 1.0 - q
    s = 1.0 / m
    ln_a = -(beta + 1.0) * (
        math.log(snr + 1.0 / (s * (m - 1.0)))
        - (q - 1.0) * math.log(s)
        - gammaln(m + q - 1.0)
        + gammaln(m)
    )
    return -(p * (ln_a - math.log(s)) + gammaln(m - p) - gammaln(m)) / (theta * T * B)


RAY = Rayleigh()
NAK2 = NakagamiM(m=2.0, mean=1.0)
TAB = BoundedTable(((0.25, 0.2), (1.0, 0.5), (4.0, 0.3)))
QOS = QosConfig(theta=0.05, T=2e-3, B=1e5)


class TestQosConfig:
    def test_beta_and_zeta(self):
        q = QosConfig(theta=0.01, T=2e-3, B=1e5)
        assert q.beta == pytest.approx(0.01 * 2e-3 * 1e5 / LN2, rel=1e-15)
        assert q.zeta == 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            QosConfig(theta=-0.1, T=2e-3, B=1e5)
        with pytest.raises(ValueError):
            QosConfig(theta=0.1, T=0.0, B=1e5)
        with pytest.raises(ValueError):
            QosConfig(theta=0.1, T=2e-3, B=-1.0)
        with pytest.raises(ValueError):
            QosConfig(theta=math.inf, T=2e-3, B=1e5)

    def test_theta_t_b_past_the_doubles(self):
        # each factor is finite, their product is not
        qos = QosConfig(1e300, 1e300, 1e300)
        assert qos.beta == math.inf
        with pytest.raises(NumericalError, match="leaves the normal doubles"):
            spectral_efficiency_csir(1.0, qos, RAY)


class TestPowerPolicy:
    def test_ln_alpha_derived(self):
        pol = PowerPolicy(ln_alpha=math.log(0.5), beta=3.0)
        assert pol.alpha == pytest.approx(0.5, rel=1e-15)

    def test_explicit_ln_alpha_allows_underflowed_alpha(self):
        pol = PowerPolicy(ln_alpha=-2000.0, beta=3.0)
        assert pol.ln_alpha == -2000.0 and pol.alpha == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerPolicy(ln_alpha=-math.inf, beta=1.0)
        with pytest.raises(ValueError):
            PowerPolicy(ln_alpha=0.0, beta=-0.5)

    def test_policy_value_threshold(self):
        pol = PowerPolicy(ln_alpha=0.0, beta=0.0)
        assert power_policy_value(pol, 0.5) == 0.0
        # beta = 0 reduces to water-filling 1/alpha - 1/z
        assert power_policy_value(pol, 2.0) == pytest.approx(0.5, rel=1e-12)
        vec = power_policy_value(pol, np.array([0.5, 1.0, 2.0, 4.0]))
        assert vec == pytest.approx([0.0, 0.0, 0.5, 0.75], rel=1e-12)

    def test_policy_value_for_huge_gains(self):
        # beta = 0 is water-filling, 1/alpha - 1/z, also where expm1 of
        # ln(z/alpha) overflows; at z = inf the limit is 1/alpha at beta = 0
        # and alpha^(-1/(beta+1)) z^(-beta/(beta+1)) -> 0 above
        half = PowerPolicy(ln_alpha=math.log(0.5), beta=0.0)
        assert power_policy_value(half, 1e308) == pytest.approx(2.0, rel=1e-15)
        assert power_policy_value(half, math.inf) == pytest.approx(2.0, rel=1e-15)
        vec = power_policy_value(half, np.array([0.25, 4.0, 1e308, math.inf]))
        assert vec == pytest.approx([0.0, 1.75, 2.0, 2.0], rel=1e-15)
        for beta in (1e-17, 0.5, 1.0, 1e6):
            pol = PowerPolicy(ln_alpha=math.log(0.5), beta=beta)
            assert power_policy_value(pol, math.inf) == 0.0
            z = np.array([4.0, 1e308, math.inf])
            assert np.all(np.isfinite(power_policy_value(pol, z)))
        pol = PowerPolicy(ln_alpha=math.log(0.5), beta=0.5)
        assert power_policy_value(pol, 1e308) == pytest.approx(
            2.0 ** (2 / 3) * 1e308 ** (-1 / 3), rel=1e-12
        )

    def test_rate_power_identity(self):
        # 1 + mu(z) z = (z/alpha)^(1/(beta+1)) on the active set
        pol = PowerPolicy(ln_alpha=math.log(0.3), beta=4.0)
        for z in (0.5, 1.0, 3.7):
            mu = power_policy_value(pol, z)
            assert 1 + mu * z == pytest.approx(
                (z / 0.3) ** (1 / 5.0), rel=1e-12
            )


class TestSolveAlpha:
    @pytest.mark.parametrize("model", [RAY, NAK2, TAB], ids=["ray", "nak2", "tab"])
    @pytest.mark.parametrize("snr", [0.01, 1.0, 10.0])
    @pytest.mark.parametrize("theta", [0.001, 0.05, 1.0])
    def test_power_constraint_met(self, model, snr, theta):
        qos = QosConfig(theta=theta, T=2e-3, B=1e5)
        pol = solve_alpha(snr, qos, model)
        spent, _ = mean_policy_power(model, pol.ln_alpha, pol.beta)
        assert spent == pytest.approx(snr, rel=1e-8)

    def test_deterministic_closed_form(self):
        # single gain z0: mu = snr exactly, so alpha = z0 (1+snr z0)^-(beta+1)
        det = Deterministic(z0=1.3)
        qos = QosConfig(theta=0.2, T=2e-3, B=1e5)
        pol = solve_alpha(2.0, qos, det)
        want = 1.3 * (1 + 2.0 * 1.3) ** -(qos.beta + 1)
        assert pol.ln_alpha == pytest.approx(math.log(want), abs=1e-12)

    def test_independent_bisection_oracle(self):
        # re-solve with scipy brentq on the plain (non-log) residual
        qos = QosConfig(theta=0.05, T=2e-3, B=1e5)
        snr = 1.0
        beta = qos.beta

        def residual(a):
            return (
                RAY.expect_above(
                    lambda z: math.expm1(math.log(z / a) / (beta + 1)) / z, a
                )
                - snr
            )

        a_ref = brentq(residual, 1e-6, 10.0, xtol=1e-14)
        pol = solve_alpha(snr, qos, RAY)
        assert pol.alpha == pytest.approx(a_ref, rel=1e-9)

    def test_a_beta_past_the_doubles_is_refused_as_the_rates_refuse_it(self):
        # it was solved, and refused as "no root in the double range"
        qos = QosConfig(1e300, 1e10, 1.0)
        want = "theta*T*B = inf leaves the normal doubles (theta=1e+300, T=1e+10, B=1)"
        for fn in (solve_alpha, spectral_efficiency_csit):
            with pytest.raises(NumericalError) as refused:
                fn(1.0, qos, RAY)
            assert type(refused.value) is NumericalError
            assert str(refused.value) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_alpha(0.0, QOS, RAY)
        with pytest.raises(ValueError):
            solve_alpha(-1.0, QOS, RAY)


class TestSpectralEfficiencyCsir:
    def test_monte_carlo_oracle(self):
        # delta-method error bound on the log of the empirical mean
        qos = QosConfig(theta=0.05, T=2e-3, B=1e5)
        z = np.random.default_rng(42).exponential(1.0, 2_000_000)
        for snr in (0.1, 1.0, 5.0):
            y = np.exp(-qos.beta * np.log1p(snr * z))
            denom = qos.theta * qos.T * qos.B
            est = -math.log(y.mean()) / denom
            sd = y.std() / (y.mean() * math.sqrt(z.size)) / denom
            got = spectral_efficiency_csir(snr, qos, RAY)
            assert abs(got - est) < 5 * sd

    def test_discrete_exact(self):
        qos = QosConfig(theta=0.05, T=2e-3, B=1e5)
        snr = 2.0
        want = -math.log(
            0.2 * (1 + snr * 0.25) ** -qos.beta
            + 0.5 * (1 + snr * 1.0) ** -qos.beta
            + 0.3 * (1 + snr * 4.0) ** -qos.beta
        ) / (qos.theta * qos.T * qos.B)
        assert spectral_efficiency_csir(snr, qos, TAB) == pytest.approx(
            want, rel=1e-12
        )

    @pytest.mark.parametrize(
        "m, beta", [(0.5, 1.0), (0.5, 100.0), (1.0, 1.0), (1.0, 100.0), (2.0, 100.0)]
    )
    def test_gamma_law_matches_the_confluent_hypergeometric(self, m, beta):
        # E{(1 + a z)^-beta} = (a s)^-m U(m, m + 1 - beta, 1/(a s)) for a
        # Gamma law of scale s, to 1e-14 up to a s = 1e16, where the mass
        # below scale 1e-30, carried on one node, does not move it yet
        # (scipy's U is NaN at m = 2, beta = 1, and at m = 1, beta = 100, a s = 1)
        qos = QosConfig(theta=beta * LN2, T=1.0, B=1.0)
        for mean in (1e-20, 1.0, 1e20):
            model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
            for xs in (1e3, 1e8, 1e12, 1e16):
                ln_e = math.log(hyperu(m, m + 1.0 - qos.beta, 1.0 / xs)) - m * math.log(xs)
                got = spectral_efficiency_csir(xs / model.scale, qos, model)
                assert got == pytest.approx(-ln_e / qos.theta, rel=1e-14, abs=0.0)

    def test_snr_past_the_lumped_node_is_a_numerical_error(self):
        # past max(1, beta) snr s = 1e20 the mass below scale 1e-30, on one
        # node, moves the mean: at beta = 100 and snr = 1e30 the rate came
        # out 1.996 for 1.0629, and 7.6e-7 off at snr = 1e26.  A table's
        # sums are exact at any snr.
        qos = QosConfig(theta=100.0 * LN2, T=1.0, B=1.0)
        for snr in (1e26, 1e30):
            with pytest.raises(NumericalError, match=r"x s = 1e\+(26|30) is past 1e\+18"):
                spectral_efficiency_csir(snr, qos, RAY)
            got = spectral_efficiency_csir(snr, qos, TAB)
            zs, ps = TAB.zs, TAB.ps
            want = -logsumexp(np.log(ps) - qos.beta * np.log1p(snr * zs)) / qos.theta
            assert got == pytest.approx(want, rel=1e-14)

    def test_theta_zero_raises(self):
        with pytest.raises(ThetaZero):
            spectral_efficiency_csir(1.0, QosConfig(theta=0.0, T=2e-3, B=1e5), RAY)

    def test_zero_snr(self):
        assert spectral_efficiency_csir(0.0, QOS, RAY) == 0.0

    def test_monotone_decreasing_in_theta(self):
        vals = [
            spectral_efficiency_csir(1.0, QosConfig(theta=t, T=2e-3, B=1e5), RAY)
            for t in (0.001, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_approaches_shannon_as_theta_vanishes(self):
        qos = QosConfig(theta=1e-7, T=2e-3, B=1e5)
        sh = shannon_limit(1.0, "csir", qos, RAY)
        assert spectral_efficiency_csir(1.0, qos, RAY) == pytest.approx(
            sh, rel=1e-4
        )
        assert spectral_efficiency_csir(1.0, qos, RAY) <= sh

    def test_approaches_delay_limited_as_theta_grows(self):
        qos = QosConfig(theta=200.0, T=2e-3, B=1e5)
        dl = delay_limited_limit(2.0, "csir", TAB)
        got = spectral_efficiency_csir(2.0, qos, TAB)
        assert got >= dl - 1e-12
        assert got == pytest.approx(dl, abs=5e-3)


class TestSpectralEfficiencyCsit:
    def test_zero_snr_is_a_zero_rate(self):
        assert spectral_efficiency_csit(0.0, QOS, RAY) == 0.0

    def test_root_above_the_nodes_is_refused(self):
        # at snr 1e-40 the threshold lies above the top of the Rayleigh
        # nodes; the rate came back as 0.0 with no error, below the CSIR
        # rate 1.4427e-40
        qos = QosConfig(0.1, 2e-3, 1e5)
        refused = r"power threshold = exp\(4.31894\) is not resolved"
        with pytest.raises(NumericalError, match=refused):
            spectral_efficiency_csit(1e-40, qos, RAY)
        with pytest.raises(NumericalError, match=refused):
            shannon_limit(1e-40, "csit", qos, RAY)

    def test_a_law_below_1e_280_resolves(self):
        # NakagamiM(2, mean 1e-300) at snr 1e300 is NakagamiM(2) at snr 1;
        # its threshold nodes used to end at 1e-280, above all its mass
        qos = QosConfig(0.1, 2e-3, 1e5)
        low = NakagamiM(2.0, mean=1e-300)
        want = spectral_efficiency_csit(1.0, qos, NAK2)
        assert spectral_efficiency_csit(1e300, qos, low) == pytest.approx(want, rel=1e-13)

    def test_a_failed_threshold_batch_fails_every_row(self, monkeypatch):
        from qos_energy import effcap

        def broken(*args):
            raise NumericalError("synthetic batch failure")

        monkeypatch.setattr(effcap, "_power_rows", broken)
        rows = effcap._csit_rows(np.array([1.0, 2.0]), 0.1, 2e-3, np.array([1e5, 1e5]), RAY)
        assert [str(r) for r in rows] == ["synthetic batch failure"] * 2

    def test_monte_carlo_oracle(self):
        qos = QosConfig(theta=0.05, T=2e-3, B=1e5)
        z = np.random.default_rng(43).exponential(1.0, 2_000_000)
        lnz = np.log(z)
        for snr in (0.1, 1.0):
            pol = solve_alpha(snr, qos, RAY)
            p = qos.beta / (qos.beta + 1)
            w = np.where(
                lnz >= pol.ln_alpha, np.exp(-p * (lnz - pol.ln_alpha)), 1.0
            )
            denom = qos.theta * qos.T * qos.B
            est = -math.log(w.mean()) / denom
            sd = w.std() / (w.mean() * math.sqrt(z.size)) / denom
            got = spectral_efficiency_csit(snr, qos, RAY)
            assert abs(got - est) < 5 * sd

    def test_theta_zero_routes_to_water_filling(self):
        qos = QosConfig(theta=0.0, T=2e-3, B=1e5)
        assert spectral_efficiency_csit(1.0, qos, RAY) == pytest.approx(
            shannon_limit(1.0, "csit", qos, RAY), rel=1e-12
        )

    def test_beats_csir(self):
        for model in (RAY, NAK2, TAB):
            for snr in (0.05, 1.0, 8.0):
                csir = spectral_efficiency_csir(snr, QOS, model)
                csit = spectral_efficiency_csit(snr, QOS, model)
                assert csit >= csir - 1e-9

    def test_deterministic_collapse_exact(self):
        det = Deterministic(z0=1.0)
        for theta in (0.01, 1.0, 5.0):
            qos = QosConfig(theta=theta, T=2e-3, B=1e5)
            want = math.log2(1 + 10.0)
            assert spectral_efficiency_csit(10.0, qos, det) == pytest.approx(
                want, abs=1e-12
            )
            assert spectral_efficiency_csir(10.0, qos, det) == pytest.approx(
                want, abs=1e-12
            )

    def test_extreme_qos_stays_finite_and_sandwiched(self):
        # beta ~ 2885: alpha underflows any float, the log-space path holds
        qos = QosConfig(theta=10.0, T=2e-3, B=1e5)
        se = spectral_efficiency_csit(10.0, qos, TAB)
        dl = delay_limited_limit(10.0, "csit", TAB)
        sh = shannon_limit(10.0, "csit", qos, TAB)
        assert dl - 1e-9 <= se <= sh + 1e-9
        assert se == pytest.approx(dl, rel=1e-3)

    def test_underflowing_threshold_matches_gamma_moment(self):
        # Nakagami m > 1 under strong QoS: alpha ~ exp(-1.1e6) underflows,
        # so the rate term is its log-domain gamma moment
        theta, T, B, snr, m = 4.15, 2e-3, 9e7, 3.08, 2.42
        qos = QosConfig(theta=theta, T=T, B=B)
        assert spectral_efficiency_csit(snr, qos, NakagamiM(m)) == pytest.approx(
            gamma_moment_csit_se(snr, theta, T, B, m), rel=1e-12
        )

    def test_nakagami_deep_threshold_is_sandwiched(self):
        # threshold near exp(-155), where adaptive quadrature failed to
        # converge (error 2e-7 on [3.3e-67, 16.1])
        qos = QosConfig(theta=0.9648911666205529, T=2e-3, B=1e5)
        model = NakagamiM(1.9140581044633629)
        snr = 1.5361749466718295
        se = spectral_efficiency_csit(snr, qos, model)
        assert math.isfinite(se)
        assert delay_limited_limit(snr, "csit", model) < se
        assert se < shannon_limit(snr, "csit", qos, model)


class TestShannonLimits:
    def test_csir_rayleigh_closed_form(self):
        # E{log2(1+snr z)} = exp(1/snr) E1(1/snr) / ln2 for unit-mean Rayleigh
        for snr in (0.2, 1.0, 10.0):
            want = math.exp(1 / snr) * float(exp1(1 / snr)) / LN2
            got = shannon_limit(snr, "csir", QOS, RAY)
            assert got == pytest.approx(want, rel=1e-9)

    def test_csit_water_filling_oracle(self):
        # independent route: solve the threshold with brentq on closed-form
        # exponential integrals, then integrate the rate
        snr = 1.0

        def wf_residual(a):
            return math.exp(-a) / a - float(exp1(a)) - snr

        a_ref = brentq(wf_residual, 1e-3, 10.0, xtol=1e-14)
        want = float(exp1(a_ref)) / LN2
        got = shannon_limit(snr, "csit", QOS, RAY)
        assert got == pytest.approx(want, rel=1e-9)

    def test_csit_beats_csir(self):
        for model in (RAY, NAK2, TAB):
            r = shannon_limit(1.0, "csir", QOS, model)
            t = shannon_limit(1.0, "csit", QOS, model)
            assert t >= r - 1e-9

    def test_csit_past_the_doubles(self):
        # Water-filling on one atom: log2(1 + snr z0).  Where snr z0 passes
        # the doubles the closed-form gap takes logs apart; below, it is
        # log1p of the quotient as before.
        z = Deterministic(2.5)
        qos = QosConfig(0.0, 2e-3, 1e5)
        want = math.log2(2.5) + 308.0 * math.log2(10.0)
        assert shannon_limit(1e308, "csit", qos, z) == pytest.approx(want, rel=1e-12)
        for snr in (1.0, 10.0, 1e300):
            want = math.log1p(snr * 2.5) / LN2
            assert shannon_limit(snr, "csit", qos, z) == pytest.approx(want, rel=1e-14)

    def test_zero_snr(self):
        assert shannon_limit(0.0, "csir", QOS, RAY) == 0.0
        assert shannon_limit(0.0, "csit", QOS, RAY) == 0.0

    def test_discrete_water_filling(self):
        # two-state channel: check against a hand water-filling solution
        tab = BoundedTable(((0.5, 0.5), (2.0, 0.5)))
        snr = 1.0
        got = shannon_limit(snr, "csit", QOS, tab)
        # both states active: 0.5(1/a - 2) + 0.5(1/a - 0.5) = 1 -> a = 0.4444...
        a = 1.0 / (snr + 0.5 * (1 / 0.5 + 1 / 2.0))
        assert a < 0.5  # consistent with both states active
        want = 0.5 * math.log2(0.5 / a) + 0.5 * math.log2(2.0 / a)
        assert got == pytest.approx(want, rel=1e-10)


class TestProductsPastTheDoubles:
    """x z past the doubles at the top node: ln(1 + x z) and -c z are formed
    without overflow.  pyproject.toml makes a numpy RuntimeWarning an
    error, so an "overflow encountered in multiply" fails these."""

    TABLE = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
    UNIT = QosConfig(1.0, 1.0, 1.0)

    def ln1p_atoms(self, x):
        """ln(1 + x z) per atom, as ln x + ln z + log1p(1/(x z)), 0 at z = 0."""
        return [
            (p, 0.0 if z == 0 else math.log(x) + math.log(z) + math.log1p(1 / (x * z)))
            for z, p in zip(self.TABLE.zs.tolist(), self.TABLE.ps.tolist())
        ]

    @pytest.mark.parametrize("snr", [1e306, 1e308])
    def test_csir_shannon_limit_of_rayleigh(self, snr):
        # E{ln(1 + s z)} = e^(1/s) E1(1/s) for unit-mean Rayleigh
        want = math.exp(1 / snr) * float(exp1(1 / snr)) / LN2
        got = shannon_limit(snr, "csir", self.UNIT, RAY)
        assert got == pytest.approx(want, rel=1e-12)

    def test_csir_shannon_limit_of_a_table(self):
        want = sum(p * v for p, v in self.ln1p_atoms(1e308)) / LN2
        got = shannon_limit(1e308, "csir", self.UNIT, self.TABLE)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(920.888, abs=1e-3)

    def test_csir_rate_of_a_table(self):
        beta = self.UNIT.beta
        mean = sum(p * math.exp(-beta * v) for p, v in self.ln1p_atoms(1e308))
        got = spectral_efficiency_csir(1e308, self.UNIT, self.TABLE)
        assert got == pytest.approx(-math.log(mean), rel=1e-12)

    def test_wideband_csir_of_a_table_is_refused_alone(self):
        with pytest.raises(NumericalError, match="slope overflows"):
            wideband_csir(self.TABLE, 1.0, 1.0, 1e308 * LN2)

    def test_csir_surface_floor_of_a_table(self):
        # exp(-c z) is 0 on every positive atom, so L = 0.1 and the floor is
        # ln 2 c / ln 10; every positive atom adds its (1 - e^(-c z))/c to
        # -ln L/c, the 2.5 atom's c z past the doubles as well
        pn0 = 1e308 * LN2
        (row,) = ebn0_min_surface("csir", self.TABLE, (1.0,), (pn0,), 1.0).ebn0_min_db
        c = pn0 / LN2
        assert row[0] == pytest.approx(to_db(LN2 * c / math.log(10.0)), rel=1e-12)

    @pytest.mark.parametrize(
        "model, want",
        [(Deterministic(1.0), 1e300),
         (BoundedTable(((0.5, 0.5), (2.0, 0.5))), 0.5e300)],
        ids=["deterministic", "two atoms"],
    )
    def test_csir_rate_whose_beta_ln1p_passes_the_doubles(self, model, want):
        # beta ln(1 + x z) = 7.2e306 * 690.8 overflowed to inf, and the rate
        # with it; the least atom's log2(1 + x z) is the rate to the last
        # digits, as the other atom's term is exp(-1e307)
        qos = QosConfig(1e300, 1.0, 5e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_efficiency_csir(1e300, qos, model)
        assert got == pytest.approx(math.log2(want), rel=1e-15)

    def test_water_filling_on_atoms_past_e_to_the_709_apart(self):
        # the tilted sums shifted the top atom's 1/z down to the lower one by
        # expm1(s ln(1e600)), which overflowed; alpha = 1/2 / (snr + 1/2e-300)
        # while alpha is above the lower atom
        table = BoundedTable(((1e-300, 0.5), (1e300, 0.5)))
        qos = QosConfig(0.0, 1.0, 1.0)
        for snr in (1e-10, 1.0, 1e250):
            alpha = 0.5 / (snr + 0.5e-300)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = solve_alpha(snr, qos, table)
                rate = shannon_limit(snr, "csit", qos, table)
            assert got.alpha == pytest.approx(alpha, rel=1e-12)
            assert rate == pytest.approx(0.5 * (math.log2(1e300) - math.log2(alpha)), rel=1e-12)

    def test_csit_service_rate_whose_b_ln_ratio_passes_the_doubles(self):
        # B ln(z/alpha) = 2.3e189 * 3.6e159 overflowed before the division
        # by (beta + 1) ln 2; the rate is B ln(z/alpha)/((beta + 1) ln 2)
        qos = QosConfig(0.05, 1.2e69, 2.3e189)
        pol = PowerPolicy(ln_alpha=-3.6e159, beta=qos.beta)
        z = np.array([0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = service_rate_csit(pol, z, qos)
        ratio = (np.log(z) - pol.ln_alpha) / ((pol.beta + 1.0) * LN2)
        assert got == pytest.approx(qos.B * ratio, rel=1e-14)
        assert np.all(np.isfinite(got))


def math_product(*factors):
    """theta*T*B as a loop of math.frexp and math.ldexp, one scalar at a time."""
    mant, expo = 1.0, 0
    for factor in factors:
        m, e = math.frexp(factor)
        mant, expo = mant * m, expo + e
    try:
        return math.ldexp(mant, expo)
    except OverflowError:
        return math.inf


class TestExactProducts:
    """theta*T*X is one exact product per batch: _product takes arrays and
    gives the bits of the scalar math loop, and _qos_rows refuses per row."""

    def test_arrays_give_the_bits_of_the_math_loop(self):
        rng = np.random.default_rng(29)
        # factors from subnormal to near the top of the doubles, and zeros
        f = rng.uniform(1.0, 10.0, (3, 3000)) * 10.0 ** rng.integers(-322, 308, (3, 3000))
        f[:, :30] = 0.0
        got = _product(*f)
        want = np.array([math_product(*col) for col in f.T.tolist()])
        assert got.tobytes() == want.tobytes()
        # the grid reaches every kind of result
        assert np.count_nonzero((0 < want) & (want < 2.0**-1022)) > 20
        assert np.count_nonzero(want == 0) > 100
        assert np.count_nonzero(want == math.inf) > 100
        assert np.count_nonzero((2.0**-1022 <= want) & (want < math.inf)) > 100
        # a scalar product is a float; one factor may be an array
        one = _product(1e-300, 1e-20, 1e13)
        assert type(one) is float and one == math_product(1e-300, 1e-20, 1e13)
        assert _product(f[0], 2e-3, 1e5).tobytes() == np.array(
            [math_product(x, 2e-3, 1e5) for x in f[0].tolist()]).tobytes()

    def test_qos_rows_refuse_what_leaves_the_normal_doubles(self):
        theta = np.array([0.0, 0.1, 1e-310, 1e300, 1.0])
        B = np.array([1e300, 1e5, 1e9, 1e300, 1.5e308])
        k, beta, errors = _qos_rows(theta, 1e-20, B)
        assert k.tolist() == [math_product(t, 1e-20, b) for t, b in zip(theta, B)]
        assert beta.tolist() == (k / LN2).tolist()
        assert errors[:2] == [None, None]
        assert str(errors[2]).startswith("theta*T*B = 9.98013e-322 leaves the normal doubles")
        assert str(errors[3]).startswith("theta*T*B = inf leaves the normal doubles")
        # k = 1.5e288 is normal here; at T = 1 its beta overflows alone
        assert errors[4] is None
        _, beta, errors = _qos_rows(theta[3:], 1.0, B[3:])
        assert beta[1] == math.inf
        assert str(errors[0]).startswith("theta*T*B = inf leaves the normal doubles")
        assert str(errors[1]) == ("beta = inf leaves the normal doubles "
                                  "(theta=1, T=1, B=1.5e+308)")
        # a batch makes QosConfig's checks, and raises its ValueError
        for args, match in [((0.1, math.nan, [1.0]), "T must be positive"),
                            (([0.1, -0.1], 1.0, [1.0, 1.0]), "theta must be >= 0"),
                            (([0.0, 0.1], 1.0, [1.0, math.inf]), "B must be positive")]:
            with pytest.raises(ValueError, match=match):
                _qos_rows(*args)


class TestCsirRows:
    """The CSIR rates as a batch: each row is the one-row
    spectral_efficiency_csir (shannon_limit at theta = 0), bit for bit,
    whatever its neighbours."""

    T = 2e-20
    ROWS = [  # snr, theta, B
        (1.0, 0.05, 1e22), (0.0, 0.05, 1e22), (0.5, 0.0, 1e22), (0.0, 0.0, 1e22),
        (1e-5, 1e-3, 1e25), (1e3, 10.0, 1e20),
        (1.0, 1e-310, 1e9),   # theta*T*B = 2e-321 is subnormal: refused
        (0.0, 1e-310, 1e9),   # ... but a zero snr is a zero rate first
        (1e30, 100.0, 1e20),  # past the lumped node on a density
        (1e308, 1.0, 1e20),   # ln(1 + x z) past the doubles
    ]

    @staticmethod
    def alone(snr, theta, B, model):
        qos = QosConfig(theta, TestCsirRows.T, B)
        try:
            if theta == 0:
                return shannon_limit(snr, "csir", qos, model)
            return spectral_efficiency_csir(snr, qos, model)
        except NumericalError as exc:
            return exc

    @staticmethod
    def same(got, want):
        if isinstance(want, NumericalError):
            return type(got) is type(want) and str(got) == str(want)
        return type(got) is float and got == want

    @pytest.mark.parametrize("model", [RAY, NAK2, TAB], ids=repr)
    def test_rows_are_the_one_row_functions(self, model):
        snr, theta, B = (np.array(c) for c in zip(*self.ROWS))
        rows = _csir_rows(snr, theta, self.T, B, model)
        want = [self.alone(*row, model) for row in self.ROWS]
        assert all(self.same(g, w) for g, w in zip(rows, want)), (rows, want)
        assert rows[1] == rows[3] == rows[7] == 0.0
        assert "leaves the normal doubles" in str(rows[6])
        assert isinstance(rows[8], NumericalError) is (model is not TAB)
        # reversed, or alone, every row keeps its bits
        back = _csir_rows(snr[::-1], theta[::-1], self.T, B[::-1], model)[::-1]
        assert all(self.same(g, w) for g, w in zip(back, rows))
        for i in range(len(snr)):
            (one,) = _csir_rows(snr[i : i + 1], theta[i], self.T, B[i : i + 1], model)
            assert self.same(one, rows[i])


class TestNodeFloor:
    """A density's root below the 1e-280 node floor comes back right or is
    refused with an error that names the floor.  The literals come from
    oracles that do not import the package (mpmath is not a test
    dependency): mpmath's incomplete gamma for the Rayleigh power threshold
    and rate, and the small-alpha expansion of the alpha* equation on
    Rayleigh, L1 = x^2/2 - gamma x + gamma^2/2 + pi^2/12, x = ln(1/alpha)."""

    @staticmethod
    def right_or_refused(call, want):
        try:
            got = call()
        except NumericalError as exc:
            assert "1e-280 floor" in str(exc)
            return
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "snr, theta, ln_alpha, se",
        [
            # the top point of `sweep --mode csit --theta 100`: the closed
            # form below the floor gave exp(-766.564) and 0.0380040
            (10.0, 100.0, -756.927031420279, 0.0375142044319881),
            # the closed form gave 4.2016
            (1e4, 10.0, -5315.88870873586, 2.65312601754286),
        ],
    )
    def test_csit_rate(self, snr, theta, ln_alpha, se):
        qos = QosConfig(theta, 2e-3, 1e5)
        self.right_or_refused(lambda: solve_alpha(snr, qos, RAY).ln_alpha, ln_alpha)
        self.right_or_refused(lambda: spectral_efficiency_csit(snr, qos, RAY), se)

    def test_alpha_star(self):
        # c = 2.885e6: the closed form gave ln alpha* = -4802.0 and a floor
        # of 26.20 dB
        self.right_or_refused(
            lambda: solve_alpha_star(RAY, 1e5, 2e-3, 1e4).ln_alpha_star,
            -2402.82169086342,
        )
        self.right_or_refused(
            lambda: wideband_csit(RAY, 1e5, 2e-3, 1e4).ebn0_min_db, 29.2171774759872
        )

    def test_a_scaled_law_refuses_as_its_unit_law(self):
        # Rayleigh at mean 1e-300 solves on Rayleigh() at snr 1e304 * 1e-300:
        # it named its own floor, s 1e-30, which is 0 as a double
        qos = QosConfig(10.0, 2e-3, 1e5)
        with pytest.raises(NumericalError, match="below the 1e-280 floor") as unit:
            spectral_efficiency_csit(1e4, qos, Rayleigh())
        with pytest.raises(NumericalError) as scaled:
            spectral_efficiency_csit(1e304, qos, Rayleigh(1e-300))
        assert str(scaled.value) == str(unit.value)

    def test_roots_below_the_floor_that_hold(self):
        # water-filling at snr 1e300 puts alpha near 1e-300: its rate is
        # (ln 1e300 - gamma)/ln 2
        want = (300.0 * math.log(10.0) - EULER_GAMMA) / LN2
        assert shannon_limit(1e300, "csit", QOS, RAY) == pytest.approx(want, rel=1e-14)
        # Nakagami-2: L1 = 2 E1(2 alpha), so ln alpha* = -c/2 - gamma - ln 2
        # at c = 2.9e97, xi = 2 alpha* and the floor is 2 ln 2
        theta, t, pn0 = 1e-200, 2e-3, 1e300
        c = theta * t * pn0 / LN2
        (root,) = _alpha_star_roots(NAK2, [theta], t, [pn0])
        assert root[0] == pytest.approx(-c / 2 - EULER_GAMMA - LN2, rel=1e-12)
        floor = wideband_csit(NAK2, theta, t, pn0).ebn0_min_linear
        assert floor == pytest.approx(2.0 * LN2, rel=1e-12)
        # strong QoS above the floor, against mpmath
        got = spectral_efficiency_csit(10.0, QosConfig(30.0, 2e-3, 1e5), RAY)
        assert got == pytest.approx(0.0678873603717217, rel=1e-14)


class TestUnitLaw:
    """A Gamma law of mean mu reads its mean-1 law (FadingModel.unit) at
    snr mu: each rate is that law's row at _product(snr, mu) bit for bit,
    each ln alpha that row's plus ln mu, each refusal that row's, and a
    snr mu outside the normal doubles is the row's own refusal.  Warnings
    are errors here, as in the whole suite."""

    LAWS = [
        NakagamiM(2.0, mean=1e-300),
        # overflowed its own edge sums with numpy warnings, and refused every
        # CSIT row from snr 1e-300 to 1 for a wrong reason
        NakagamiM(0.5, mean=1e-300),
        NakagamiM(0.6, mean=1e-5),
        NakagamiM(2.0, mean=1e3),
        Rayleigh(1e160),
    ]
    SNRS = (1e-300, 1e-10, 1e-3, 1.0, 1e4, 1e300)

    @staticmethod
    def same(got, want, ln_mu):
        if isinstance(want, NumericalError):
            return type(got) is type(want) and str(got) == str(want)
        if isinstance(want, tuple):
            return got == (want[0], want[1] + ln_mu)
        return type(got) is float and got == want

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    @pytest.mark.parametrize("theta", (0.0, 0.1))
    def test_rows_are_the_unit_law_rows(self, law, theta):
        unit, mu = law.unit
        assert unit == replace(law, mean=1.0) and type(unit) is type(law) and mu == law.mean
        assert unit.unit == (unit, 1.0)
        qos = QosConfig(theta, 2e-3, 1e5)
        for batch in (_csir_rows, _csit_rows):
            rows = batch(np.array(self.SNRS), theta, qos.T, np.full(len(self.SNRS), qos.B), law)
            for snr, row in zip(self.SNRS, rows):
                x = _product(snr, mu)
                if not 2.0**-1022 <= x < math.inf:
                    assert isinstance(row, NumericalError)
                    assert f"snr*mean = exp({math.log(snr) + math.log(mu):g}) leaves" in str(row)
                    continue
                (want,) = batch([x], theta, qos.T, [qos.B], unit)
                assert self.same(row, want, math.log(mu)), (batch, snr, row, want)
                if batch is _csit_rows and not isinstance(want, NumericalError):
                    ln_a = solve_alpha(snr, qos, law).ln_alpha
                    assert ln_a == solve_alpha(x, qos, unit).ln_alpha + math.log(mu)

    def test_the_carry_of_a_law_scaled_far_down(self):
        # the tilted sums of the law's own nodes, near 1e300, overflowed in
        # the carry of _Groups.tilted with a numpy warning on the way to
        # this rate, the unit law's at snr 1
        ((se, ln_a),) = _csit_rows([1e300], 0.0, 1.0, [1e5], NakagamiM(2.0, mean=1e-300))
        assert se == 1.0228932493147938
        assert ln_a == solve_alpha(1.0, QosConfig(0.0, 1.0, 1e5), NAK2).ln_alpha + math.log(1e-300)


TABLE4 = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))


def record_tilted(monkeypatch) -> list:
    """The weight of every _Groups.tilted read from here on, in order."""
    weights, tilted = [], _Groups.tilted

    def spy(self, s, weight, depth=None):
        weights.append(weight)
        return tilted(self, s, weight, depth)

    monkeypatch.setattr(_Groups, "tilted", spy)
    return weights


class TestRateIdentity:
    """At the root of M(a) = snr the CSIT rate's mean F(a) + E{(z/a)^-p ;
    z >= a} is xi(a) + a snr, xi = F(a) + a I(a): below 1/2 the rate reads
    it and no w-weighted tilted sum, above it reads log1p of those sums.
    Both, and ln xi at alpha*, against direct sums over log_nodes(ln a)."""

    @staticmethod
    def rate(model, theta, B, snr):
        """(spectral efficiency, ln alpha, ln of the mean by direct sums)."""
        ((se, ln_a),) = _csit_rows(np.array([snr]), theta, 2e-3, np.array([B]), model)
        beta = QosConfig(theta, 2e-3, B).beta
        return se, ln_a, ln_rate_mean(model, ln_a, beta / (beta + 1.0))

    @pytest.mark.parametrize(
        "model, theta, B, snr, where",
        [
            (Rayleigh(), 1e-3, 1e5, 1e4, "panel"),
            (NakagamiM(0.5), 1e-3, 1e5, 100.0, "panel"),
            (NakagamiM(2.0), 1e-3, 1e5, 3e3, "panel"),
            (NakagamiM(2.0), 0.1, 1e6, 1e4, "below"),
            (TABLE4, 1.0, 1e5, 2.5e-3, "atoms"),
            (TABLE4, 1.0, 1e5, 1e-2, "below"),
            (Deterministic(1.3), 0.1, 1e5, 1e6, "below"),
        ],
        ids=lambda v: repr(v) if isinstance(v, FadingModel) else None,
    )
    def test_strong_qos_rows_take_the_identity(self, model, theta, B, snr, where,
                                                monkeypatch):
        weights = record_tilted(monkeypatch)
        se, ln_a, ln_mean = self.rate(model, theta, B, snr)
        assert weights and "w" not in weights
        groups = model._groups
        ell, panels = groups.ell, groups.panels
        assert {"panel": panels and ell[-1] < ln_a < ell[groups.first],
                "below": ln_a < ell[-1],
                "atoms": not panels and ell[-1] < ln_a < ell[0]}[where]
        assert ln_mean < -LN2
        assert se == pytest.approx(-ln_mean / (theta * 2e-3 * B), rel=1e-13)

    @pytest.mark.parametrize(
        "model, below, above",
        [
            (Rayleigh(), 0.0297881, 0.0296547),
            (NakagamiM(0.5), 0.0385484, 0.0383303),
            (NakagamiM(2.0), 0.0267959, 0.0266932),
            (TABLE4, 0.021556, 0.0214621),
            (Deterministic(1.3), 0.01873, 0.0186754),
        ],
        ids=repr,
    )
    def test_no_jump_at_one_half(self, model, below, above, monkeypatch):
        # at theta = 0.1 and B = 1e5 the snr values put the mean within 1e-3
        # below and above 1/2; only the row above reads the w sums
        for snr, side in ((below, -1.0), (above, 1.0)):
            weights = record_tilted(monkeypatch)
            se, _, ln_mean = self.rate(model, 0.1, 1e5, snr)
            assert 0.0 < side * (math.exp(ln_mean) - 0.5) < 1e-3
            assert ("w" in weights) is (side > 0)
            assert se == pytest.approx(-ln_mean / (0.1 * 2e-3 * 1e5), rel=1e-13)

    @pytest.mark.parametrize(
        "model", [Rayleigh(), NakagamiM(0.5), NakagamiM(2.0), TABLE4, Deterministic(1.3)],
        ids=repr,
    )
    def test_ln_xi_at_alpha_star(self, model):
        # xi from 0.71 (theta = 0.01) down to 1e-163
        thetas = [0.01, 0.1, 1.0, 10.0]
        for root in _alpha_star_roots(model, thetas, 2e-3, [1e4] * 4):
            ln_star, ln_xi = root[0], root[4]
            assert ln_xi == pytest.approx(ln_rate_mean(model, ln_star, 1.0), rel=1e-13)

    def test_a_strong_qos_batch_reads_no_w_sums(self, monkeypatch):
        weights = record_tilted(monkeypatch)
        snr = np.array([1e3, 1e4, 1e5, 1e4, 10.0])
        theta = [1e-3, 1e-3, 1e-3, 0.1, 1.0]
        rows = _csit_rows(snr, theta, 2e-3, np.full(5, 1e5), RAY)
        assert all(isinstance(row, tuple) for row in rows)
        assert weights == ["v"]
        # a weak-QoS row in the batch reads them
        weights.clear()
        _csit_rows(np.append(snr, 1.0), [*theta, 1e-6], 2e-3, np.full(6, 1e5), RAY)
        assert weights == ["v", "w"]


class TestDelayLimited:
    def test_csir_uses_worst_state(self):
        assert delay_limited_limit(1.0, "csir", RAY) == 0.0
        assert delay_limited_limit(2.0, "csir", TAB) == pytest.approx(
            math.log2(1 + 2.0 * 0.25), rel=1e-12
        )

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_past_the_doubles(self, mode):
        # snr z = 2.5e308 overflows and the value is log2(2.5e308) all the
        # same; below the overflow it keeps the bits of log1p(snr z).
        z = Deterministic(2.5)
        want = math.log2(2.5) + 308.0 * math.log2(10.0)
        assert delay_limited_limit(1e308, mode, z) == pytest.approx(want, rel=1e-12)
        x = 7e307 * 2.5 if mode == "csir" else 7e307 / z.inverse_moment()
        assert delay_limited_limit(7e307, mode, z) == math.log1p(x) / LN2

    def test_csit_inverse_moment(self):
        assert delay_limited_limit(1.0, "csit", NAK2) == pytest.approx(
            math.log2(1 + 1.0 / 2.0), rel=1e-12
        )
        inv = TAB.inverse_moment()
        assert delay_limited_limit(1.0, "csit", TAB) == pytest.approx(
            math.log2(1 + 1 / inv), rel=1e-12
        )

    def test_csit_divergent_warns_and_returns_zero(self):
        with pytest.warns(DivergentInverseMoment):
            val = delay_limited_limit(1.0, "csit", RAY)
        assert val == 0.0


THETA0 = QosConfig(theta=0.0, T=2e-3, B=1e5)
SNR_FUNCTIONS = {
    "csir": lambda snr: spectral_efficiency_csir(snr, QOS, RAY),
    "csit": lambda snr: spectral_efficiency_csit(snr, QOS, RAY),
    "csit_theta0": lambda snr: spectral_efficiency_csit(snr, THETA0, RAY),
    "shannon_csir": lambda snr: shannon_limit(snr, "csir", QOS, RAY),
    "shannon_csit": lambda snr: shannon_limit(snr, "csit", QOS, RAY),
    "delay_csir": lambda snr: delay_limited_limit(snr, "csir", RAY),
    "delay_csit": lambda snr: delay_limited_limit(snr, "csit", NAK2),
}


@pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", SNR_FUNCTIONS.values(), ids=SNR_FUNCTIONS.keys())
def test_non_finite_snr_is_rejected(fn, snr):
    # Unchecked, these give nan, inf or a finite-looking rate (39.03 for
    # the CSIT Shannon limit of NaN on Rayleigh).
    with pytest.raises(ValueError, match="snr must be .* finite"):
        fn(snr)


WEAK_THETAS = (1e-6, 1e-9, 1e-12, 1e-15, 1e-18, 1e-30)


class TestWeakQos:
    def test_rates_stay_at_or_below_shannon(self):
        # At snr = 1e-5 a table's threshold sits within 1.3e-4 of its top
        # atom, and the CSIT rate rests on the gap ln z_top - ln(alpha):
        # one ulp of ln(alpha) in that gap moves the rate by 1.7e-12.
        table4 = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
        tables = (TAB, Deterministic(1.3), table4)
        for theta in WEAK_THETAS:
            qos = QosConfig(theta=theta, T=2e-3, B=1e5)
            for model in (RAY, NAK2, *tables):
                for snr in (1e-5, 1.0):
                    for mode, fn in (
                        ("csir", spectral_efficiency_csir),
                        ("csit", spectral_efficiency_csit),
                    ):
                        se = fn(snr, qos, model)
                        assert se <= shannon_limit(snr, mode, qos, model) * (1 + 1e-15)

    @pytest.mark.parametrize("model", [RAY, NAK2], ids=["ray", "nak2"])
    def test_theta_t_b_is_formed_without_underflow(self, model):
        # theta*T underflows to 0 in both; theta*T*B is 1e-307 (a normal
        # double) in the first and 1e-321 (subnormal) in the second
        fine = QosConfig(theta=1e-300, T=1e-20, B=1e13)
        assert fine.beta == pytest.approx(1e-307 / LN2, rel=1e-15)
        for mode, fn in (("csir", spectral_efficiency_csir), ("csit", spectral_efficiency_csit)):
            se = fn(1.0, fine, model)
            assert 0 < se <= shannon_limit(1.0, mode, fine, model) * (1 + 1e-15)
            with pytest.raises(NumericalError, match="leaves the normal doubles"):
                fn(1.0, QosConfig(theta=1e-310, T=1e-20, B=1e9), model)

    def test_csir_rate_matches_quadrature(self):
        snr, T, B = 1e-5, 2e-3, 1e5
        for theta in (1e-3,) + WEAK_THETAS:
            beta = theta * T * B / LN2
            mean_expm1, _ = quad(
                lambda z: math.exp(-z) * math.expm1(-beta * math.log1p(snr * z)),
                0.0,
                math.inf,
                epsabs=0.0,
                epsrel=1e-13,
            )
            want = -math.log1p(mean_expm1) / (theta * T * B)
            got = spectral_efficiency_csir(snr, QosConfig(theta, T, B), RAY)
            assert got == pytest.approx(want, rel=1e-11)


BAD_MODE = {
    "shannon_limit": lambda: shannon_limit(1.0, "blind", QOS, RAY),
    "SweepSpec": lambda: SweepSpec(
        model=RAY, mode="blind", regime="lowpower", theta_list=(0.1,), T=2e-3, B=1e5
    ),
    "ebn0_min_surface": lambda: ebn0_min_surface("blind", RAY, (0.1,), (1e4,), 2e-3),
    "SimConfig": lambda: SimConfig(
        model=RAY,
        snr=1.0,
        qos=QOS,
        mode="blind",
        arrival_rate=1e3,
        frames=10,
        seed=1,
        q_thresholds=(1.0,),
    ),
    "effective_capacity_empirical": lambda: effective_capacity_empirical(
        RAY, 1.0, QOS, "blind", 10, 1
    ),
    "predicted_effective_capacity": lambda: predicted_effective_capacity(
        RAY, 1.0, QOS, "blind"
    ),
}


@pytest.mark.parametrize("fn", BAD_MODE.values(), ids=BAD_MODE.keys())
def test_unknown_mode_gets_one_message(fn):
    with pytest.raises(ValueError, match="^mode must be 'csir' or 'csit', got 'blind'"):
        fn()


class TestBitEnergy:
    def test_basic(self):
        assert bit_energy(1.0, 2.0) == 0.5
        assert bit_energy_db(1.0, 1.0) == 0.0
        assert to_db(0.0) == -math.inf
        with pytest.raises(ValueError):
            bit_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            bit_energy(1.0, 0.0)


class TestServiceRates:
    def test_csir_formula(self):
        z = np.array([0.0, 1.0, 3.0])
        r = service_rate_csir(2.0, z, QOS)
        want = QOS.B * np.log1p(2.0 * z) / LN2
        assert r == pytest.approx(want, rel=1e-14)

    def test_csit_masked_formula(self):
        pol = solve_alpha(1.0, QOS, RAY)
        z = np.array([pol.alpha / 2, pol.alpha * 2, 5.0])
        r = service_rate_csit(pol, z, QOS)
        assert r[0] == 0.0
        want = QOS.B * (math.log(z[1]) - pol.ln_alpha) / ((pol.beta + 1) * LN2)
        assert r[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 1.0])
    def test_csit_rate_is_bitwise_the_masked_formula(self, theta):
        # the masked form the branch-free rate replaced, inlined: gains
        # <= 0 or NaN get ln z = -inf, then np.where picks the active set
        def masked(pol, z, qos):
            z = np.asarray(z, dtype=float)
            lnz = np.where(z > 0, np.log(np.where(z > 0, z, 1.0)), -np.inf)
            return np.where(
                lnz >= pol.ln_alpha,
                qos.B * (lnz - pol.ln_alpha) / ((pol.beta + 1) * LN2),
                0.0,
            )

        qos = QosConfig(theta=theta, T=2e-3, B=1e5)
        gen = np.random.default_rng(29)
        for model in (RAY, NAK2):
            pol = solve_alpha(1.0, qos, model)
            special = [0.0, -1.0, math.nan, math.inf, pol.alpha, 1e-300]
            z = np.concatenate([model.sample(gen, 100_000), special])
            want = masked(pol, z, qos)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = service_rate_csit(pol, z, qos)
                scalars = [service_rate_csit(pol, v, qos) for v in special]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.count_nonzero(got) > 50_000
            for v, r, w in zip(special, scalars, want[-len(special):]):
                assert np.ndim(r) == 0
                assert np.float64(r).view(np.int64) == w.view(np.int64), v

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_rates_written_over_the_gains_are_the_allocated_rates(self, mode):
        # out=z gives the bits of the allocating call, a zero gain included,
        # and warns of nothing
        gen = np.random.default_rng(31)
        for model in (RAY, NAK2):
            z = np.concatenate([model.sample(gen, 10_000), [0.0, 5e-324, 1e300]])
            if mode == "csir":
                rate = functools.partial(service_rate_csir, 2.0)
            else:
                rate = functools.partial(service_rate_csit, solve_alpha(1.0, QOS, model))
            want = rate(z, QOS)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rate(z, QOS, out=z)
            assert got is z
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_csit_rate_matches_policy_capacity(self):
        # log2(1 + mu(z) z) must equal the assigned rate on the active set
        pol = solve_alpha(0.5, QOS, RAY)
        z = np.array([1.0, 2.5])
        mu = power_policy_value(pol, z)
        direct = QOS.B * np.log2(1 + mu * z)
        assert service_rate_csit(pol, z, QOS) == pytest.approx(direct, rel=1e-10)


class TestConcavityAndOrdering:
    def test_concavity_in_snr_quick(self, rng):
        for _ in range(25):
            theta = float(rng.uniform(0.005, 2.0))
            qos = QosConfig(theta=theta, T=2e-3, B=1e5)
            a, b = sorted(rng.uniform(0.01, 10.0, 2))
            if b - a < 1e-3:
                continue
            mid = 0.5 * (a + b)
            f = lambda s: spectral_efficiency_csir(s, qos, RAY)
            assert f(mid) >= 0.5 * (f(a) + f(b)) - 1e-9

    def test_sandwich_quick(self, rng):
        for model in (RAY, NAK2, TAB):
            for theta in (0.01, 1.0):
                qos = QosConfig(theta=theta, T=2e-3, B=1e5)
                for snr in (0.1, 2.0):
                    se = spectral_efficiency_csir(snr, qos, model)
                    dl = delay_limited_limit(snr, "csir", model)
                    sh = shannon_limit(snr, "csir", qos, model)
                    assert dl - 1e-9 <= se <= sh + 1e-9
