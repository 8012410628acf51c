"""Fading model distributions, expectations, and config parsing."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma, gammainc, gammaincc, gammaincinv, logsumexp

from qos_energy import (
    BoundedTable,
    Deterministic,
    FadingModel,
    NakagamiM,
    NonIntegrable,
    QosConfig,
    Rayleigh,
    delay_limited_limit,
    from_config,
    lowpower_csit,
    solve_alpha_star,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
    wideband_csir,
    wideband_csit,
)
from qos_energy import fading
from qos_energy.effcap import _Roots
from qos_energy.fading import _PANEL, _logsumexp
from oracles import gamma_panel_nodes

CONTINUOUS = [Rayleigh(), NakagamiM(0.5), NakagamiM(0.6), NakagamiM(2.0)]
DISCRETE = [
    Deterministic(1.3),
    BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3))),
    # the one-atom table that Deterministic(1.3) is
    BoundedTable(((1.3, 1.0),)),
]
MODEL_IDS = ["ray", "nak0.5", "nak0.6", "nak2", "det", "tab", "tab1"]
GAMMA_SHAPES = (0.5, 0.6, 1.0, 2.0, 2.42, 8.0, 50.0)
_TAILS = np.geomspace(1e-12, 0.5, 60)
QUANTILE_LEVELS = [float(p) for p in np.concatenate([_TAILS, 1.0 - _TAILS[:-1]])]


def upper_gamma(s, x):
    """Gamma(s, x) for s > -1, s != 0."""
    if s > 0:
        return gammaincc(s, x) * gamma(s)
    return (gammaincc(s + 1, x) * gamma(s + 1) - x**s * math.exp(-x)) / s


def shape_scale(model):
    """(m, scale) of a continuous model as a gamma law; Rayleigh has m = 1."""
    return model.m, model.scale


def atom_sum(model, g, a=0.0):
    zs, ps = model.zs, model.ps
    return sum(p * g(z) for z, p in zip(zs, ps) if z >= a and p > 0)


class TestRayleigh:
    def test_moments_closed_form(self):
        ray = Rayleigh(mean=1.7)
        m1, m2 = ray.moments()
        assert m1 == pytest.approx(1.7, rel=1e-14)
        assert m2 == pytest.approx(2 * 1.7**2, rel=1e-14)

    def test_cdf_quantile_roundtrip(self):
        ray = Rayleigh(mean=0.8)
        for p in (1e-9, 0.1, 0.5, 0.99, 1 - 1e-9):
            z = ray.quantile(p)
            assert ray.cdf(z) == pytest.approx(p, rel=1e-10, abs=1e-14)

    def test_expect_above_closed_form(self):
        # E{z 1{z >= a}} = (a + 1) exp(-a) for a unit-mean exponential.
        # The z weight amplifies the 1e-12 tail mass beyond the integration
        # cutoff to ~1e-8 relative, hence the tolerance.
        ray = Rayleigh()
        for a in (0.0, 0.3, 2.0, 8.0):
            got = ray.expect_above(lambda z: z, a)
            want = (a + 1.0) * math.exp(-a)
            assert got == pytest.approx(want, rel=2e-8)

    def test_density_integrates_to_one(self):
        ray = Rayleigh(mean=2.5)
        assert ray.expect_above(lambda z: 1.0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_inverse_moment_diverges(self):
        assert Rayleigh().inverse_moment() == math.inf

    def test_support(self):
        ray = Rayleigh()
        assert ray.z_min == 0.0
        assert math.isinf(ray.z_max)
        assert ray.prob_mass_at(1.0) == 0.0

    def test_sampling_deterministic_and_distributed(self):
        ray = Rayleigh(mean=2.0)
        a = ray.sample(np.random.default_rng(5), 1000)
        b = ray.sample(np.random.default_rng(5), 1000)
        assert np.array_equal(a, b)
        big = ray.sample(np.random.default_rng(6), 200_000)
        assert big.mean() == pytest.approx(2.0, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Rayleigh(mean=0.0)
        with pytest.raises(ValueError):
            Rayleigh(mean=-1.0)

    def test_is_the_nakagami_law_at_m_one(self):
        # Rayleigh inherits the Gamma law's formulas and keeps the
        # exponential's closed-form CDF, quantile and sampler.
        ray, nak = Rayleigh(mean=0.7), NakagamiM(m=1.0, mean=0.7)
        assert isinstance(ray, NakagamiM) and ray.m == 1.0
        assert repr(ray) == "Rayleigh(mean=0.7)"
        assert replace(ray) == ray and replace(ray, mean=2.0) == Rayleigh(2.0)
        assert ray != nak
        with pytest.raises(TypeError):
            Rayleigh(m=2.0)
        u = np.linspace(-60.0, 3.0, 64)
        assert np.array_equal(ray._ln_zp(u), nak._ln_zp(u))
        assert ray.moments() == nak.moments()
        assert ray.inverse_moment() == nak.inverse_moment() == math.inf
        for p in QUANTILE_LEVELS:
            z = ray.quantile(p)
            assert z == pytest.approx(nak.quantile(p), rel=1e-12)
            assert ray.cdf(z) == pytest.approx(nak.cdf(z), rel=1e-12)
        draws = ray.sample(np.random.default_rng(5), 8)
        assert np.array_equal(draws, np.random.default_rng(5).exponential(0.7, 8))

    @pytest.mark.parametrize("size", [None, 1, 65536])
    def test_sample_has_the_bits_of_numpy_exponential(self, size):
        # standard draws scaled in place against rng.exponential(mean, size)
        for seed in range(20):
            for mean in (0.7, 1.0, 3e-4, 2.5e3):
                draws = Rayleigh(mean).sample(np.random.default_rng(seed), size)
                want = np.random.default_rng(seed).exponential(mean, size)
                assert type(draws) is type(want)
                assert np.array_equal(draws, want)


class TestNakagami:
    def test_ln_zp_keeps_the_bits_of_the_expression(self):
        # the in-place log density against m u - z/s - lgamma(m) - m ln s
        rng = np.random.default_rng(17)
        models = [Rayleigh(mean) for mean in (0.3, 1.0, 7.5)]
        models += [NakagamiM(m, mean) for m in GAMMA_SHAPES for mean in (0.3, 7.5)]
        for model in models:
            u = rng.uniform(-700.0, 6.0, 4800)
            m, s = model.m, model.scale
            want = m * u - np.exp(u) / s - math.lgamma(m) - m * math.log(s)
            assert np.array_equal(model._ln_zp(u).view(np.int64), want.view(np.int64))

    def test_density_normalizes(self):
        for m in (0.5, 1.0, 2.0, 4.7):
            nak = NakagamiM(m=m, mean=1.3)
            assert nak.expect_above(lambda z: 1.0, 0.0) == pytest.approx(
                1.0, rel=1e-8
            )

    def test_moments(self):
        nak = NakagamiM(m=3.0, mean=0.9)
        m1, m2 = nak.moments()
        assert m1 == pytest.approx(0.9, rel=1e-14)
        assert m2 == pytest.approx(0.9**2 * 4 / 3, rel=1e-14)
        quad_m2 = nak.expect_above(lambda z: z * z, 0.0)
        assert quad_m2 == pytest.approx(m2, rel=1e-9)

    def test_m_equal_one_matches_rayleigh(self):
        nak = NakagamiM(m=1.0, mean=1.4)
        ray = Rayleigh(mean=1.4)
        for z in (0.01, 0.5, 1.4, 6.0):
            assert nak.density(z) == pytest.approx(ray.density(z), rel=1e-12)
        for z in np.geomspace(1e-12, 50.0, 61):
            assert nak.cdf(z) == pytest.approx(ray.cdf(z), rel=1e-13, abs=0.0)
        for p in QUANTILE_LEVELS:
            assert nak.quantile(p) == pytest.approx(ray.quantile(p), rel=1e-13, abs=0.0)

    def test_cdf_matches_gammainc(self):
        nak = NakagamiM(m=2.5, mean=1.0)
        for z in (0.1, 1.0, 3.0):
            assert nak.cdf(z) == pytest.approx(
                float(gammainc(2.5, z / nak.scale)), rel=1e-12
            )
        # mean = m makes the scale 1, so z is the gamma argument.
        for m in GAMMA_SHAPES:
            nak = NakagamiM(m=m, mean=m)
            for x in np.geomspace(1e-12, 400.0, 241):
                want = float(gammainc(m, x))
                if want < 1e-300:
                    # scipy flushes these to 0; the log domain may keep a subnormal.
                    assert nak.cdf(x) < 1e-300
                else:
                    assert nak.cdf(x) == pytest.approx(want, rel=1e-12, abs=0.0)
        # Large m, where m ln x and lgamma(m) nearly cancel; within four
        # standard deviations of the mean scipy is exact to ~1e-15.
        for m in (1e4, 1e6):
            nak = NakagamiM(m=m, mean=m)
            for k in np.linspace(-4.0, 4.0, 17):
                x = m + k * math.sqrt(m)
                assert nak.cdf(x) == pytest.approx(float(gammainc(m, x)), rel=1e-12, abs=0.0)

    def test_quantile_matches_gammaincinv(self):
        for m in GAMMA_SHAPES:
            nak = NakagamiM(m=m, mean=m)
            for p in QUANTILE_LEVELS:
                want = float(gammaincinv(m, p))
                assert nak.quantile(p) == pytest.approx(want, rel=1e-13, abs=0.0)
        nak = NakagamiM(m=2.42, mean=1.3)
        for p in (1e-9, 0.5, 1.0 - 1e-9):
            want = float(gammaincinv(2.42, p)) * nak.scale
            assert nak.quantile(p) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert nak.quantile(0.0) == 0.0
        assert nak.quantile(1.0) == math.inf
        assert nak.cdf(math.inf) == 1.0

    def test_inverse_moment(self):
        nak = NakagamiM(m=2.0, mean=1.0)
        # E{1/z} = 1/(scale (m-1)) = 2 for m=2, mean=1
        assert nak.inverse_moment() == pytest.approx(2.0, rel=1e-12)
        quad = nak.expect_above(lambda z: 1.0 / z, 0.0)
        assert quad == pytest.approx(2.0, rel=1e-7)
        assert NakagamiM(m=1.0, mean=1.0).inverse_moment() == math.inf
        assert NakagamiM(m=0.5, mean=1.0).inverse_moment() == math.inf

    def test_quantile_roundtrip(self):
        nak = NakagamiM(m=0.8, mean=2.0)
        for p in (0.01, 0.4, 0.97):
            assert nak.cdf(nak.quantile(p)) == pytest.approx(p, rel=1e-10)

    def test_half_m_density_edge(self):
        nak = NakagamiM(m=0.5, mean=1.0)
        assert math.isinf(nak.density(0.0))
        assert nak.expect_above(lambda z: 1.0, 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            NakagamiM(m=0.49, mean=1.0)
        with pytest.raises(ValueError):
            NakagamiM(m=2.0, mean=0.0)

    def test_sampling_moments(self):
        nak = NakagamiM(m=2.0, mean=1.5)
        z = nak.sample(np.random.default_rng(7), 400_000)
        assert z.mean() == pytest.approx(1.5, rel=0.02)
        assert (z * z).mean() == pytest.approx(1.5**2 * 1.5, rel=0.03)


class TestLogSumExp:
    """The package's numpy log-sum-exp against scipy's."""

    @pytest.mark.parametrize("n", [1, 2, 7, 450, 41_000])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(-300.0, 50.0, size=n)
        a[rng.random(n) < 0.1] = -math.inf
        a[0] = -299.0
        want = float(logsumexp(a))
        assert _logsumexp(a) == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_edge_cases(self):
        cases = (np.array([]), np.full(4, -math.inf), np.array([-1.0, math.inf, 3.0]))
        for a, want in zip(cases, (-math.inf, -math.inf, math.inf)):
            assert _logsumexp(a) == want == float(logsumexp(a))


class TestDeterministic:
    def test_point_mass(self):
        det = Deterministic(z0=2.0)
        assert det.z_min == det.z_max == 2.0
        assert det.cdf(2.0) == 0.0  # strictly-below convention
        assert det.cdf(2.0000001) == 1.0
        assert det.prob_mass_at(2.0) == 1.0
        assert det.prob_mass_at(1.0) == 0.0
        assert det.inverse_moment() == 0.5
        assert det.moments() == (2.0, 4.0)

    def test_expect_above_threshold(self):
        det = Deterministic(z0=1.5)
        assert det.expect_above(lambda z: z * 10, 1.5) == 15.0
        assert det.expect_above(lambda z: z * 10, 1.5000001) == 0.0

    def test_sample_constant(self):
        det = Deterministic(z0=0.7)
        z = det.sample(np.random.default_rng(1), 17)
        assert np.all(z == 0.7) and z.shape == (17,)
        # a constant gain draws nothing from the generator
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert det.sample(rng) == 0.7
        det.sample(rng, 1000)
        assert rng.bit_generator.state == state


class TestBoundedTable:
    def test_basic_stats(self):
        tab = BoundedTable(((0.5, 0.25), (1.0, 0.5), (3.0, 0.25)))
        m1, m2 = tab.moments()
        assert m1 == pytest.approx(0.5 * 0.25 + 0.5 + 0.75)
        assert m2 == pytest.approx(0.25 * 0.25 + 0.5 + 9 * 0.25)
        assert tab.z_min == 0.5 and tab.z_max == 3.0
        assert tab.inverse_moment() == pytest.approx(0.5 + 0.5 + 0.25 / 3)

    def test_cdf_is_strictly_below(self):
        tab = BoundedTable(((1.0, 0.4), (2.0, 0.6)))
        assert tab.cdf(1.0) == 0.0
        assert tab.cdf(1.5) == pytest.approx(0.4)
        assert tab.cdf(2.0) == pytest.approx(0.4)
        assert tab.cdf(2.5) == 1.0

    def test_expect_above_includes_threshold_atom(self):
        tab = BoundedTable(((1.0, 0.4), (2.0, 0.6)))
        assert tab.expect_above(lambda z: 1.0, 2.0) == pytest.approx(0.6)
        assert tab.expect_above(lambda z: z, 0.0) == pytest.approx(1.6)

    def test_quantile(self):
        tab = BoundedTable(((1.0, 0.4), (2.0, 0.6)))
        assert tab.quantile(0.2) == 1.0
        assert tab.quantile(0.4) == 1.0
        assert tab.quantile(0.41) == 2.0
        assert tab.quantile(1.0) == 2.0

    def test_quantile_skips_atoms_without_probability(self):
        # the smallest z with P(Z <= z) >= p is never an atom of probability 0
        tab = BoundedTable(((0.0, 0.0), (1.0, 0.5), (2.0, 0.5)))
        assert tab.quantile(1e-16) == 1.0
        assert tab.quantile(0.0) == 1.0
        # probabilities 1e-12 short of 1, then a last atom without any
        tab = BoundedTable(((1.0, 0.5), (2.0, 0.5 - 1e-12), (3.0, 0.0)))
        assert tab.quantile(1.0) == 2.0
        # the slack absorbs cumsum's rounding: 0.7 + 0.2 is 0.8999999999999999
        tab = BoundedTable(((1.0, 0.7), (2.0, 0.2), (3.0, 0.1)))
        assert tab.quantile(0.9) == 2.0

    @pytest.mark.parametrize("where", ("first", "middle", "last"))
    def test_an_empty_atom_is_no_part_of_the_law(self, where):
        # every reader of the support sees the law without its empty atom:
        # z_min read 0 with (0, 0) first, and z_max read 9 with (9, 0) last,
        # and with it the CSIT low-power floor and the theta = 0 threshold
        law = ((0.25, 0.2), (1.0, 0.5), (4.0, 0.3))
        k, atom = {"first": (0, (0.0, 0.0)), "middle": (2, (2.0, 0.0)),
                   "last": (3, (9.0, 0.0))}[where]
        given, want = BoundedTable(law[:k] + (atom,) + law[k:]), BoundedTable(law)

        def reads(tab):
            qos = [QosConfig(theta, 2e-3, 1e4) for theta in (0.05, 1.0)]
            return (
                tab.z_min, tab.z_max, tab.upper_cutoff(), tab.moments(),
                tab.inverse_moment(), _bits(tab.support_nodes),
                [tab.cdf(z) for z in (0.0, 0.25, 0.5, 2.0, 4.0, 9.0, 10.0)],
                [tab.quantile(p) for p in (0.0, 1e-16, 0.2, 0.5, 0.7, 0.71, 1.0)],
                lowpower_csit(tab, 1.0),
                [delay_limited_limit(2.0, mode, tab) for mode in ("csir", "csit")],
                [f(tab, theta, 2e-3, 1e4) for f in (solve_alpha_star, wideband_csit)
                 for theta in (0.0, 0.01, 1.0)],
                [wideband_csir(tab, theta, 2e-3, 1e4) for theta in (0.01, 1.0)],
                [f(snr, q, tab) for f in (spectral_efficiency_csir, spectral_efficiency_csit)
                 for q in qos for snr in (1e-3, 2.0)],
            )

        assert reads(given) == reads(want)
        for seed in range(20):
            for size in (None, 1, 7, 1000):
                assert np.array_equal(
                    given.sample(np.random.default_rng(seed), size),
                    want.sample(np.random.default_rng(seed), size),
                )
        assert given == want and repr(given) == repr(want)

    @pytest.mark.parametrize("p", (-1.0, -1e-300, 1.0 + 1e-15, 2.0, math.nan, math.inf))
    def test_quantile_rejects_levels_outside_the_unit_interval(self, p):
        for model in (BoundedTable(((1.0, 0.4), (2.0, 0.6))), Deterministic(1.3), NakagamiM(2.0)):
            with pytest.raises(ValueError, match=r"quantile level must be in \[0, 1\]"):
                model.quantile(p)

    def test_support_nodes_are_the_atoms(self):
        # z and w are the kept atoms and probabilities themselves, not
        # exp(ln z) and exp(ln p), so a floor ln 2 / z0 is exact at any z0
        tables = (
            Deterministic(1e-300),
            DISCRETE[1],
            BoundedTable(((0.0, 0.2), (1e-300, 0.3), (0.7, 0.0), (3.1, 0.5))),
        )
        for tab in tables:
            zs, ps = tab.zs, tab.ps
            assert _bits(tab.support_nodes[2:]) == _bits((zs[ps > 0], ps[ps > 0]))
        floor = wideband_csir(Deterministic(1e-300), 1e-30, 2e-3, 1.0).ebn0_min_linear
        assert abs(floor - math.log(2.0) / 1e-300) <= math.ulp(floor)

    def test_atom_at_zero_divergent_inverse_moment(self):
        tab = BoundedTable(((0.0, 0.1), (1.0, 0.9)))
        assert tab.inverse_moment() == math.inf

    def test_sampling_frequencies(self):
        tab = BoundedTable(((1.0, 0.3), (2.0, 0.7)))
        z = tab.sample(np.random.default_rng(11), 100_000)
        assert np.mean(z == 2.0) == pytest.approx(0.7, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedTable(((2.0, 0.5), (1.0, 0.5)))  # not increasing
        with pytest.raises(ValueError):
            BoundedTable(((1.0, 0.6), (2.0, 0.6)))  # mass sums to 1.2
        with pytest.raises(ValueError):
            BoundedTable(((-1.0, 0.5), (2.0, 0.5)))  # negative gain
        with pytest.raises(ValueError):
            BoundedTable(())

    @pytest.mark.parametrize(
        "points",
        [
            ((0.5, math.nan), (1.0, 1.0)),
            ((math.nan, 1.0),),
            ((math.inf, 1.0),),
            ((0.5, 0.5), (1.0, math.inf)),
        ],
    )
    def test_rejects_non_finite_entries(self, points):
        with pytest.raises(ValueError, match="finite"):
            BoundedTable(points)

    @pytest.mark.parametrize("points", [((0.0, 1.0),), ((0.0, 1.0), (1.0, 0.0))])
    def test_rejects_no_mass_on_a_positive_gain(self, points):
        with pytest.raises(ValueError, match="positive"):
            BoundedTable(points)


class TestFromConfig:
    def test_all_kinds(self):
        for config, want in [
            ({"kind": "rayleigh", "mean": 2.0}, Rayleigh(mean=2.0)),
            ({"kind": "nakagami", "m": 2, "mean": 1.0}, NakagamiM(m=2, mean=1.0)),
            ({"kind": "deterministic", "z0": 1.5}, Deterministic(z0=1.5)),
            ({"kind": "table", "points": [[1.0, 0.4], [2.0, 0.6]]},
             BoundedTable(((1.0, 0.4), (2.0, 0.6)))),
        ]:
            model = from_config(config)
            assert isinstance(model, FadingModel)
            assert model == want

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            from_config({"kind": "rician"})

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            from_config({"kind": "rayleigh", "sigma": 1.0})

    def test_rejects_missing_required(self):
        with pytest.raises(ValueError):
            from_config({"kind": "nakagami", "mean": 1.0})
        with pytest.raises(ValueError):
            from_config({"kind": "deterministic"})


class TestLogNodes:
    S_VALUES = (1e-5, 3e-3, 1.0, 100.0, 2.9e3)
    LN_A_VALUES = (-60.0, -10.0, 0.0, 2.5)

    @pytest.mark.parametrize("model", CONTINUOUS + DISCRETE, ids=MODEL_IDS)
    def test_laplace_pair_closed_form(self, model):
        u, ln_w = model.log_nodes(-math.inf)
        for s in self.S_VALUES:
            t = ln_w - s * np.exp(u)
            ln_l = logsumexp(t)
            ratio = np.dot(np.exp(t - ln_l), np.exp(2.0 * u))
            if not isinstance(model, BoundedTable):
                m, theta = shape_scale(model)
                want_ln_l = -m * math.log1p(theta * s)
                want_ratio = m * (m + 1.0) * theta**2 / (1.0 + theta * s) ** 2
            else:
                zs, ps = model.zs, model.ps
                want_ln_l = logsumexp(np.log(ps[ps > 0]) - s * zs[ps > 0])
                want_ratio = atom_sum(
                    model, lambda z: z * z * math.exp(-s * z - want_ln_l)
                )
            # absolute error in ln L is the relative error in L
            assert ln_l - want_ln_l == pytest.approx(0.0, abs=1e-12)
            assert ratio == pytest.approx(want_ratio, rel=1e-12)

    @pytest.mark.parametrize("m", (1.0, 0.5, 0.6, 2.0, 8.0, 20.0, 50.0))
    def test_graded_support_matches_the_lattice(self, m):
        # the graded whole-support set against independent 0.25-wide panels
        # from scale 1e-30 up, each sum shifted by the latter's largest term
        def terms(u, ln_w):
            z = np.exp(u)
            for c in 10.0 ** np.arange(-3.0, 7.5, 0.5):
                yield ln_w - c * z
                yield ln_w - c * z + 2.0 * u
                for beta in (1e-3, 1.0, 30.0, 1e3):
                    yield ln_w - beta * np.log1p(c * z)
                yield ln_w + np.log(np.log1p(c * z))

        for mean in (0.3, 1.0, 7.5):
            model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
            ln_lo = math.log(model.scale * 1e-30)
            ln_top = math.log(model.upper_cutoff()) + 2.0
            u, ln_w = gamma_panel_nodes(m, model.scale, ln_lo, ln_top)
            # and the mass below scale 1e-30 on one node there, as in the set
            with np.errstate(divide="ignore"):
                ln_below = np.log(gammainc(m, 1e-30))
            lattice = terms(np.append(ln_lo, u), np.append(ln_below, ln_w))
            for got, want in zip(terms(*model.log_nodes(-math.inf)), lattice, strict=True):
                top = want.max()
                assert np.exp(got - top).sum() == pytest.approx(
                    np.exp(want - top).sum(), rel=1e-13
                )
            u, ln_w = model.log_nodes(-math.inf)
            w = np.exp(ln_w)
            # QUADPACK misses the mass near 0 at larger c: at m = 0.5, mean
            # 7.5 and c = 100 it gives 2.6e-19 for E{e^-cz} = 0.026, unflagged
            for c in (1e-3, 0.1, 1.0):
                for k in (0, 2):
                    got = np.dot(w, np.exp(k * u - c * np.exp(u)))
                    want = model.expect_above(lambda z: z**k * math.exp(-c * z))
                    assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("m", (1.0, 0.5, 2.0))
    def test_whole_support_starts_relative_to_the_scale(self, m):
        # E{1} and the Laplace transform (1 + c s)^-m at any mean: the set
        # starts at scale 1e-30, not at an absolute floor
        for mean in (1e-20, 1.0, 1e20):
            model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
            _, _, z, w = model.support_nodes
            assert w.sum() == pytest.approx(1.0, rel=1e-14, abs=0.0)
            for cs in (1e-3, 1.0, 1e3):
                got = np.dot(w, np.exp(-(cs / model.scale) * z))
                assert got == pytest.approx((1.0 + cs) ** -m, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", (0.5, 0.6, 1.0, 2.0))
    def test_whole_support_keeps_the_mass_below_its_floor(self, m):
        # (1 + c s)^-m as c s grows: the mass below scale 1e-30, up to
        # 1.2e-15 at m = 0.5, weighs ever more against the transform
        for mean in (1e-20, 1.0, 1e20):
            model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
            _, _, z, w = model.support_nodes
            for cs in (1e3, 1e6, 1e9):
                got = np.dot(w, np.exp(-(cs / model.scale) * z))
                assert got == pytest.approx((1.0 + cs) ** -m, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("model", CONTINUOUS + DISCRETE, ids=MODEL_IDS)
    def test_threshold_moment_closed_form(self, model):
        # E{(a/z)^p ; z >= a}: the CSIT rate term and the 1/z weight
        for ln_a in self.LN_A_VALUES:
            a = math.exp(ln_a)
            u, ln_w = model.log_nodes(ln_a)
            for p in (0.1, 0.45, 0.9):
                got = np.exp(ln_w - p * (u - ln_a)).sum()
                if not isinstance(model, BoundedTable):
                    m, theta = shape_scale(model)
                    want = (a / theta) ** p * upper_gamma(m - p, a / theta) / gamma(m)
                else:
                    want = atom_sum(model, lambda z: (a / z) ** p, a)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("model", CONTINUOUS + DISCRETE, ids=MODEL_IDS)
    def test_matches_quadrature_reference(self, model):
        # cases where adaptive quadrature converges; its own error is
        # ~1e-12, from the tail mass it truncates
        u, ln_w = model.log_nodes(-math.inf)
        w = np.exp(ln_w)
        for beta in (3e-3, 1.0, 30.0):
            for snr in (1e-5, 1.0):
                got = np.dot(w, np.exp(-beta * np.log1p(snr * np.exp(u))))
                want = model.expect_above(lambda z: (1.0 + snr * z) ** -beta)
                assert got == pytest.approx(want, rel=1e-9)
        for snr in (1e-5, 1.0, 100.0):
            got = np.dot(w, np.log1p(snr * np.exp(u)))
            want = model.expect_above(lambda z: math.log1p(snr * z))
            assert got == pytest.approx(want, rel=1e-9)
        for ln_a in (-10.0, 0.0):
            a = math.exp(ln_a)
            u, ln_w = model.log_nodes(ln_a)
            for beta in (0.0, 1.0, 30.0):
                got = np.dot(np.exp(ln_w - u), np.expm1((u - ln_a) / (beta + 1.0)))
                want = model.expect_above(
                    lambda z: math.expm1(math.log(z / a) / (beta + 1.0)) / z, a
                )
                assert got == pytest.approx(want, rel=1e-9)
            for k in (0, 1, 2):
                got = np.dot(np.exp(ln_w - u), (u - ln_a) ** k)
                want = model.expect_above(lambda z: math.log(z / a) ** k / z, a)
                assert got == pytest.approx(want, rel=1e-9)

    def test_discrete_nodes_are_the_atoms(self):
        tab = DISCRETE[1]
        u, ln_w = tab.log_nodes(-math.inf)
        assert np.allclose(np.exp(u), tab.zs, rtol=1e-15, atol=0.0)
        assert np.allclose(np.exp(ln_w), tab.ps, rtol=1e-15, atol=0.0)
        u, ln_w = tab.log_nodes(0.0)
        assert np.allclose(np.exp(u), [1.0, 2.5], rtol=1e-15, atol=0.0)
        assert tab.ln_cdf(0.0) == pytest.approx(math.log(0.3), rel=1e-15)
        assert tab.ln_cdf(-800.0) == pytest.approx(math.log(0.1), rel=1e-15)
        assert Rayleigh().ln_cdf(-800.0) == -math.inf
        # Deterministic(z0) is the one-atom table, bit for bit
        det, twin = DISCRETE[0], DISCRETE[2]
        assert det == twin and det.z0 == 1.3
        for ln_a in (-math.inf, 0.0, math.log(1.3), 0.5):
            for a, b in zip(det.log_nodes(ln_a), twin.log_nodes(ln_a)):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert det.moments() == twin.moments()
        assert det.inverse_moment() == twin.inverse_moment()
        for z in (0.0, 1.3, math.nextafter(1.3, 2.0), 5.0):
            assert det.cdf(z) == twin.cdf(z)
        for p in (0.0, 0.5, 1.0):
            assert det.quantile(p) == twin.quantile(p)
        for theta in (0.0, 0.01, 1.0):
            qos = QosConfig(theta=theta, T=2e-3, B=1e5)
            if theta > 0:
                got = spectral_efficiency_csir(3.0, qos, det)
                assert got == spectral_efficiency_csir(3.0, qos, twin)
            got = spectral_efficiency_csit(3.0, qos, det)
            assert got == spectral_efficiency_csit(3.0, qos, twin)


def _bits(arrays):
    return [a.view(np.int64).tolist() for a in arrays]


class TestLattice:
    """The cached node lattice of the continuous models."""

    LN_LOWER = (-600.0, -69.1, -10.3, -0.07, 0.0, 4.0, 10.0)

    @pytest.mark.parametrize("model", CONTINUOUS, ids=MODEL_IDS[:4])
    def test_nodes_do_not_depend_on_history(self, model):
        # a fresh model, one that answered a deep threshold first, and one
        # that answered ever deeper thresholds first give the same bits
        deep, stepped = replace(model), replace(model)
        deep.log_nodes(-640.0)
        for ln_a in np.arange(4.3, -80.0, -0.6):
            stepped.log_nodes(ln_a)
        for ln_a in (-math.inf, *self.LN_LOWER):
            want = _bits(replace(model).log_nodes(ln_a))
            assert _bits(deep.log_nodes(ln_a)) == want
            assert _bits(stepped.log_nodes(ln_a)) == want

    # Per m: the whole-support node count (its panels and the node that
    # carries the mass below them), the number of edge-sum groups
    # down to the 1e-280 floor, and sha256 of the bits of log_nodes at
    # LN_LOWER and of the edge sums.  The bits rest on numpy's exp and log
    # and on the Gauss-Legendre rule (an eigenvalue solve), so the hashes
    # are compared only where those give the bits that CANARY hashes.
    PINNED = {
        1.0: (897, 344, "81a79a418884925f1814b96b889960466e2dc3bf4eaf86c20178d47160c76726"),
        0.5: (881, 343, "89b427d96bd4601847a401bc0464464b486f005dd971a66f14bccad26e314286"),
        0.6: (897, 344, "290811b94df4694db98cc8b690a2ec11fce9dc0b2a4ff97cc25167988218b759"),
        2.0: (1457, 666, "38e29375aa5d443f213fe23f8234dc2ea4f543f893f43174cb9f26fb94de57e4"),
        8.0: (4801, 2594, "636dd15dd172ee1ce553c862aa65c438797d7d9ae88cfdae8e0958bb9990cddb"),
    }
    # The same away from unit mean, per (m, mean), at LN_LOWER shifted by
    # ln mean: at mean 1e-260 the whole-support set reaches below the 1e-280
    # floor, at 1e20 the grid's top is far above 1.
    PINNED_AWAY = {
        (1.0, 1e-260): (897, 45, "d6064b1eac87ac6e6cfed06043b175ba1d60508ca6b0fd47371da9e624c8219b"),
        (2.0, 1e20): (1457, 712, "dff65fa429439ec0514b0888b9f8a89f8a1c8d38a40e322537da7dcefcb0721c"),
    }
    CANARY = "37bd919b6fbcd8f5ba7a4e7a0f5ba010da017ca112de9974b003a94861a82eb9"

    @pytest.mark.parametrize("m, mean", [
        *(pytest.param(m, 1.0, id=str(m)) for m in sorted(PINNED)),
        *(pytest.param(m, mean, id=f"{m}-mean{mean:g}") for m, mean in PINNED_AWAY),
    ])
    def test_node_sets_are_pinned(self, m, mean):
        model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
        size, groups, want = self.PINNED[m] if mean == 1.0 else self.PINNED_AWAY[m, mean]
        assert model.support_nodes[0].size == size
        assert model._groups.size == groups
        x = np.linspace(-700.0, 700.0, 4097)
        canary = hashlib.sha256()
        for a in (np.exp(x), np.log(np.exp(x)), fading._GL_X, fading._GL_W):
            canary.update(a.tobytes())
        if canary.hexdigest() != self.CANARY:
            pytest.skip("numpy's exp, log or Gauss-Legendre rule gives other bits here")
        got = hashlib.sha256()
        for ln_a in self.LN_LOWER:
            for a in model.log_nodes(ln_a + math.log(mean)):
                got.update(a.tobytes())
        got.update(model._groups.ell.tobytes())
        got.update(model._groups.sums.tobytes())
        assert got.hexdigest() == want

    def test_cached_arrays_are_read_only(self):
        ray = Rayleigh()
        edge = ray._ln_z_top - 8 * _PANEL
        on_edge = ray.log_nodes(edge)
        # a threshold on a lattice edge takes no partial panel
        assert on_edge[0].size == 8 * 16
        for model_arrays in (
            ray.support_nodes,
            ray.log_nodes(-math.inf),
            DISCRETE[1].support_nodes,
        ):
            for a in model_arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    @pytest.mark.parametrize("model", CONTINUOUS, ids=MODEL_IDS[:4])
    def test_expectation_is_continuous_across_an_edge(self, model):
        # P(Z >= a) and E{z ; z >= a} one ulp below, on and one ulp above a
        # grid edge: the 20th from the top, the cut to the wider panels and
        # the edge below it, and the foot of the deepest full panel.  At
        # these depths (a <= 2.6) their true change over two ulp of ln a is
        # at most about one ulp.
        eps = np.finfo(float).eps
        ell = model._groups.ell
        cut = np.count_nonzero(model._grid[0] >= math.log(model.scale)) - 1
        for edge in ell[sorted({19, cut, cut + 1, len(ell) - 2})]:
            probs, means = [], []
            for ln_a in (math.nextafter(edge, -math.inf), edge,
                         math.nextafter(edge, math.inf)):
                u, ln_w = model.log_nodes(ln_a)
                probs.append(np.exp(ln_w).sum())
                means.append(np.exp(ln_w + u).sum())
            for vals in (probs, means):
                assert max(vals) - min(vals) <= 4 * eps * max(vals)

    def test_upper_cutoff_runs_the_quantile_once(self, monkeypatch):
        levels = []
        quantile = fading._ln_gamma_quantile

        def counted(m, p):
            levels.append(p)
            return quantile(m, p)

        monkeypatch.setattr(fading, "_ln_gamma_quantile", counted)
        nak = NakagamiM(2.0)
        cutoff = nak.upper_cutoff()
        nak.log_nodes(-math.inf)
        nak.log_nodes(-3.0)
        spectral_efficiency_csit(1.0, QosConfig(theta=0.1, T=2e-3, B=1e5), nak)
        assert nak.upper_cutoff() == cutoff
        assert levels == [1.0 - 1e-12]


class TestQuadPlumbing:
    def test_sharp_integrand_resolved(self):
        # exp(-c z) with c so large the mass sits in the first 1e-4 of the
        # support; panels in ln z resolve it without hints.
        c = 5e4
        u, ln_w = Rayleigh().log_nodes(-math.inf)
        got = np.exp(ln_w - c * np.exp(u)).sum()
        assert got == pytest.approx(1.0 / (1.0 + c), rel=1e-12)


    def test_upper_cutoff(self):
        ray = Rayleigh()
        assert ray.upper_cutoff() == pytest.approx(ray.quantile(1 - 1e-12))
        tab = BoundedTable(((1.0, 1.0),))
        assert tab.upper_cutoff() == 1.0

    def test_nonintegrable_raises(self):
        ray = Rayleigh()
        with pytest.raises(NonIntegrable):
            ray.expect_above(lambda z: 1.0 / (z - 1.0), 0.0)


EDGE_BETAS = (0.0, 1e-12, 0.3, 288.0, 1e4, 1e6)
# The exponents the threshold solves tilt by: 1/(beta+1) on v = w/z for the
# mean power, -beta/(beta+1) on w for the CSIT rate, -1 on w for xi.
EDGE_EXPONENTS = {
    "v": np.array([1.0 / (b + 1.0) for b in EDGE_BETAS]),
    "w": np.array([-b / (b + 1.0) for b in EDGE_BETAS] + [-1.0]),
}


def direct_edge_sums(u, ln_w, ln_e):
    """The edge sums at ln_e, summed directly over the nodes (u, ln_w) above it."""
    d, w = u - ln_e, np.exp(ln_w)
    v = np.exp(ln_w - u)
    plain = [v.sum(), w.sum(), (v * d).sum(), (v * d * d).sum(), (w * d).sum()]
    tilted = {}
    for weight, om in (("v", v), ("w", w)):
        sd = EDGE_EXPONENTS[weight][:, None] * d
        tilted[weight] = ((om * np.expm1(sd)).sum(1), np.log((om * np.exp(sd)).sum(1)))
    return plain, tilted


class TestEdgeSums:
    """The sums at grid edges and atoms that the threshold solves read,
    against direct sums over the node set at each edge."""

    @pytest.mark.parametrize(
        "model",
        [Rayleigh(), NakagamiM(0.5), NakagamiM(0.6), NakagamiM(2.0), NakagamiM(8.0),
         BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3))),
         Deterministic(1.3)],
        ids=repr,
    )
    def test_sums_match_direct_sums(self, model):
        groups = model._groups
        tilted = {}
        for weight, s in EDGE_EXPONENTS.items():
            for start, t, ln_x in groups.tilted(s, weight, log=True):
                for k in range(t.shape[1]):
                    tilted[weight, start + k] = t[:, k], ln_x[:, k]
        # The top 60 edges, then every 100th down to the 1e-280 floor and
        # the lowest three; a grid's first edge is the limit from below of
        # thresholds that see no nodes.
        n = groups.size
        lowest = groups.first + 1 if groups.panels else 0
        edges = {*range(lowest, min(n, 60)), *range(60, n, 100), *range(max(n - 3, 0), n)}
        for j in sorted(edges):
            plain, direct = direct_edge_sums(*model.log_nodes(groups.ell[j]), groups.ell[j])
            assert groups.sums[:, j] == pytest.approx(plain, rel=1e-13, abs=0)
            for weight, (t, ln_x) in direct.items():
                got_t, got_ln_x = tilted[weight, j]
                assert got_t == pytest.approx(t, rel=1e-13, abs=0)
                assert got_ln_x == pytest.approx(ln_x, rel=1e-13, abs=1e-13)
        assert n == 0 or groups.ell[n - 1] >= math.log(1e-280) or not groups.panels

    @pytest.mark.parametrize("mean", (0.3, 1.0, 7.5))
    @pytest.mark.parametrize("m", (0.5, 0.6, 1.0, 2.0, 4.0, 8.0))
    def test_sums_match_uniform_panels(self, m, mean):
        # At edges from the top down to 1e-278, and at thresholds inside the
        # panels below them, the sums the solves read against direct sums
        # over independent 0.25-wide panels from the threshold up
        model = Rayleigh(mean) if m == 1.0 else NakagamiM(m, mean)
        groups = model._groups
        cut = np.count_nonzero(model._grid[0] >= math.log(model.scale))
        top = math.log(model.upper_cutoff()) + 2.0
        deepest = np.flatnonzero(groups.ell >= math.log(1e-278))[-1]
        edges = np.unique(np.r_[
            groups.first + 1 : groups.first + 5, cut - 2 : cut + 2,
            np.linspace(cut, deepest - 1, 7).astype(int), deepest,
        ])
        tilted = {weight: [[], []] for weight in EDGE_EXPONENTS}
        for weight, s in EDGE_EXPONENTS.items():
            for _, t, ln_x in groups.tilted(s, weight, log=True, depth=deepest + 1):
                tilted[weight][0].append(t)
                tilted[weight][1].append(ln_x)
        tilted = {k: [np.hstack(a)[:, edges] for a in v] for k, v in tilted.items()}
        for i, j in enumerate(edges):
            ln_e = groups.ell[j]
            plain, direct = direct_edge_sums(*gamma_panel_nodes(m, model.scale, ln_e, top), ln_e)
            assert groups.sums[:, j] == pytest.approx(plain, rel=1e-13, abs=0)
            for weight, (t, ln_x) in direct.items():
                assert tilted[weight][0][:, i] == pytest.approx(t, rel=1e-13, abs=0)
                assert tilted[weight][1][:, i] == pytest.approx(ln_x, rel=1e-13, abs=1e-13)
        # one threshold 0.3 of the way up each panel below those edges
        e = edges[edges < deepest]
        x = groups.ell[e + 1] + 0.3 * (groups.ell[e] - groups.ell[e + 1])
        roots = _Roots(model, x, groups.ell[e] - x, e, np.ones(len(e), dtype=bool))
        got = [roots.inverse(), roots.log_moment(), roots.log_moment2(), roots.log_gain()]
        m_e = tilted["v"][0][:, edges < deepest]
        for k, s in enumerate(EDGE_EXPONENTS["v"]):
            got.append(roots.mean_power(np.full(len(e), s), m_e[k]))
        for k, ln_a in enumerate(x):
            u, ln_w = gamma_panel_nodes(m, model.scale, ln_a, top)
            (i_a, _, l1, h, wd), direct = direct_edge_sums(u, ln_w, ln_a)
            want = [i_a, l1, h, wd, *direct["v"][0]]
            assert [g[k] for g in got] == pytest.approx(want, rel=1e-13, abs=0)
