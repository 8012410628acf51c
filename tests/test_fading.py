"""Fading model distributions, expectations, and config parsing."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc, gammaincc, gammaincinv, logsumexp

from qos_energy import (
    BoundedTable,
    Deterministic,
    NakagamiM,
    NonIntegrable,
    QosConfig,
    Rayleigh,
    from_config,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
)
from qos_energy.fading import _logsumexp

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
    m = getattr(model, "m", 1.0)
    return m, model.mean / m


def atom_sum(model, g, a=0.0):
    zs, ps = model.atoms
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
        assert ray.atoms is None

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


class TestNakagami:
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
        assert from_config({"kind": "rayleigh", "mean": 2.0}) == Rayleigh(mean=2.0)
        assert from_config({"kind": "nakagami", "m": 2, "mean": 1.0}) == NakagamiM(
            m=2, mean=1.0
        )
        assert from_config({"kind": "deterministic", "z0": 1.5}) == Deterministic(
            z0=1.5
        )
        tab = from_config({"kind": "table", "points": [[1.0, 0.4], [2.0, 0.6]]})
        assert tab == BoundedTable(((1.0, 0.4), (2.0, 0.6)))

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
            if model.atoms is None:
                m, theta = shape_scale(model)
                want_ln_l = -m * math.log1p(theta * s)
                want_ratio = m * (m + 1.0) * theta**2 / (1.0 + theta * s) ** 2
            else:
                zs, ps = model.atoms
                want_ln_l = logsumexp(np.log(ps[ps > 0]) - s * zs[ps > 0])
                want_ratio = atom_sum(
                    model, lambda z: z * z * math.exp(-s * z - want_ln_l)
                )
            # absolute error in ln L is the relative error in L
            assert ln_l - want_ln_l == pytest.approx(0.0, abs=1e-12)
            assert ratio == pytest.approx(want_ratio, rel=1e-12)

    @pytest.mark.parametrize("model", CONTINUOUS + DISCRETE, ids=MODEL_IDS)
    def test_threshold_moment_closed_form(self, model):
        # E{(a/z)^p ; z >= a}: the CSIT rate term and the 1/z weight
        for ln_a in self.LN_A_VALUES:
            a = math.exp(ln_a)
            u, ln_w = model.log_nodes(ln_a)
            for p in (0.1, 0.45, 0.9):
                got = np.exp(ln_w - p * (u - ln_a)).sum()
                if model.atoms is None:
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
