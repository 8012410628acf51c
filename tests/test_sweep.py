"""Tradeoff-curve, surface, and threshold-curve dataset generation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import solve_alpha_ln, wideband_csir_rayleigh_closed_form
from qos_energy import (
    AlphaZetaCurve,
    BoundedTable,
    Curve,
    Deterministic,
    NakagamiM,
    NumericalError,
    Rayleigh,
    Surface,
    SweepSpec,
    TradeoffPoint,
    alpha_vs_zeta,
    default_grid,
    ebn0_min_surface,
    lowpower_csir,
    shannon_limit,
    solve_alpha_star,
    tradeoff_curve,
    wideband_csit,
)
from qos_energy import asymptotics, effcap
from qos_energy import sweep as sweep_mod
from qos_energy.effcap import LN2, QosConfig
from test_effcap import gamma_moment_csit_se

RAY = Rayleigh()
T = 2e-3
PN0 = 1e4


class TestDefaultGrid:
    def test_endpoints(self):
        lp = default_grid("lowpower")
        wb = default_grid("wideband")
        assert len(lp) == len(wb) == 60
        assert lp[0] == pytest.approx(1e-5, rel=1e-12)
        assert lp[-1] == pytest.approx(10.0, rel=1e-12)
        assert wb[0] == pytest.approx(1e-9, rel=1e-12)
        assert wb[-1] == pytest.approx(1e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid("lowpower", n=1)
        with pytest.raises(ValueError):
            default_grid("narrowband")


class TestSweepSpec:
    def test_defaults_and_coercion(self):
        spec = SweepSpec(
            model=RAY, mode="csir", regime="lowpower", theta_list=[0, 0.1], T=T, B=1e5
        )
        assert spec.theta_list == (0.0, 0.1)
        assert len(spec.grid) == 60
        assert all(isinstance(g, float) for g in spec.grid)

    def test_validation(self):
        good = dict(model=RAY, mode="csir", regime="lowpower", theta_list=(0.1,), T=T)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "mode": "blind"}, B=1e5)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "regime": "narrowband"}, B=1e5)
        with pytest.raises(ValueError):
            SweepSpec(**good)  # lowpower without B
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "regime": "wideband"})  # wideband without pbar
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "theta_list": ()}, B=1e5)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "theta_list": (-0.1,)}, B=1e5)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "T": 0.0}, B=1e5)
        with pytest.raises(ValueError):
            SweepSpec(**good, B=1e5, grid=(1e-3, 1e-3))
        with pytest.raises(ValueError):
            SweepSpec(**good, B=1e5, grid=(0.0, 1e-3))
        with pytest.raises(ValueError, match="grid must not be empty"):
            SweepSpec(**good, B=1e5, grid=())


class TestTradeoffCurve:
    def test_thresholds_above_the_nodes_are_noted_gaps(self):
        # the first two powers put the threshold above the top of the
        # Rayleigh nodes; they were written as gaps with no message
        spec = SweepSpec(model=RAY, mode="csit", regime="lowpower", theta_list=(0.1,),
                         T=T, B=1e5, grid=(1e-60, 1e-40, 1e-20))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (curve,) = tradeoff_curve(spec)
        texts = [str(w.message) for w in caught]
        assert len(texts) == 2
        assert all("is not resolved" in t for t in texts)
        assert curve.points[:2] == (TradeoffPoint(None, None),) * 2
        assert curve.points[2].spectral_efficiency > 0
        assert curve.failures == 2

    def test_lowpower_csir_approaches_floor(self):
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="lowpower",
            theta_list=(0.01,),
            T=T,
            B=1e5,
            grid=(1e-5, 1e-4, 1e-3),
        )
        (curve,) = tradeoff_curve(spec)
        assert curve.failures == 0
        assert curve.asymptote == lowpower_csir(RAY, 0.01 * T * 1e5 / LN2)
        first = curve.points[0]
        assert abs(first.ebn0_db - curve.asymptote.ebn0_min_db) < 0.05

    def test_wideband_csit_approaches_floor(self):
        spec = SweepSpec(
            model=RAY,
            mode="csit",
            regime="wideband",
            theta_list=(0.1,),
            T=T,
            pbar_over_n0=PN0,
            grid=(1e-9, 1e-8, 1e-7),
        )
        (curve,) = tradeoff_curve(spec)
        assert curve.failures == 0
        assert abs(curve.points[0].ebn0_db - curve.asymptote.ebn0_min_db) < 0.1

    def test_points_never_cross_the_floor(self):
        spec = SweepSpec(
            model=Deterministic(1.0),
            mode="csir",
            regime="lowpower",
            theta_list=(0.0, 0.05),
            T=T,
            B=1e5,
            grid=(1e-4, 1e-2, 1.0),
        )
        floor_db = 10.0 * math.log10(LN2)
        for curve in tradeoff_curve(spec):
            for pt in curve.points:
                assert pt.ebn0_db >= floor_db - 1e-9

    def test_stricter_qos_costs_energy_pointwise(self):
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="lowpower",
            theta_list=(0.001, 0.1, 1.0),
            T=T,
            B=1e5,
            grid=(1e-3, 1e-1),
        )
        curves = tradeoff_curve(spec)
        for i in range(len(spec.grid)):
            ses = [c.points[i].spectral_efficiency for c in curves]
            ebs = [c.points[i].ebn0_db for c in curves]
            assert ses[0] > ses[1] > ses[2]
            assert ebs[0] < ebs[1] < ebs[2]

    def test_theta_zero_uses_shannon_limit(self):
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="lowpower",
            theta_list=(0.0,),
            T=T,
            B=1e5,
            grid=(0.5,),
        )
        (curve,) = tradeoff_curve(spec)
        qos = QosConfig(theta=0.0, T=T, B=1e5)
        want = shannon_limit(0.5, "csir", qos, RAY)
        assert curve.points[0].spectral_efficiency == pytest.approx(want, rel=1e-12)

    def test_gap_markers_do_not_abort(self, monkeypatch):
        real = sweep_mod._csir_rows

        def flaky(snr, theta, T, B, model):
            rows = real(snr, theta, T, B, model)
            return [NumericalError("synthetic failure") if x == 1e-4 else 0.0 if x == 1e-3
                    else row for x, row in zip(snr.tolist(), rows)]

        monkeypatch.setattr(sweep_mod, "_csir_rows", flaky)
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="lowpower",
            theta_list=(0.01,),
            T=T,
            B=1e5,
            grid=(1e-5, 1e-4, 1e-3, 1e-2),
        )
        with pytest.warns(UserWarning, match="synthetic failure"):
            (curve,) = tradeoff_curve(spec)
        assert curve.failures == 2
        assert curve.points[1] == TradeoffPoint(None, None)
        assert curve.points[2] == TradeoffPoint(None, None)
        assert curve.points[0].spectral_efficiency > 0
        assert curve.points[3].spectral_efficiency > 0

    def test_asymptote_failure_is_a_gap(self, monkeypatch):
        def broken(model, mode, regime, thetas, *args):
            return [NumericalError("no asymptote today") for _ in thetas]

        monkeypatch.setattr(sweep_mod, "_asymptotes", broken)
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="lowpower",
            theta_list=(0.01,),
            T=T,
            B=1e5,
            grid=(1e-3,),
        )
        with pytest.warns(UserWarning, match="no asymptote"):
            (curve,) = tradeoff_curve(spec)
        assert curve.asymptote is None
        assert curve.failures == 1

    def test_underflowing_csit_point_matches_gamma_moment(self):
        spec = SweepSpec(
            model=NakagamiM(m=2.42, mean=1.0),
            mode="csit",
            regime="lowpower",
            theta_list=(4.15,),
            T=T,
            B=9e7,
            grid=(1e-3, 3.08),
        )
        (curve,) = tradeoff_curve(spec)
        assert curve.failures == 0
        assert curve.points[0].spectral_efficiency > 0
        assert curve.points[1].spectral_efficiency == pytest.approx(
            gamma_moment_csit_se(3.08, 4.15, T, 9e7, 2.42), rel=1e-12
        )

    def test_failing_csit_point_is_a_gap(self, monkeypatch):
        real = sweep_mod._csit_rows

        def flaky(snr, *args):
            rows = real(snr, *args)
            return [NumericalError("synthetic CSIT failure") if x == 3.08 else row
                    for x, row in zip(snr, rows)]

        monkeypatch.setattr(sweep_mod, "_csit_rows", flaky)
        spec = SweepSpec(
            model=NakagamiM(m=2.0, mean=1.0),
            mode="csit",
            regime="lowpower",
            theta_list=(0.05,),
            T=T,
            B=1e5,
            grid=(1e-3, 3.08),
        )
        with pytest.warns(UserWarning, match="synthetic CSIT failure"):
            (curve,) = tradeoff_curve(spec)
        assert curve.failures == 1
        assert curve.points[0].spectral_efficiency > 0
        assert curve.points[1] == TradeoffPoint(None, None)

    def test_overflowing_csit_slope_is_a_gap(self):
        # the zero atom pins xi near 0.1 while alpha* falls to exp(-2432)
        table = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
        spec = SweepSpec(
            model=table,
            mode="csit",
            regime="wideband",
            theta_list=(1.0,),
            T=T,
            pbar_over_n0=1e6,
            grid=(1e-8,),
        )
        with pytest.warns(UserWarning, match="slope overflows"):
            (curve,) = tradeoff_curve(spec)
        assert curve.asymptote is None
        assert curve.failures == 1
        assert curve.points[0].spectral_efficiency > 0

    def test_reruns_are_identical(self):
        spec = SweepSpec(
            model=NakagamiM(m=2.0, mean=1.0),
            mode="csit",
            regime="wideband",
            theta_list=(0.0, 0.1),
            T=T,
            pbar_over_n0=PN0,
            grid=(1e-8, 1e-6, 1e-4),
        )
        assert tradeoff_curve(spec) == tradeoff_curve(spec)


class TestRateMonotoneCheck:
    def test_violation_names_the_grid_points(self):
        pts = [TradeoffPoint(0.0, 1.0), TradeoffPoint(0.0, 20.0)]
        with pytest.raises(NumericalError, match="zeta=1e-08"):
            sweep_mod._check_rate_monotone(0.1, (1e-9, 1e-8), pts)

    def test_gaps_are_skipped(self):
        pts = [
            TradeoffPoint(0.0, 1.0),
            TradeoffPoint(None, None),
            TradeoffPoint(0.0, 5.0),
        ]
        # 5.0/1e-7 < 1.0/1e-9, so the surviving pair is monotone
        sweep_mod._check_rate_monotone(0.1, (1e-9, 1e-8, 1e-7), pts)


class TestSurface:
    def test_csir_cells_match_closed_form(self):
        surf = ebn0_min_surface("csir", RAY, (0.01, 0.1), (1e3, 1e4), T)
        assert isinstance(surf, Surface)
        assert surf.failures == 0
        for i, theta in enumerate(surf.theta_grid):
            for j, pn0 in enumerate(surf.pbar_grid):
                want = wideband_csir_rayleigh_closed_form(theta, T, pn0).ebn0_min_db
                assert surf.ebn0_min_db[i][j] == pytest.approx(want, abs=1e-9)

    def test_monotone_in_theta_and_power(self):
        surf = ebn0_min_surface("csir", RAY, (0.01, 0.1, 1.0), (1e3, 1e4, 1e5), T)
        cells = surf.ebn0_min_db
        for j in range(3):
            assert cells[0][j] < cells[1][j] < cells[2][j]
        for i in range(3):
            assert cells[i][0] < cells[i][1] < cells[i][2]

    def test_csir_cells_need_no_slope(self):
        # At theta 1, Pbar/N0 1e6 exp(-c z) underflows on every positive
        # atom: E{exp(-c z)} is the zero gain's 0.1, and the slope's
        # E{z^2 exp(-c z)} is 0, but the floor is finite.
        surf = ebn0_min_surface(
            "csir", TABLE, np.logspace(-3.0, 0.0, 20), np.logspace(2.0, 6.0, 20), T
        )
        assert surf.failures == 0
        c = T * 1e6 / LN2
        mean = sum(p * math.exp(-c * z) for z, p in zip(TABLE.zs, TABLE.ps))
        want = 10.0 * math.log10(-T * 1e6 / math.log(mean))
        assert surf.ebn0_min_db[-1][-1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "model",
        [
            Deterministic(1.3),
            BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3))),
        ],
        ids=repr,
    )
    def test_csit_cells_need_no_slope(self, model):
        # At theta 1e-165 and 1e-200 the slope's H = E{ln^2(z/alpha*)/z}
        # underflows to 0, so solve_alpha_star refuses, but alpha* and ln xi
        # resolve, and the floor is ln 2 / z_top
        surf = ebn0_min_surface("csit", model, (1e-165, 1e-200), (1e4,), T)
        assert surf.failures == 0
        want = 10.0 * math.log10(LN2 / model.z_max)
        cells = [cell for (cell,) in surf.ebn0_min_db]
        assert cells == pytest.approx([want] * 2, rel=1e-12)
        for theta in (1e-165, 1e-200):
            with pytest.raises(NumericalError, match="curvature H = 0"):
                solve_alpha_star(model, theta, T, 1e4)

    def test_csit_floor_below_csir_floor(self):
        csir = ebn0_min_surface("csir", RAY, (1.0,), (1e4,), T)
        csit = ebn0_min_surface("csit", RAY, (1.0,), (1e4,), T)
        assert csit.ebn0_min_db[0][0] < csir.ebn0_min_db[0][0]

    def test_csit_cell_matches_full_summary(self):
        surf = ebn0_min_surface("csit", RAY, (0.1,), (1e4,), T)
        assert surf.ebn0_min_db[0][0] == wideband_csit(RAY, 0.1, T, 1e4).ebn0_min_db

    def test_csit_theta_zero_unbounded_is_minus_inf(self):
        surf = ebn0_min_surface("csit", RAY, (0.0,), (1e3, 1e4), T)
        assert surf.ebn0_min_db[0] == (-math.inf, -math.inf)

    def test_failed_cell_is_none(self, monkeypatch):
        def broken(model, c):
            raise NumericalError("cell broke")

        monkeypatch.setattr(asymptotics, "_laplace", broken)
        with pytest.warns(UserWarning, match="cell broke"):
            surf = ebn0_min_surface("csir", RAY, (0.1,), (1e3, 1e4), T)
        assert surf.ebn0_min_db == ((None, None),)
        assert surf.failures == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ebn0_min_surface("blind", RAY, (0.1,), (1e4,), T)

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    @pytest.mark.parametrize(
        "thetas, pbars, t",
        [((-0.1,), (1e3,), T), ((math.nan,), (1e3,), T), ((0.1,), (-1e3,), T),
         ((0.1,), (math.nan,), T), ((0.1,), (1e3,), -T), ((0.1,), (1e3,), math.nan)],
        ids=["theta<0", "theta=nan", "pbar<0", "pbar=nan", "T<0", "T=nan"],
    )
    def test_arguments_outside_the_domain_raise(self, mode, thetas, pbars, t):
        # the CSIR surface wrote -2.31 dB for a negative theta, Pbar/N0 or T
        # and a NaN cell for theta = NaN
        with pytest.raises(ValueError, match="must be"):
            ebn0_min_surface(mode, RAY, thetas, pbars, t)


class TestAlphaVsZeta:
    def test_terminus_matches_alpha_star(self):
        (curve,) = alpha_vs_zeta(RAY, (0.1,), T, PN0, zeta_grid=(1e-9, 1e-7, 1e-5))
        star = solve_alpha_star(RAY, 0.1, T, PN0).alpha_star
        assert curve.star.alpha_star == pytest.approx(star, rel=1e-12)
        assert curve.alphas[0] == pytest.approx(star, rel=1e-4)

    def test_thresholds_drop_with_theta_pointwise(self):
        curves = alpha_vs_zeta(
            RAY, (0.01, 0.1, 1.0), T, PN0, zeta_grid=(1e-8, 1e-6, 1e-4)
        )
        for j in range(3):
            col = [c.alphas[j] for c in curves]
            assert col[0] > col[1] > col[2]

    def test_deterministic_closed_form(self):
        # alpha(zeta) = (1 + pbar_over_n0 * zeta)^(-(beta+1)) for unit gain
        zetas = (1e-8, 1e-6, 1e-4)
        (curve,) = alpha_vs_zeta(Deterministic(1.0), (0.05,), T, PN0, zeta_grid=zetas)
        for zeta, alpha in zip(curve.zetas, curve.alphas):
            beta = 0.05 * T / (zeta * LN2)
            want = (1.0 + PN0 * zeta) ** (-(beta + 1.0))
            assert alpha == pytest.approx(want, rel=1e-10)

    def test_theta_zero_waterfills_toward_z_max(self):
        (curve,) = alpha_vs_zeta(RAY, (0.0,), T, PN0, zeta_grid=(1e-8, 1e-6))
        assert curve.star.alpha_star == math.inf
        assert all(a > 0 and math.isfinite(a) for a in curve.alphas)

    def test_reruns_are_identical(self):
        args = (RAY, (0.0, 0.1), T, PN0)
        a = alpha_vs_zeta(*args, zeta_grid=(1e-8, 1e-5))
        b = alpha_vs_zeta(*args, zeta_grid=(1e-8, 1e-5))
        assert a == b

    def test_a_failed_limit_is_a_warned_none(self):
        # alpha* at theta = 1e4 lies below the Rayleigh node floor; it ended
        # the call, and with it the other thetas
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ok, failed = alpha_vs_zeta(RAY, (0.1, 1e4), T, PN0, zeta_grid=(1e-8,))
        threshold, star = (str(w.message) for w in caught)
        assert threshold.startswith("threshold failed at theta=10000, zeta=1e-08: ")
        assert star.startswith("alpha* failed for theta=10000: ")
        assert ok.star.alpha_star == solve_alpha_star(RAY, 0.1, T, PN0).alpha_star
        assert failed.star is None

    def test_a_beta_past_the_doubles_is_refused_before_the_solve(self, monkeypatch):
        # the theta*T*B = inf row was solved anyway, and refused as "no root
        # in the double range"; it keeps _qos_rows' refusal, as the CSIT
        # sweep does, and stays out of the threshold batch
        snrs = []
        real = effcap._power_rows

        def recording(snr, beta, law):
            snrs.extend(snr.tolist())
            return real(snr, beta, law)

        monkeypatch.setattr(effcap, "_power_rows", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha_vs_zeta(RAY, [1e306], 2e-3, 1e4, [1e-9, 1e-3])
        assert str(caught[0].message) == (
            "threshold failed at theta=1e+306, zeta=1e-09: theta*T*B = inf leaves the "
            "normal doubles (theta=1e+306, T=0.002, B=1e+09)")
        assert snrs == [1e4 * 1e-3]

    def test_a_subnormal_theta_t_b_water_fills(self):
        # theta*T*B = 2e-315 is refused by the rates, but the threshold is
        # solve_alpha's
        with pytest.warns(UserWarning, match="alpha\\* failed"):
            (curve,) = alpha_vs_zeta(RAY, [1e-320], T, PN0, [1e-8])
        want = effcap.solve_alpha(PN0 * 1e-8, QosConfig(1e-320, T, 1.0 / 1e-8), RAY).alpha
        assert curve.alphas == (want,)

    def test_a_failed_threshold_batch_leaves_every_threshold_a_gap(self, monkeypatch):
        def broken(*args):
            raise NumericalError("synthetic batch failure")

        monkeypatch.setattr(effcap, "_power_rows", broken)
        with pytest.warns(UserWarning, match="synthetic batch failure"):
            (curve,) = alpha_vs_zeta(RAY, (0.1,), T, PN0, zeta_grid=(1e-8, 1e-5))
        assert curve.alphas == (None, None)
        assert curve.star is not None


CLI_THETAS = (0.0, 0.001, 0.01, 0.1, 1.0)
TABLE = BoundedTable(((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3)))
SURFACE_THETAS = tuple(np.logspace(-3.0, 0.0, 20))
SURFACE_PBARS = tuple(np.logspace(2.0, 6.0, 20))


def csit_spec(model, regime, thetas=CLI_THETAS, grid=None) -> SweepSpec:
    """The CLI's default CSIT sweep of model in regime."""
    return SweepSpec(
        model=model,
        mode="csit",
        regime=regime,
        theta_list=thetas,
        T=T,
        B=1e5,
        pbar_over_n0=PN0,
        grid=grid,
    )


def record_batches(monkeypatch, name, module=sweep_mod) -> list:
    """Record (args, out) of every call of the batch module.<name>."""
    real = getattr(module, name)
    calls = []

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


def same_row(row, alone) -> bool:
    """A batch row against a one-row solve: equal bits, or the same error."""
    if isinstance(row, NumericalError):
        return type(row) is type(alone) and str(row) == str(alone)
    return row == alone


class TestWarmStarts:
    """Batched grid lines, all thetas of a call in one batch, against solves
    of each point alone: every root, rate and alpha* has the same bits."""

    @pytest.mark.parametrize(
        "model", [RAY, NakagamiM(m=0.6), NakagamiM(m=2.0), TABLE], ids=repr
    )
    @pytest.mark.parametrize("regime", ["lowpower", "wideband"])
    def test_tradeoff_roots_match_cold_solves(self, monkeypatch, model, regime):
        calls = record_batches(monkeypatch, "_csit_rows")
        curves = tradeoff_curve(csit_spec(model, regime))
        assert sum(c.failures for c in curves) == 0
        [((snr, theta, t, bands, m), rows)] = calls
        assert len(rows) == 60 * len(CLI_THETAS)
        assert sorted(set(theta)) == sorted(CLI_THETAS)
        for i, row in enumerate(rows):
            (alone,) = effcap._csit_rows(snr[i : i + 1], theta[i], t, bands[i : i + 1], m)
            assert same_row(row, alone)

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=2.0), TABLE], ids=repr)
    def test_alpha_vs_zeta_roots_match_cold_solves(self, monkeypatch, model):
        calls = record_batches(monkeypatch, "_power_rows", effcap)
        alpha_vs_zeta(model, CLI_THETAS, T, PN0)
        [((snr, beta, m), (roots, errors))] = calls
        n = 60 * len(CLI_THETAS)
        assert errors == [None] * n
        for i in range(n):
            assert roots.x[i] == solve_alpha_ln(snr[i], beta[i], m)

    def test_alpha_vs_zeta_is_the_wideband_sweeps_threshold(self):
        # at the alpha-star command's defaults, each alpha(zeta) is exp of
        # the ln alpha that the wideband CSIT line solves at that zeta
        zetas = default_grid("wideband")
        for curve in alpha_vs_zeta(RAY, CLI_THETAS, T, PN0, zetas):
            rows = effcap._csit_rows(PN0 * zetas, curve.theta, T, 1.0 / zetas, RAY)
            assert list(curve.alphas) == [math.exp(ln_a) for _, ln_a in rows]

    @pytest.mark.parametrize("model", [RAY, NakagamiM(m=2.0)], ids=repr)
    def test_csit_surface_roots_match_cold_solves(self, monkeypatch, model):
        # the surface reads the floor half of the alpha* rows: (ln alpha*,
        # ln k, I, H, ln xi) per row, each with the bits of a one-row solve
        calls = record_batches(monkeypatch, "_alpha_star_roots", asymptotics)
        surf = ebn0_min_surface("csit", model, SURFACE_THETAS, SURFACE_PBARS, T)
        assert surf.failures == 0
        [((m, thetas, t, pbars), rows)] = calls
        assert len(rows) == 400
        for theta, pbar, row in zip(thetas, pbars, rows):
            sol = solve_alpha_star(m, theta, t, pbar)
            assert row[0] == sol.ln_alpha_star
            assert row[3:] == (sol.log_moment2, sol.ln_xi)
            assert row == asymptotics._alpha_star_roots(m, [theta], t, [pbar])[0]

    def test_a_gap_leaves_its_neighbours_alone(self):
        # rows 1 and 3 leave the normal doubles (theta*T*B) or have no root
        # in them (beta = 1e306); the other rows are the one-row solves
        snr = np.array([0.5, 1.0, 2.0, 1e308, 4.0])
        bands = np.array([1e5, 1e-310, 1e5, 1e5, 1e5])
        rows = effcap._csit_rows(snr, 0.1, T, bands, RAY)
        assert isinstance(rows[1], NumericalError)
        for i in (0, 2, 4):
            (alone,) = effcap._csit_rows(snr[i : i + 1], 0.1, T, bands[i : i + 1], RAY)
            assert rows[i] == alone
        beta = np.array([0.3, 0.3, 1e306, 0.3])
        roots, errors = effcap._power_rows(snr[[0, 2, 3, 4]], beta, RAY)
        assert [e is None for e in errors] == [True, True, False, True]
        for i, k in ((0, 0), (1, 2), (3, 4)):
            assert roots.x[i] == solve_alpha_ln(snr[k], beta[i], RAY)


class TestOneBatchPerCall:
    """A CSIT sweep, and alpha_vs_zeta, solve the thresholds of every theta
    at every grid point as one _power_rows batch, at bounded memory."""

    def count_power_rows(self, monkeypatch) -> list:
        calls = []
        real = effcap._power_rows

        def counting(snr, beta, model):
            calls.append(len(snr))
            return real(snr, beta, model)

        monkeypatch.setattr(effcap, "_power_rows", counting)
        return calls

    @pytest.mark.parametrize("regime", ["lowpower", "wideband"])
    def test_tradeoff_curve_is_one_power_batch(self, monkeypatch, regime):
        calls = self.count_power_rows(monkeypatch)
        tradeoff_curve(csit_spec(RAY, regime))
        assert calls == [60 * len(CLI_THETAS)]

    def test_alpha_vs_zeta_is_one_power_batch(self, monkeypatch):
        calls = self.count_power_rows(monkeypatch)
        alpha_vs_zeta(RAY, CLI_THETAS, T, PN0)
        assert calls == [60 * len(CLI_THETAS)]

    # Peak traced allocation of a warm call, in KiB, bounded by 1.25 times
    # what the same call took when each grid line was its own batch.
    @pytest.mark.parametrize(
        "model, call, kib",
        [
            (NakagamiM(m=2.0), lambda m: tradeoff_curve(csit_spec(m, "lowpower")), 468),
            (Rayleigh(), lambda m: tradeoff_curve(csit_spec(m, "wideband")), 692),
            (Rayleigh(), lambda m: alpha_vs_zeta(m, CLI_THETAS, T, PN0), 514),
        ],
        ids=["nakagami2-lowpower", "rayleigh-wideband", "alpha-vs-zeta"],
    )
    def test_peak_memory(self, model, call, kib):
        call(model)
        tracemalloc.start()
        try:
            call(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * kib * 1024


# Grid points made to fail in the gap tests.
FAILING = (5, 9, 13, 17)


def failing_rows(real, bad, failure="raise"):
    """real with the rows of the grid indices in bad made to fail."""

    def flaky(*args):
        rows = real(*args)
        if isinstance(rows, tuple):  # _power_rows: (roots, errors)
            return rows[0], [NumericalError("synthetic failure") if k in bad else e
                             for k, e in enumerate(rows[1])]
        if failure == "zero rate":
            return [(0.0, row[1]) if k in bad else row for k, row in enumerate(rows)]
        return [NumericalError("synthetic failure") if k in bad else row
                for k, row in enumerate(rows)]

    return flaky


class TestColdRestartAfterGap:
    """A gap in a batched line leaves the point after it as a line that
    starts there gives it."""

    @pytest.mark.parametrize("failure", ["raise", "zero rate"])
    def test_tradeoff_point_after_a_gap(self, monkeypatch, failure):
        spec = csit_spec(NakagamiM(m=2.0), "lowpower", thetas=(0.1,))
        monkeypatch.setattr(
            sweep_mod, "_csit_rows", failing_rows(sweep_mod._csit_rows, FAILING, failure)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (curve,) = tradeoff_curve(spec)
        monkeypatch.undo()
        for k in FAILING:
            (fresh,) = tradeoff_curve(
                csit_spec(spec.model, "lowpower", (0.1,), spec.grid[k + 1 :])
            )
            assert curve.points[k] == TradeoffPoint(None, None)
            assert curve.points[k + 1] == fresh.points[0]

    def test_alpha_vs_zeta_point_after_a_gap(self, monkeypatch):
        zetas = default_grid("wideband")
        monkeypatch.setattr(
            effcap, "_power_rows", failing_rows(effcap._power_rows, FAILING)
        )
        with pytest.warns(UserWarning, match="synthetic failure"):
            (curve,) = alpha_vs_zeta(RAY, (0.1,), T, PN0, zeta_grid=zetas)
        monkeypatch.undo()
        for k in FAILING:
            (fresh,) = alpha_vs_zeta(RAY, (0.1,), T, PN0, zeta_grid=zetas[k + 1 :])
            assert curve.alphas[k] is None
            assert curve.alphas[k + 1] == fresh.alphas[0]

    def test_surface_cell_after_a_gap(self, monkeypatch):
        pbars = SURFACE_PBARS
        thetas = (0.01, 0.1, 1.0)
        # the surface solves its cells row by row, theta outer
        bad = {i * len(pbars) + k for i in range(3) for k in FAILING}
        monkeypatch.setattr(
            asymptotics, "_alpha_star_roots",
            failing_rows(asymptotics._alpha_star_roots, bad),
        )
        with pytest.warns(UserWarning, match="synthetic failure"):
            surf = ebn0_min_surface("csit", RAY, thetas, pbars, T)
        monkeypatch.undo()
        for k in FAILING:
            fresh = ebn0_min_surface("csit", RAY, thetas, pbars[k + 1 :], T)
            for row, fresh_row in zip(surf.ebn0_min_db, fresh.ebn0_min_db):
                assert row[k] is None
                assert row[k + 1] == fresh_row[0]


class TestWeakQosGrids:
    # theta = 1e-20 used to end each of these calls with ZeroDivisionError.
    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_surface_with_a_weak_qos_row_finishes(self, mode):
        surf = ebn0_min_surface(mode, RAY, (1e-20, 0.1), SURFACE_PBARS, T)
        for row in surf.ebn0_min_db:
            assert all(v is None or math.isfinite(v) for v in row)
        assert surf.failures == sum(row.count(None) for row in surf.ebn0_min_db)

    def test_csir_wideband_curve_with_a_weak_qos_theta_finishes(self):
        spec = SweepSpec(
            model=RAY,
            mode="csir",
            regime="wideband",
            theta_list=(1e-20, 0.1),
            T=T,
            pbar_over_n0=PN0,
        )
        weak, _ = tradeoff_curve(spec)
        assert weak.asymptote.ebn0_min_linear == pytest.approx(LN2, rel=1e-12)
        for pt in weak.points:
            assert pt.spectral_efficiency is None or math.isfinite(pt.ebn0_db)
