"""Queue simulation, tail fitting, and empirical effective capacity."""

import errno
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from oracles import effective_capacity_from_rates
from qos_energy import (
    Deterministic,
    InsufficientSamples,
    QosConfig,
    Rayleigh,
    SimConfig,
    TailEstimate,
    ThetaZero,
    Unstable,
    effective_capacity_empirical,
    predicted_effective_capacity,
    simulate_queue,
)
from qos_energy import queuesim as qs_mod
from qos_energy.effcap import (
    service_rate_csir,
    service_rate_csit,
    shannon_limit,
    solve_alpha,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
)

RAY = Rayleigh()
QOS = QosConfig(theta=0.05, T=2e-3, B=1e5)
SNR = 1.0


class TestSimConfig:
    def test_warmup_defaults_to_one_percent(self):
        cfg = SimConfig(
            model=RAY, snr=1.0, qos=QOS, mode="csir", arrival_rate=1e4,
            frames=30000, seed=1, q_thresholds=(10.0,),
        )
        assert cfg.warmup_frames == 300
        assert cfg.q_thresholds == (10.0,)

    def test_validation(self):
        good = dict(
            model=RAY, snr=1.0, qos=QOS, mode="csir", arrival_rate=1e4,
            frames=1000, seed=1, q_thresholds=(10.0, 20.0),
        )
        with pytest.raises(ValueError):
            SimConfig(**{**good, "mode": "blind"})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "snr": 0.0})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "arrival_rate": 0.0})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "frames": 0})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "warmup_frames": 1000})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "warmup_frames": -1})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "q_thresholds": ()})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "q_thresholds": (20.0, 10.0)})
        with pytest.raises(ValueError):
            SimConfig(**{**good, "q_thresholds": (0.0, 10.0)})


def _scalar_reference(cfg, chunk):
    """Re-run the simulation with a plain Python Lindley loop.

    Uses the same seed and the same chunked sampling pattern, so the random
    stream matches the vectorized implementation draw for draw.
    """
    policy = None
    if cfg.mode == "csit":
        policy = solve_alpha(cfg.snr, cfg.qos, cfg.model)
    rng = np.random.default_rng(cfg.seed)
    counts = [0] * len(cfg.q_thresholds)
    q = 0.0
    done = 0
    while done < cfg.frames:
        n = min(chunk, cfg.frames - done)
        z = cfg.model.sample(rng, n)
        if cfg.mode == "csir":
            rates = service_rate_csir(cfg.snr, z, cfg.qos)
        else:
            rates = service_rate_csit(policy, z, cfg.qos)
        x = cfg.arrival_rate * cfg.qos.T - rates * cfg.qos.T
        for j in range(n):
            q = max(q + float(x[j]), 0.0)
            if done + j >= cfg.warmup_frames:
                for i, thr in enumerate(cfg.q_thresholds):
                    if q > thr:
                        counts[i] += 1
        done += n
    return counts


class TestLindleyRecursion:
    @pytest.mark.parametrize("mode,thresholds", [
        ("csir", (20.0, 40.0, 60.0)),
        ("csit", (20.0, 40.0, 60.0)),
    ])
    def test_blocked_recursion_matches_scalar_loop(self, monkeypatch, mode, thresholds):
        # odd chunk size so block boundaries land mid-stream
        self._match_scalar_loop(monkeypatch, mode, thresholds, 257, 30000)

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_blocked_recursion_matches_scalar_loop_at_module_chunk(self, monkeypatch, mode):
        # the module's own chunk size, over four chunks, the last one partial
        self._match_scalar_loop(monkeypatch, mode, (20.0, 40.0, 60.0), 1 << 16, 200_000)

    @staticmethod
    def _match_scalar_loop(monkeypatch, mode, thresholds, chunk, frames):
        monkeypatch.setattr(qs_mod, "_CHUNK", chunk)
        arrival = predicted_effective_capacity(RAY, SNR, QOS, mode)
        cfg = SimConfig(
            model=RAY, snr=SNR, qos=QOS, mode=mode, arrival_rate=arrival,
            frames=frames, seed=5, q_thresholds=thresholds,
        )
        est = simulate_queue(cfg)
        counts = _scalar_reference(cfg, chunk)
        n_post = cfg.frames - cfg.warmup_frames
        want = tuple(float(v) for v in np.log(np.asarray(counts, float) / n_post))
        assert est.log_tail_probs == want
        assert est.samples_at_largest_threshold == counts[-1]

    def test_deterministic_given_seed(self):
        cfg = dict(
            model=RAY, snr=SNR, qos=QOS, mode="csir",
            arrival_rate=predicted_effective_capacity(RAY, SNR, QOS, "csir"),
            frames=50000, q_thresholds=(40.0, 80.0),
        )
        a = simulate_queue(SimConfig(**cfg, seed=3))
        b = simulate_queue(SimConfig(**cfg, seed=3))
        c = simulate_queue(SimConfig(**cfg, seed=4))
        assert a == b
        assert a.log_tail_probs != c.log_tail_probs

    def test_unstable_arrival_raises(self):
        with pytest.raises(Unstable):
            simulate_queue(SimConfig(
                model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=1e12,
                frames=1000, seed=1, q_thresholds=(10.0,),
            ))
        cap = QOS.B * shannon_limit(SNR, "csir", QOS, RAY)
        with pytest.raises(Unstable):
            simulate_queue(SimConfig(
                model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=cap,
                frames=1000, seed=1, q_thresholds=(10.0,),
            ))

    def test_unreachable_threshold_raises(self):
        arrival = predicted_effective_capacity(RAY, SNR, QOS, "csir")
        with pytest.raises(InsufficientSamples):
            simulate_queue(SimConfig(
                model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=arrival,
                frames=20000, seed=2, q_thresholds=(40.0, 1e5),
            ))

    def test_one_crossed_threshold_fits_no_line(self):
        # a line through one point used to come back with a RankWarning
        # and r^2 = 1
        arrival = predicted_effective_capacity(RAY, SNR, QOS, "csir")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InsufficientSamples, match="at least two crossed"):
                simulate_queue(SimConfig(
                    model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=arrival,
                    frames=20000, seed=2, q_thresholds=(10.0,),
                ))
        assert caught == []

    def test_constant_service_never_queues(self):
        det = Deterministic(1.0)
        cap = QOS.B * shannon_limit(SNR, "csir", QOS, det)
        est = simulate_queue(SimConfig(
            model=det, snr=SNR, qos=QOS, mode="csir", arrival_rate=0.4 * cap,
            frames=5000, seed=9, q_thresholds=(1.0, 2.0),
        ))
        assert est == TailEstimate(
            thresholds=(1.0, 2.0),
            log_tail_probs=(-math.inf, -math.inf),
            fitted_decay=math.inf,
            fit_rsquared=1.0,
            samples_at_largest_threshold=0,
        )


class _Boom(RuntimeError):
    pass


class _FailsOnThirdDraw(Rayleigh):
    """Rayleigh gains whose third draw raises; raised keeps the error."""

    def sample(self, rng, size=None):
        calls = self.__dict__.setdefault("calls", [])
        calls.append(size)
        if len(calls) == 3:
            self.__dict__["raised"] = _Boom("third draw")
            raise self.raised
        return super().sample(rng, size)


class TestServiceStream:
    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_failed_draw_raises_in_caller(self, monkeypatch, mode):
        monkeypatch.setattr(qs_mod, "_CHUNK", 1000)
        model = _FailsOnThirdDraw()
        cfg = SimConfig(
            model=model, snr=SNR, qos=QOS, mode=mode,
            arrival_rate=predicted_effective_capacity(RAY, SNR, QOS, mode),
            frames=10_000, seed=1, q_thresholds=(10.0,),
        )
        before = threading.active_count()
        with pytest.raises(_Boom) as info:
            simulate_queue(cfg)
        assert info.value is model.raised
        assert model.calls == [1000] * 3
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_closed_stream_joins_its_worker(self, mode):
        before = threading.active_count()
        stream = qs_mod._service_rates(RAY, SNR, QOS, mode, 10 * qs_mod._CHUNK, 1)
        first = next(stream)
        stream.close()
        assert first.shape == (qs_mod._CHUNK,)
        assert threading.active_count() == before

    def test_concurrent_streams_are_the_serial_draws(self, monkeypatch):
        # four callers, each with its own worker, on a short switch
        # interval: chunks still come back whole and in seed order
        monkeypatch.setattr(qs_mod, "_CHUNK", 1000)
        sizes = (1000, 1000, 1000, 1000, 500)
        got = {}

        def run(seed):
            got[seed] = list(qs_mod._service_rates(RAY, SNR, QOS, "csir", 4500, seed))

        callers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert sorted(got) == [0, 1, 2, 3]
        for seed, chunks in got.items():
            rng = np.random.default_rng(seed)
            want = [service_rate_csir(SNR, RAY.sample(rng, n), QOS) for n in sizes]
            assert len(chunks) == len(want)
            for g, w in zip(chunks, want):
                assert np.array_equal(g, w)


class _RecordsPlacement(Rayleigh):
    """Rayleigh gains that note the thread and the affinity of each draw."""

    def sample(self, rng, size=None):
        self.__dict__.setdefault("seen", []).append(
            (threading.get_ident(), os.sched_getaffinity(0))
        )
        return super().sample(rng, size)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls here"
)


@needs_affinity
class TestPrefetchWorker:
    def test_current_cpu_reads_the_cpu_a_thread_is_pinned_to(self):
        # on a thread of its own, pinned to each allowed CPU in turn
        allowed = os.sched_getaffinity(0)
        seen = {}

        def probe():
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                seen[cpu] = qs_mod._current_cpu()

        t = threading.Thread(target=probe)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert seen == {cpu: cpu for cpu in allowed}
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.skipif(
        hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
        reason="fewer than two CPUs allowed",
    )
    def test_worker_runs_off_the_callers_cpu(self, monkeypatch):
        allowed = os.sched_getaffinity(0)
        read = []

        def current_cpu(real=qs_mod._current_cpu):
            read.append((threading.get_ident(), real()))
            return read[-1][1]

        monkeypatch.setattr(qs_mod, "_current_cpu", current_cpu)
        model = _RecordsPlacement()
        before = threading.active_count()
        chunks = list(qs_mod._service_rates(model, SNR, QOS, "csir", 3 * qs_mod._CHUNK, 1))
        assert len(chunks) == 3
        ((caller, cpu),) = read
        assert caller == threading.get_ident() and cpu in allowed
        assert caller not in {worker for worker, _ in model.seen}
        assert [cpus for _, cpus in model.seen] == [allowed - {cpu}] * 3
        assert os.sched_getaffinity(0) == allowed
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["csir", "csit"])
    def test_refused_pin_changes_nothing(self, monkeypatch, mode):
        monkeypatch.setattr(qs_mod, "_CHUNK", 1 << 12)
        cfg = SimConfig(
            model=RAY, snr=SNR, qos=QOS, mode=mode,
            arrival_rate=predicted_effective_capacity(RAY, SNR, QOS, mode),
            frames=30_000, seed=5, q_thresholds=(20.0, 40.0, 60.0),
        )
        want = simulate_queue(cfg)
        calls = []

        def refuse(pid, cpus):
            calls.append(cpus)
            raise OSError(errno.EPERM, "refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        before = threading.active_count()
        assert simulate_queue(cfg) == want
        assert threading.active_count() == before
        assert len(calls) == (len(os.sched_getaffinity(0)) > 1)

    def test_worker_draws_at_most_ahead_chunks_ahead(self):
        # the caller holds the first chunk: _AHEAD more are drawn, no more
        model = _RecordsPlacement()
        stream = qs_mod._service_rates(model, SNR, QOS, "csir", 10 * qs_mod._CHUNK, 1)
        next(stream)
        deadline = time.monotonic() + 30.0
        while len(model.seen) <= qs_mod._AHEAD and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)
        assert len(model.seen) == 1 + qs_mod._AHEAD
        stream.close()

    def test_no_affinity_or_proc_leaves_the_worker_unpinned(self, monkeypatch):
        def missing():
            raise FileNotFoundError("/proc/thread-self/stat")

        monkeypatch.setattr(qs_mod, "_current_cpu", missing)
        assert qs_mod._worker_cpus() is None
        monkeypatch.delattr(os, "sched_getaffinity")
        assert qs_mod._worker_cpus() is None
        chunks = list(qs_mod._service_rates(RAY, SNR, QOS, "csir", 1000, 1))
        rng = np.random.default_rng(1)
        assert np.array_equal(chunks[0], service_rate_csir(SNR, RAY.sample(rng, 1000), QOS))


class TestTailDecay:
    def test_decay_matches_qos_exponent(self):
        # feed at the effective capacity of theta* = 0.05: the fitted tail
        # decay should come back as theta* itself
        arrival = predicted_effective_capacity(RAY, SNR, QOS, "csir")
        est = simulate_queue(SimConfig(
            model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=arrival,
            frames=10**6, seed=7,
            q_thresholds=tuple(k / 0.05 for k in range(2, 9)),
        ))
        assert est.samples_at_largest_threshold >= 100
        assert 0.85 <= est.fitted_decay / 0.05 <= 1.15
        assert est.fit_rsquared > 0.99
        probs = est.log_tail_probs
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_slack_arrival_decays_faster(self):
        arrival = predicted_effective_capacity(RAY, SNR, QOS, "csir")
        est = simulate_queue(SimConfig(
            model=RAY, snr=SNR, qos=QOS, mode="csir", arrival_rate=0.5 * arrival,
            frames=2 * 10**5, seed=11, q_thresholds=(5.0, 10.0, 20.0),
        ))
        assert est.fitted_decay > 0.06


class TestEmpiricalEffectiveCapacity:
    def test_offset_identity(self):
        rng = np.random.default_rng(123)
        rates = rng.uniform(1e4, 5e4, size=1000)
        theta, T = 0.05, 2e-3
        base = effective_capacity_from_rates(rates, theta, T)
        shifted = effective_capacity_from_rates(rates + 7e3, theta, T)
        assert shifted == pytest.approx(base + 7e3, rel=1e-12)

    def test_two_point_hand_computation(self):
        theta, T = 0.05, 2e-3
        rates = np.array([1e4, 2e4])
        want = -math.log(
            0.5 * (math.exp(-theta * T * 1e4) + math.exp(-theta * T * 2e4))
        ) / (theta * T)
        assert effective_capacity_from_rates(rates, theta, T) == pytest.approx(
            want, rel=1e-13
        )

    def test_theta_zero_rejected(self):
        with pytest.raises(ThetaZero):
            effective_capacity_from_rates(np.ones(4), 0.0, 2e-3)
        with pytest.raises(ThetaZero):
            effective_capacity_empirical(RAY, SNR, QosConfig(0.0, 2e-3, 1e5),
                                         "csir", 100, 1)

    def test_chunked_equals_single_pass(self, monkeypatch):
        monkeypatch.setattr(qs_mod, "_CHUNK", 1000)
        frames, seed = 5000, 21
        emp = effective_capacity_empirical(RAY, SNR, QOS, "csir", frames, seed)
        rng = np.random.default_rng(seed)
        pieces = [RAY.sample(rng, 1000) for _ in range(5)]
        rates = service_rate_csir(SNR, np.concatenate(pieces), QOS)
        want = effective_capacity_from_rates(rates, QOS.theta, QOS.T)
        assert emp == pytest.approx(want, rel=1e-10)

    def test_deterministic_model_is_exact(self):
        det = Deterministic(1.0)
        want = QOS.B * math.log2(1.0 + SNR)
        for frames in (1, 100):
            emp = effective_capacity_empirical(det, SNR, QOS, "csir", frames, 3)
            assert emp == pytest.approx(want, rel=1e-14)

    def test_converges_to_quadrature_value(self):
        pred = QOS.B * spectral_efficiency_csir(SNR, QOS, RAY)
        rms = []
        for n in (10**4, 10**5, 10**6):
            errs = [
                effective_capacity_empirical(RAY, SNR, QOS, "csir", n, seed) - pred
                for seed in range(5)
            ]
            rms.append(float(np.sqrt(np.mean(np.square(errs)))))
        # ~1/sqrt(n): monotone decrease, two decades shrink the error >3x
        assert rms[0] > rms[1] > rms[2]
        assert rms[0] / rms[2] > 3.0
        assert rms[2] / pred < 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_capacity_empirical(RAY, SNR, QOS, "blind", 100, 1)
        with pytest.raises(ValueError):
            effective_capacity_empirical(RAY, SNR, QOS, "csir", 0, 1)


class TestPredictedEffectiveCapacity:
    def test_routes_by_mode(self):
        assert predicted_effective_capacity(RAY, SNR, QOS, "csir") == pytest.approx(
            QOS.B * spectral_efficiency_csir(SNR, QOS, RAY), rel=1e-14
        )
        assert predicted_effective_capacity(RAY, SNR, QOS, "csit") == pytest.approx(
            QOS.B * spectral_efficiency_csit(SNR, QOS, RAY), rel=1e-14
        )
        with pytest.raises(ValueError):
            predicted_effective_capacity(RAY, SNR, QOS, "blind")
