"""Monte Carlo validation of the QoS exponent via a discrete-time queue.

A buffer is fed at constant rate a bits/s and drained each frame of length
T by the instantaneous service the fading channel supports, following the
Lindley recursion Q_{n+1} = max(Q_n + a*T - s_n, 0).  Large deviations
predict P(Q > q) ~ exp(-theta_hat * q) where theta_hat solves
a = effective_capacity(theta_hat); feeding at a = C_E(theta*) therefore
makes the fitted tail decay equal theta* itself, which is the check the
simulator exists to run.

The queue and the empirical effective capacity read the same Monte Carlo
service stream: seeded gains, _CHUNK frames at a time, turned into rates
in place by the CSIR formula or the solved CSIT policy.  A chunk's
float64 arrays are 512 KiB each, so the Lindley block's three arrays (the
rates, one cumulative-sum buffer and one bool buffer per simulation) stay
in a core's L2 cache.  A worker thread draws up to three chunks ahead
while the caller works on the current one.  The worker runs on the CPUs
the caller may use other than its own, so that the two overlap even
where the kernel does not balance threads across CPUs; where that cannot
be set the worker runs where the kernel puts it.  The bits never depend
on where it runs.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .effcap import (
    QosConfig,
    _check_mode,
    service_rate_csir,
    service_rate_csit,
    shannon_limit,
    solve_alpha,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
)
from .errors import InsufficientSamples, ThetaZero, Unstable
from .fading import FadingModel, _logsumexp

_CHUNK = 1 << 16
# Chunks the worker may draw ahead of the caller.  One would do on CPUs
# that wake at once; where a waiting CPU is slow to wake (a busy VM host),
# a worker that must wait for the caller between chunks runs the stream
# slower than one CPU does.
_AHEAD = 3
_MIN_TAIL_SAMPLES = 100


@dataclass(frozen=True)
class SimConfig:
    """Queue simulation setup.

    arrival_rate is in bits/s; q_thresholds are queue depths in bits whose
    exceedance probabilities are measured.  warmup_frames (default 1% of
    frames) are simulated but excluded from the statistics so the fit sees
    a queue that has forgotten its empty start.
    """

    model: FadingModel
    snr: float
    qos: QosConfig
    mode: str
    arrival_rate: float
    frames: int
    seed: int
    q_thresholds: tuple
    warmup_frames: int | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        if not (self.snr > 0 and math.isfinite(self.snr)):
            raise ValueError(f"snr must be positive, got {self.snr}")
        if not (self.arrival_rate > 0 and math.isfinite(self.arrival_rate)):
            raise ValueError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if int(self.frames) < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        object.__setattr__(self, "frames", int(self.frames))
        warm = self.warmup_frames
        warm = self.frames // 100 if warm is None else int(warm)
        if not 0 <= warm < self.frames:
            raise ValueError(
                f"warmup_frames must lie in [0, frames), got {warm} "
                f"with frames={self.frames}"
            )
        object.__setattr__(self, "warmup_frames", warm)
        th = tuple(float(q) for q in self.q_thresholds)
        if not th:
            raise ValueError("q_thresholds must not be empty")
        if any(q <= 0 or not math.isfinite(q) for q in th):
            raise ValueError("q_thresholds must be positive and finite")
        if any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError("q_thresholds must be strictly increasing")
        object.__setattr__(self, "q_thresholds", th)


@dataclass(frozen=True)
class TailEstimate:
    """Measured exceedance curve and its fitted exponential decay.

    fitted_decay is the slope of -ln P(Q > q) against q; fit_rsquared
    reports how exponential the measured tail actually is.  A queue that
    never reached the smallest threshold is reported with -inf log
    probabilities, infinite decay, and zero samples.
    """

    thresholds: tuple
    log_tail_probs: tuple
    fitted_decay: float
    fit_rsquared: float
    samples_at_largest_threshold: int


def _current_cpu() -> int:
    """The CPU the calling thread last ran on, field 39 of its
    /proc/thread-self/stat; the fields from the third on follow the last
    ')', which closes the command name."""
    with open("/proc/thread-self/stat", "rb") as f:
        stat = f.read()
    return int(stat[stat.rindex(b")") + 1:].split()[36])


def _worker_cpus():
    """The CPUs the calling thread may use other than the one it runs on;
    None when fewer than two are allowed or os.sched_getaffinity or /proc
    is missing."""
    try:
        allowed = os.sched_getaffinity(0)
        return allowed - {_current_cpu()} if len(allowed) > 1 else None
    except (AttributeError, OSError):
        return None


def _pin(cpus):
    """Restrict the calling thread to cpus.  A failure is ignored: an
    initializer that raises would break the pool, and the worker then runs
    where the kernel puts it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _service_rates(
    model: FadingModel, snr: float, qos: QosConfig, mode: str, frames: int, seed: int
):
    """Yield the service rates of `frames` frames drawn from `seed`, in
    chunks of at most _CHUNK.  The CSIT policy is solved before the first
    chunk; each chunk's rates overwrite its freshly drawn gains.

    A worker thread draws up to _AHEAD chunks ahead of the caller.  It alone
    advances the one generator of chunks, one draw per call and in order,
    so the rates do not depend on thread timing, and no draw follows a
    failed one.  The worker runs off the caller's CPU (_worker_cpus) for
    its lifetime; the caller's own affinity never changes.  A failed draw
    raises in the caller, and the worker is joined however the stream ends.
    """
    # Imported here: concurrent.futures would add to every CLI start-up.
    from concurrent.futures import ThreadPoolExecutor

    policy = solve_alpha(snr, qos, model) if mode == "csit" else None
    rng = np.random.default_rng(seed)

    def drawn():
        for done in range(0, frames, _CHUNK):
            z = model.sample(rng, min(_CHUNK, frames - done))
            if policy is None:
                yield service_rate_csir(snr, z, qos, out=z)
            else:
                yield service_rate_csit(policy, z, qos, out=z)

    chunks, n = drawn(), -(-frames // _CHUNK)
    cpus = _worker_cpus()
    with ThreadPoolExecutor(1, initializer=_pin if cpus else None, initargs=(cpus,)) as pool:
        ahead = collections.deque(pool.submit(next, chunks) for _ in range(min(_AHEAD, n)))
        for _ in range(n - len(ahead)):
            rates = ahead.popleft().result()
            ahead.append(pool.submit(next, chunks))
            yield rates
        while ahead:
            yield ahead.popleft().result()


def simulate_queue(config: SimConfig) -> TailEstimate:
    """Run the Lindley recursion and fit the exceedance tail.

    Raises Unstable when the arrival rate is at or above the ergodic
    capacity (no stationary tail exists) and InsufficientSamples when the
    largest threshold was crossed fewer than 100 times after warmup, or
    when a crossed threshold is the only one, as a line needs two points.
    """
    model, qos = config.model, config.qos
    capacity = qos.B * shannon_limit(config.snr, config.mode, qos, model)
    if config.arrival_rate >= capacity:
        raise Unstable(
            f"arrival rate {config.arrival_rate:g} bits/s is not below the "
            f"ergodic capacity {capacity:g} bits/s; the queue has no "
            "stationary distribution"
        )
    thresholds = np.asarray(config.q_thresholds)
    counts = np.zeros(len(thresholds), dtype=np.int64)
    q_tail = 0.0
    done = 0
    warm = config.warmup_frames
    n = min(_CHUNK, config.frames)
    s_buf, above = np.empty(n), np.empty(n, dtype=bool)
    for rates in _service_rates(
        model, config.snr, qos, config.mode, config.frames, config.seed
    ):
        # The block works in place in its rates array and two buffers: a
        # fresh chunk-sized array per step costs page faults whenever the
        # allocator has handed the last one back to the system.
        x = np.subtract(
            config.arrival_rate * qos.T, np.multiply(rates, qos.T, out=rates),
            out=rates,
        )
        s = np.cumsum(x, out=s_buf[:x.size])
        # Q_j = S_j - min(min_{k<=j} S_k, -Q_0) for the block, which matches
        # iterating Lindley from Q_0.  No clamp at 0 is needed: the min
        # includes S_j itself.  fmin and minimum differ only at a NaN, and
        # the stream has none (the CSIT rate's fmax maps NaN to 0); fmin's
        # accumulate is the faster.
        q = np.fmin.accumulate(s, out=x)
        q = np.subtract(s, np.minimum(q, -q_tail, out=q), out=q)
        q_tail = float(q[-1])
        post = q[max(warm - done, 0):]
        for i, thr in enumerate(thresholds):
            hit = np.greater(post, thr, out=above[:post.size])
            counts[i] += int(np.count_nonzero(hit))
        done += rates.size
    n_post = config.frames - warm
    if counts[0] == 0:
        return TailEstimate(
            thresholds=config.q_thresholds,
            log_tail_probs=tuple(-math.inf for _ in thresholds),
            fitted_decay=math.inf,
            fit_rsquared=1.0,
            samples_at_largest_threshold=0,
        )
    if counts[-1] < _MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"largest threshold q={thresholds[-1]:g} was crossed only "
            f"{int(counts[-1])} times (< {_MIN_TAIL_SAMPLES}); lower the "
            "thresholds or simulate more frames"
        )
    if len(thresholds) < 2:
        raise InsufficientSamples(
            f"a tail decay needs at least two crossed thresholds, got one "
            f"(q={thresholds[0]:g})"
        )
    log_p = np.log(counts / n_post)
    slope, intercept = np.polyfit(thresholds, log_p, 1)
    pred = slope * thresholds + intercept
    ss_res = float(np.sum((log_p - pred) ** 2))
    ss_tot = float(np.sum((log_p - log_p.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return TailEstimate(
        thresholds=config.q_thresholds,
        log_tail_probs=tuple(float(v) for v in log_p),
        fitted_decay=float(-slope),
        fit_rsquared=r2,
        samples_at_largest_threshold=int(counts[-1]),
    )


def effective_capacity_empirical(
    model: FadingModel,
    snr: float,
    qos: QosConfig,
    mode: str,
    frames: int,
    seed: int,
) -> float:
    """Monte Carlo effective capacity in bits/s from simulated service rates.

    Log-domain averaging in chunks, so millions of frames cost memory for
    one chunk only and extreme exponents cannot overflow.
    """
    _check_mode(mode)
    if qos.theta == 0:
        raise ThetaZero("empirical effective capacity needs theta > 0")
    frames = int(frames)
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    pieces = [
        _logsumexp(np.multiply(rates, -qos.theta * qos.T, out=rates))
        for rates in _service_rates(model, snr, qos, mode, frames, seed)
    ]
    log_mean = _logsumexp(np.array(pieces)) - math.log(frames)
    return -log_mean / (qos.theta * qos.T)


def predicted_effective_capacity(
    model: FadingModel, snr: float, qos: QosConfig, mode: str
) -> float:
    """Predicted effective capacity in bits/s, for comparison with the fit."""
    _check_mode(mode)
    rate = spectral_efficiency_csir if mode == "csir" else spectral_efficiency_csit
    return qos.B * rate(snr, qos, model)
