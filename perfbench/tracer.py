"""Per-layer tracing of qos_energy from outside the package.

The tracer wraps every public function of each layer module, plus the
`expect_above` and `sample` methods of the fading models, and rebinds
each wrapped name in every package module that imported it (`sweep` and
`asymptotics` import solver and spectral-efficiency functions by name).
Of `cli` only `main` is wrapped, so its self time covers argument
parsing, config resolution, formatting and writes.

Spans (name, parent, start, end) are kept in memory and reduced to the
per-layer metrics when the traced pass ends.  Self time is a span's
duration minus the part its traced children cover.  Counts come from the
arguments and results at the boundaries:

* integrand evaluations from the `neval` that QUADPACK reports (fading
  always calls `quad` with full_output=1);
* residual evaluations by wrapping the residual passed to
  `solve_threshold`; a probe outside the [lo_ln, hi_ln] bracket it was
  given is a bracket expansion, since bisection probes stay inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("fading", "effcap", "asymptotics", "sweep", "queuesim", "cli")

# Per-layer metrics as (name, unit, better); counts repeat exactly run to run.
METRICS = (
    ("fading.expect_above.calls", "count", "lower"),
    ("fading.expect_above.integrand_evals", "count", "lower"),
    ("fading.expect_above.self_s", "s", "lower"),
    ("fading.sample.draws", "count", "lower"),
    ("fading.sample.s", "s", "lower"),
    ("effcap.solve_threshold.solves", "count", "lower"),
    ("effcap.solve_threshold.residual_evals", "count", "lower"),
    ("effcap.solve_threshold.expansions", "count", "lower"),
    ("effcap.solve_threshold.self_s", "s", "lower"),
    ("effcap.solve_threshold.solve_ms.p50", "ms", "lower"),
    ("effcap.solve_threshold.solve_ms.p99", "ms", "lower"),
    ("effcap.spectral_efficiency_csit.s", "s", "lower"),
    ("effcap.spectral_efficiency_csir.s", "s", "lower"),
    ("effcap.shannon_limit.s", "s", "lower"),
    ("asymptotics.wideband_csit.calls", "count", "lower"),
    ("asymptotics.wideband_csit.s", "s", "lower"),
    ("asymptotics.wideband_csit.solves_per_call", "count", "lower"),
    ("asymptotics.solve_alpha_star.s", "s", "lower"),
    ("sweep.tradeoff_curve.s", "s", "lower"),
    ("sweep.ebn0_min_surface.s", "s", "lower"),
    ("sweep.alpha_vs_zeta.s", "s", "lower"),
    ("sweep.gaps", "count", "lower"),
    ("queuesim.simulate_queue.s", "s", "lower"),
    ("queuesim.simulate_queue.frames_per_s", "1/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tracer:
    """Installs span wrappers into qos_energy and reduces the spans."""

    def __init__(self):
        self._names = []
        self._undo = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack = [-1]
        self.integrand_evals = 0
        self.residual_evals = 0
        self.expansions = 0
        self.draws = 0
        self.frames = 0
        self.gaps = 0

    # -- installation -------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self._names)
        self._names.append(name)
        names, parents, t0s, t1s = (
            self.span_name, self.span_parent, self.span_t0, self.span_t1
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        """fn with the boundary counts its layer metrics need."""
        if name == "effcap.solve_threshold":

            def solve_threshold(residual, lo_ln, hi_ln, *args, **kwargs):
                def counted(ln_a):
                    self.residual_evals += 1
                    if not lo_ln <= ln_a <= hi_ln:
                        self.expansions += 1
                    return residual(ln_a)

                return fn(counted, lo_ln, hi_ln, *args, **kwargs)

            return solve_threshold
        if name == "fading.sample":

            def sample(model, rng, size=None):
                out = fn(model, rng, size)
                self.draws += int(np.size(out))
                return out

            return sample
        if name == "queuesim.simulate_queue":

            def simulate_queue(config):
                self.frames += config.frames
                return fn(config)

            return simulate_queue
        if name == "sweep.tradeoff_curve":

            def tradeoff_curve(spec):
                curves = fn(spec)
                self.gaps += sum(c.failures for c in curves)
                return curves

            return tradeoff_curve
        if name == "sweep.ebn0_min_surface":

            def ebn0_min_surface(*args, **kwargs):
                surf = fn(*args, **kwargs)
                self.gaps += surf.failures
                return surf

            return ebn0_min_surface
        if name == "sweep.alpha_vs_zeta":

            def alpha_vs_zeta(*args, **kwargs):
                curves = fn(*args, **kwargs)
                self.gaps += sum(a is None for c in curves for a in c.alphas)
                return curves

            return alpha_vs_zeta
        return fn

    def install(self):
        """Wrap the layers; uninstall() restores every rebound name."""
        mods = {layer: importlib.import_module(f"qos_energy.{layer}") for layer in LAYERS}
        fading = mods["fading"]
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or (layer == "cli" and attr != "main")
                ):
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self._span(name, self._counted(name, obj))
        for attr, classes in (
            ("expect_above", (fading._ContinuousModel, fading.Deterministic, fading.BoundedTable)),
            ("sample", (fading.Rayleigh, fading.NakagamiM, fading.Deterministic, fading.BoundedTable)),
        ):
            name = f"fading.{attr}"
            for cls in classes:
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._span(name, self._counted(name, orig)))
        package = [importlib.import_module("qos_energy"), *mods.values()]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        quad = fading.quad

        def counting_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.integrand_evals += out[2]["neval"]
            return out

        self._undo.append((fading, "quad", quad))
        fading.quad = counting_quad

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction ----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        n = len(self.span_name)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, self_s, idx_of = {}, {}, {}, {}
        for i in range(n):
            name = self._names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            idx_of.setdefault(name, []).append(i)
        solves = idx_of.get("effcap.solve_threshold", [])
        wb = set(idx_of.get("asymptotics.wideband_csit", []))
        solves_under = {}
        for i in solves:
            p = self.span_parent[i]
            while p >= 0 and p not in wb:
                p = self.span_parent[p]
            if p >= 0:
                solves_under[p] = solves_under.get(p, 0) + 1
        sim_s = incl.get("queuesim.simulate_queue", 0.0)
        solve_ms = [dur[i] * 1e3 for i in solves]
        return {
            "fading.expect_above.calls": calls.get("fading.expect_above", 0),
            "fading.expect_above.integrand_evals": self.integrand_evals,
            "fading.expect_above.self_s": self_s.get("fading.expect_above", 0.0),
            "fading.sample.draws": self.draws,
            "fading.sample.s": self_s.get("fading.sample", 0.0),
            "effcap.solve_threshold.solves": len(solves),
            "effcap.solve_threshold.residual_evals": self.residual_evals,
            "effcap.solve_threshold.expansions": self.expansions,
            "effcap.solve_threshold.self_s": self_s.get("effcap.solve_threshold", 0.0),
            "effcap.solve_threshold.solve_ms.p50": _percentile(solve_ms, 50),
            "effcap.solve_threshold.solve_ms.p99": _percentile(solve_ms, 99),
            "effcap.spectral_efficiency_csit.s": self_s.get("effcap.spectral_efficiency_csit", 0.0),
            "effcap.spectral_efficiency_csir.s": self_s.get("effcap.spectral_efficiency_csir", 0.0),
            "effcap.shannon_limit.s": self_s.get("effcap.shannon_limit", 0.0),
            "asymptotics.wideband_csit.calls": calls.get("asymptotics.wideband_csit", 0),
            "asymptotics.wideband_csit.s": incl.get("asymptotics.wideband_csit", 0.0),
            # Per call that solves at all: theta = 0 returns a closed form.
            "asymptotics.wideband_csit.solves_per_call": (
                sum(solves_under.values()) / len(solves_under) if solves_under else 0.0
            ),
            "asymptotics.solve_alpha_star.s": self_s.get("asymptotics.solve_alpha_star", 0.0),
            "sweep.tradeoff_curve.s": self_s.get("sweep.tradeoff_curve", 0.0),
            "sweep.ebn0_min_surface.s": self_s.get("sweep.ebn0_min_surface", 0.0),
            "sweep.alpha_vs_zeta.s": self_s.get("sweep.alpha_vs_zeta", 0.0),
            "sweep.gaps": self.gaps,
            "queuesim.simulate_queue.s": self_s.get("queuesim.simulate_queue", 0.0),
            "queuesim.simulate_queue.frames_per_s": self.frames / sim_s if sim_s else 0.0,
            "cli.self_s": self_s.get("cli.main", 0.0),
        }
