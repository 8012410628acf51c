"""Acceptance checks, one per shipped guarantee.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line with the measured
numbers so a bare pytest run doubles as a sign-off report.  Tolerances and
runtime budgets are part of the guarantee and are asserted, not advisory.
"""

import json
import math
import os
import time
import warnings

import numpy as np
from conftest import random_model
from oracles import wideband_csir_rayleigh_closed_form

from qos_energy import (
    BoundedTable,
    Deterministic,
    DivergentInverseMoment,
    NakagamiM,
    QosConfig,
    Rayleigh,
    SimConfig,
    alpha_vs_zeta,
    delay_limited_limit,
    lowpower_csir,
    lowpower_csit,
    predicted_effective_capacity,
    shannon_limit,
    simulate_queue,
    solve_alpha_star,
    spectral_efficiency_csir,
    spectral_efficiency_csit,
    wideband_csir,
    wideband_csit,
)
from qos_energy.asymptotics import _log_moments_above
from qos_energy.cli import main
from qos_energy.effcap import LN2

T = 2e-3
B = 1e5
PN0 = 1e4
RAY = Rayleigh(mean=1.0)

# Reference wideband slopes at theta = 0.001, 0.01, 0.1, 1 (Rayleigh,
# T = 2 ms, Pbar/N0 = 1e4).  The CSIT entries are rebuilt from the
# definition of S0 by
# test_asymptotics.py::TestWidebandCsitAnchors::test_oracle_recipe_reproduces.
CSIR_SLOPES = {0.001: 1.0288, 0.01: 1.2817, 0.1: 3.3401, 1.0: 12.3484}
CSIT_SLOPES = {0.001: 0.3078, 0.01: 1.0605, 0.1: 2.4951, 1.0: 3.9366}


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_wideband_csir_slopes_match_reference():
    t0 = time.monotonic()
    worst_ref = 0.0
    worst_pair = 0.0
    for theta, ref in CSIR_SLOPES.items():
        general = wideband_csir(RAY, theta, T, PN0).slope_s0
        closed = wideband_csir_rayleigh_closed_form(theta, T, PN0).slope_s0
        worst_ref = max(worst_ref, abs(general - ref))
        worst_pair = max(worst_pair, abs(general - closed) / closed)
    elapsed = time.monotonic() - t0
    ok = worst_ref <= 1e-3 and worst_pair <= 1e-10 and elapsed < 1.0
    _report(
        1,
        ok,
        f"receiver-CSI wideband slopes: max |S0 - ref| {worst_ref:.2e} "
        f"(tol 1e-3), quadrature vs closed form {worst_pair:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )
    assert ok


def test_wideband_csit_slopes_match_reference():
    """Pinned reference slopes for the transmitter-CSI wideband limit.

    The references are S0 from its definition (Verdu 2002): the secant of
    the exact finite-bandwidth spectral efficiency against Eb/N0|dB above
    the floor, taken at zeta = 1/B = 1e-8 and 5e-9 and extrapolated to
    zeta = 0, rounded to 4 decimals.  The scipy-only oracle
    test_asymptotics.py::TestWidebandCsitAnchors::test_oracle_recipe_reproduces
    rebuilds them without the package and checks the rounding.
    """
    t0 = time.monotonic()
    errs = {}
    for theta, ref in CSIT_SLOPES.items():
        errs[theta] = abs(wideband_csit(RAY, theta, T, PN0).slope_s0 - ref)
    elapsed = time.monotonic() - t0
    ok = max(errs.values()) <= 1e-3 and elapsed < 30.0
    detail = ", ".join(f"theta={t:g} err {e:.2e}" for t, e in errs.items())
    _report(
        2,
        ok,
        f"transmitter-CSI wideband slopes vs reference (tol 1e-3): "
        f"{detail}, {elapsed:.2f}s (budget 30s)",
    )
    assert ok, f"slope errors exceed 1e-3: {detail}"


def test_lowpower_bit_energy_floors():
    t0 = time.monotonic()
    ok = True
    notes = []

    unit_mean = [
        Rayleigh(mean=1.0),
        NakagamiM(m=2.0, mean=1.0),
        NakagamiM(m=0.6, mean=1.0),
        Deterministic(z0=1.0),
        BoundedTable(((0.5, 0.5), (1.5, 0.5))),
    ]
    worst = 0.0
    for model in unit_mean:
        for beta in (0.0, 2.885, 288.539):
            worst = max(worst, abs(lowpower_csir(model, beta).ebn0_min_db + 1.59))
    ok &= worst <= 0.005
    notes.append(f"receiver-CSI floor -1.59 dB max dev {worst:.4f} dB (tol 0.005)")

    for model in (Rayleigh(mean=1.0), NakagamiM(m=1.5, mean=0.8)):
        s = lowpower_csit(model)
        flagged = s.ebn0_min_db == -math.inf and s.unbounded_support
        ok &= flagged
    notes.append("transmitter-CSI floor flagged -inf for unbounded gains")

    worst_bounded = 0.0
    for model in (Deterministic(z0=2.0), BoundedTable(((0.25, 0.3), (1.75, 0.7)))):
        s = lowpower_csit(model, beta=1.7)
        want = 10.0 * math.log10(LN2 / model.z_max)
        worst_bounded = max(
            worst_bounded, abs(s.ebn0_min_db - want) / abs(want)
        )
    ok &= worst_bounded <= 1e-12
    notes.append(
        f"bounded gains floor ln2/z_max rel dev {worst_bounded:.1e} (tol 1e-12)"
    )

    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(3, ok, "; ".join(notes) + f", {elapsed:.2f}s (budget 1s)")
    assert ok


def test_degenerate_channel_closed_forms():
    t0 = time.monotonic()
    det = Deterministic(z0=1.0)
    worst_floor = 0.0
    for theta in (0.001, 0.01, 0.1, 1.0):
        beta = theta * T * B / LN2
        floors = (
            lowpower_csir(det, beta).ebn0_min_linear,
            lowpower_csit(det, beta).ebn0_min_linear,
            wideband_csir(det, theta, T, PN0).ebn0_min_linear,
            wideband_csit(det, theta, T, PN0).ebn0_min_linear,
        )
        for lin in floors:
            worst_floor = max(worst_floor, abs(lin - LN2) / LN2)

    worst_alpha = 0.0
    zetas = np.logspace(-9.0, -3.0, 13)
    for theta in (0.01, 1.0):
        (curve,) = alpha_vs_zeta(det, [theta], T, PN0, zeta_grid=zetas)
        for zeta, alpha in zip(curve.zetas, curve.alphas):
            beta = theta * T / (zeta * LN2)
            # (1 + Pbar*zeta/N0)^-(beta+1), via log1p: the direct power
            # loses the low bits of Pbar*zeta/N0, and that error scaled
            # by beta would dominate the comparison
            want = math.exp(-(beta + 1.0) * math.log1p(PN0 * zeta))
            worst_alpha = max(worst_alpha, abs(alpha - want) / want)

    elapsed = time.monotonic() - t0
    ok = worst_floor <= 1e-10 and worst_alpha <= 1e-10
    _report(
        4,
        ok,
        f"constant channel: all four bit-energy floors equal ln2 within "
        f"{worst_floor:.1e} rel (tol 1e-10); threshold alpha(zeta) matches "
        f"(1+Pbar*zeta/N0)^-(beta+1) within {worst_alpha:.1e} rel "
        f"(tol 1e-10), {elapsed:.2f}s",
    )
    assert ok


def test_threshold_fixed_point_residuals():
    t0 = time.monotonic()
    thetas = np.logspace(-3.0, 0.0, 9)
    worst = 0.0
    monotone = True
    for model in (Rayleigh(mean=1.0), NakagamiM(m=2.0, mean=1.0)):
        prev = math.inf
        for theta in thetas:
            theta = float(theta)
            sol = solve_alpha_star(model, theta, T, PN0)
            c = theta * T * PN0 / LN2
            res = _log_moments_above(model, sol.ln_alpha_star)[1] - c
            worst = max(worst, abs(res) / c)
            monotone &= sol.alpha_star < prev
            prev = sol.alpha_star
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and monotone
    _report(
        5,
        ok,
        f"limiting threshold fixed point: max relative residual {worst:.1e} "
        f"(tol 1e-8) over Rayleigh and Nakagami-2, theta in [1e-3, 1]; "
        f"alpha* strictly decreasing: {monotone}, {elapsed:.2f}s",
    )
    assert ok


def test_invariant_property_suites():
    rng = np.random.default_rng(20240819)
    t0 = time.monotonic()
    slack = 1e-9
    n_draws = 200

    # concavity of spectral efficiency in SNR (receiver-only CSI)
    worst_dd = -math.inf
    for _ in range(n_draws):
        model = random_model(rng)
        theta = float(10.0 ** rng.uniform(-3.0, 0.0))
        qos = QosConfig(theta=theta, T=T, B=B)
        lo = 10.0 ** rng.uniform(-3.0, -1.0)
        grid = np.logspace(math.log10(lo), math.log10(lo) + 2.0, 6)
        se = [spectral_efficiency_csir(float(s), qos, model) for s in grid]
        for i in range(4):
            x0, x1, x2 = (float(x) for x in grid[i : i + 3])
            f0, f1, f2 = se[i : i + 3]
            dd = ((f2 - f1) / (x2 - x1) - (f1 - f0) / (x1 - x0)) / (x2 - x0)
            worst_dd = max(worst_dd, dd)
    ok_concave = worst_dd <= slack

    # total rate grows as bandwidth grows (receiver-only CSI, fixed power)
    worst_drop = 0.0
    for _ in range(n_draws):
        model = random_model(rng)
        theta = float(10.0 ** rng.uniform(-3.0, 0.0))
        pn0 = float(10.0 ** rng.uniform(2.0, 5.0))
        prev = None
        for zeta in np.logspace(-3.0, -9.0, 4):
            zeta = float(zeta)
            qos = QosConfig(theta=theta, T=T, B=1.0 / zeta)
            ratio = spectral_efficiency_csir(pn0 * zeta, qos, model) / zeta
            if prev is not None and ratio < prev:
                worst_drop = max(worst_drop, (prev - ratio) / prev)
            prev = ratio
    ok_rate = worst_drop <= slack

    # delay-limited rate <= effective capacity <= Shannon capacity
    worst_sandwich = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergentInverseMoment)
        for k in range(n_draws):
            model = random_model(rng)
            theta = float(10.0 ** rng.uniform(-3.0, 0.0))
            snr = float(10.0 ** rng.uniform(-2.0, 1.0))
            mode = "csir" if k % 2 == 0 else "csit"
            qos = QosConfig(theta=theta, T=T, B=B)
            if mode == "csir":
                se = spectral_efficiency_csir(snr, qos, model)
            else:
                se = spectral_efficiency_csit(snr, qos, model)
            low = delay_limited_limit(snr, mode, model)
            high = shannon_limit(snr, mode, qos, model)
            tol = slack * max(1.0, high)
            worst_sandwich = max(worst_sandwich, low - se - tol, se - high - tol)
    ok_sandwich = worst_sandwich <= 0.0

    # transmitter CSI can only help
    worst_gap = 0.0
    for _ in range(n_draws):
        model = random_model(rng)
        theta = float(10.0 ** rng.uniform(-3.0, 0.0))
        snr = float(10.0 ** rng.uniform(-2.0, 1.0))
        qos = QosConfig(theta=theta, T=T, B=B)
        se_r = spectral_efficiency_csir(snr, qos, model)
        se_t = spectral_efficiency_csit(snr, qos, model)
        worst_gap = max(worst_gap, se_r - se_t - slack * max(1.0, se_r))
    ok_csit = worst_gap <= 0.0

    # wideband receiver-CSI floor never beats ln2/E{z}
    worst_jensen = 0.0
    for _ in range(n_draws):
        model = random_model(rng)
        theta = float(10.0 ** rng.uniform(-3.0, 0.0))
        pn0 = float(10.0 ** rng.uniform(2.0, 6.0))
        lin = wideband_csir(model, theta, T, pn0).ebn0_min_linear
        floor = LN2 / model.moments()[0]
        worst_jensen = max(worst_jensen, floor * (1.0 - slack) - lin)
    ok_jensen = worst_jensen <= 0.0

    elapsed = time.monotonic() - t0
    ok = (
        ok_concave
        and ok_rate
        and ok_sandwich
        and ok_csit
        and ok_jensen
        and elapsed < 120.0
    )
    _report(
        6,
        ok,
        f"property suites at {n_draws} draws each (slack 1e-9): "
        f"concavity max 2nd divided difference {worst_dd:.1e}; "
        f"rate-vs-bandwidth worst relative drop {worst_drop:.1e}; "
        f"sandwich worst excess {worst_sandwich:.1e}; "
        f"CSIT-below-CSIR worst excess {worst_gap:.1e}; "
        f"wideband floor vs ln2/E{{z}} worst shortfall {worst_jensen:.1e}; "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_queue_tail_decay_matches_qos_exponent():
    t0 = time.monotonic()
    theta = 0.05
    qos = QosConfig(theta=theta, T=T, B=B)
    arrival = predicted_effective_capacity(RAY, 1.0, qos, "csir")
    thresholds = tuple(k / theta for k in range(2, 9))
    decays = []
    for seed in range(5):
        est = simulate_queue(
            SimConfig(
                model=RAY,
                snr=1.0,
                qos=qos,
                mode="csir",
                arrival_rate=arrival,
                frames=10_000_000,
                seed=seed,
                q_thresholds=thresholds,
            )
        )
        decays.append(est.fitted_decay)
    mean_decay = sum(decays) / len(decays)
    ratio = mean_decay / theta
    elapsed = time.monotonic() - t0
    ok = abs(ratio - 1.0) <= 0.15 and elapsed < 300.0
    _report(
        7,
        ok,
        f"queue tail at arrival = effective capacity: mean fitted decay "
        f"{mean_decay:.5f} vs theta {theta} (ratio {ratio:.4f}, tol 15%), "
        f"5 seeds x 1e7 frames, {elapsed:.1f}s (budget 300s)",
    )
    assert ok


def _load_sweep(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _curves_by_theta(doc):
    return {c["theta"]: c for c in doc["curves"]}


def test_figure_datasets_regenerate(tmp_path):
    t0 = time.monotonic()
    datasets = {
        "csir_lowpower": ["sweep"],
        "csit_lowpower": ["sweep", "--mode", "csit"],
        "csir_wideband": ["sweep", "--regime", "wideband"],
        "csit_wideband": ["sweep", "--mode", "csit", "--regime", "wideband"],
        "nakagami2_csit_wideband": [
            "sweep", "--mode", "csit", "--regime", "wideband",
            "--model", "nakagami", "--m", "2",
        ],
    }
    ok = True
    notes = []

    docs = {}
    for name, argv in datasets.items():
        d1 = tmp_path / "a" / name
        d2 = tmp_path / "b" / name
        ok &= main([*argv, "--out", str(d1)]) == 0
        ok &= main([*argv, "--out", str(d2)]) == 0
        files = sorted(os.listdir(d1))
        ok &= files == sorted(os.listdir(d2))
        ok &= sum(f.endswith(".csv") for f in files) == 5
        for f in files:
            a = (d1 / f).read_bytes()
            b = (d2 / f).read_bytes()
            if f.endswith(".csv"):
                ok &= a == b
            else:
                doc_a, doc_b = json.loads(a), json.loads(b)
                doc_a["config"].pop("out")
                doc_b["config"].pop("out")
                ok &= doc_a == doc_b
                docs[name] = doc_a
    ok &= set(docs) == set(datasets)
    notes.append("5 datasets x 2 runs byte-identical CSVs")

    for doc in docs.values():
        curves = _curves_by_theta(doc)
        ok &= sorted(curves) == [0.0, 0.001, 0.01, 0.1, 1.0]
        for c in curves.values():
            ok &= len(c["points"]) == 60
            ses = [p["spectral_efficiency"] for p in c["points"]]
            ok &= all(s is not None for s in ses)
            ok &= all(b > a for a, b in zip(ses, ses[1:]))
    notes.append("every curve gapless, 60 points, SE increasing")

    # stricter QoS never raises the curve (middle of the grid)
    for doc in docs.values():
        mid = [
            _curves_by_theta(doc)[t]["points"][30]["spectral_efficiency"]
            for t in (0.0, 0.001, 0.01, 0.1, 1.0)
        ]
        ok &= all(b <= a * (1.0 + 1e-12) for a, b in zip(mid, mid[1:]))
        ok &= mid[-1] < mid[0]
    notes.append("curves ordered by theta")

    low = _curves_by_theta(docs["csir_lowpower"])
    worst = max(abs(c["points"][0]["ebn0_db"] + 1.59) for c in low.values())
    ok &= worst <= 0.05
    notes.append(f"low-power floor approach max dev {worst:.4f} dB (tol 0.05)")

    wide = _curves_by_theta(docs["csir_wideband"])
    worst = max(
        abs(wide[t]["asymptote"]["s0"] - ref) for t, ref in CSIR_SLOPES.items()
    )
    ok &= worst <= 1e-3
    notes.append(f"wideband slope anchors max dev {worst:.1e} (tol 1e-3)")

    for c in _curves_by_theta(docs["csit_lowpower"]).values():
        asym = c["asymptote"]
        ok &= asym["ebn0_min_db"] == "-inf" and asym["unbounded_support"] is True
    notes.append("transmitter-CSI low-power floor published as -inf")

    txw = _curves_by_theta(docs["csit_wideband"])
    worst = 0.0
    floors = []
    for t in (0.001, 0.01, 0.1, 1.0):
        gap = txw[t]["points"][0]["ebn0_db"] - txw[t]["asymptote"]["ebn0_min_db"]
        worst = max(worst, abs(gap))
        floors.append(txw[t]["asymptote"]["ebn0_min_db"])
    ok &= worst <= 0.1
    ok &= all(b > a for a, b in zip(floors, floors[1:]))
    notes.append(
        f"finite transmitter-CSI floors, approached within {worst:.1e} dB "
        f"(tol 0.1) and increasing in theta"
    )

    nak = _curves_by_theta(docs["nakagami2_csit_wideband"])
    nak2 = NakagamiM(m=2.0, mean=1.0)
    worst = 0.0
    for t in (0.001, 0.01, 0.1, 1.0):
        direct = wideband_csit(nak2, t, T, PN0)
        asym = nak[t]["asymptote"]
        worst = max(
            worst,
            abs(asym["ebn0_min_db"] - direct.ebn0_min_db),
            abs(asym["s0"] - direct.slope_s0) / direct.slope_s0,
        )
    ok &= worst <= 1e-12
    notes.append(f"Nakagami-2 asymptotes match direct computation ({worst:.1e})")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    _report(8, ok, "; ".join(notes) + f", {elapsed:.1f}s (budget 600s)")
    assert ok
