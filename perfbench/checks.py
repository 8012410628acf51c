"""Correctness checks on the JSON artifacts of one pass.

An operation is one numeric result of an artifact: a tradeoff point, a
sweep asymptote, an asymptotics row, an alpha* row, an alpha(zeta) point,
a surface cell, a limits value or a queue fit.  It fails when it is a gap
(None), and its value is wrong when it breaks an invariant of ACCEPTANCE 7
or 8 or, at the default seed, differs from the recorded reference by more
than REL_TOL relative.  Invocation-level checks (exit code, byte-identical
reruns, file names) live in worker.py.
"""

from __future__ import annotations

import math

# Admits the closed-form CSIT slope (<= 4e-7 on alpha_dot_zero) and a
# batched expectation kernel (<= 5e-14) while catching real changes.
REL_TOL = 1e-6
# ACCEPTANCE 7: fitted queue-tail decay within 15% of theta.
DECAY_TOL = 0.15
# ACCEPTANCE 8: stricter QoS never raises the curve (middle of the grid).
ORDER_SLACK = 1e-12
# How close to the outage ceiling a saturated SE value must be.
CEILING_TOL = 1e-12


def operations(doc: dict) -> dict:
    """Numeric results of one artifact, keyed by their path in the document."""
    cmd = doc["command"]
    ops = {}
    if cmd == "sweep":
        for i, c in enumerate(doc["curves"]):
            ops[("curves", i, "asymptote")] = c["asymptote"]
            for j, p in enumerate(c["points"]):
                ops[("curves", i, "points", j)] = p
    elif cmd in ("asymptotics", "alpha-star"):
        for i, r in enumerate(doc["results"]):
            ops[("results", i)] = r
        for i, c in enumerate(doc.get("curves", ())):
            for j, a in enumerate(c["alphas"]):
                ops[("curves", i, "alphas", j)] = a
    elif cmd == "surface":
        for i, row in enumerate(doc["ebn0_min_db"]):
            for j, v in enumerate(row):
                ops[("ebn0_min_db", i, j)] = v
    elif cmd == "limits":
        for k, v in doc["results"].items():
            if k != "snr":
                ops[("results", k)] = v
    elif cmd == "simulate-queue":
        ops[("results",)] = doc["results"]
    else:
        raise ValueError(f"unknown command {cmd!r} in artifact")
    return ops


def _has_gap(cmd: str, value) -> bool:
    if value is None:
        return True
    if isinstance(value, dict):
        # alpha_dot_zero is undefined at theta = 0 by construction.
        return any(
            v is None
            and not (cmd == "alpha-star" and k == "alpha_dot_zero" and value["theta"] == 0)
            for k, v in value.items()
        )
    return False


def _outage_ceiling(config: dict, theta: float) -> float | None:
    """Low-power SE limit -ln P(z = 0) / (theta T B) of a table with a zero atom.

    With probability P(z = 0) no rate is served whatever the power, so a
    low-power curve at theta > 0 rises to this ceiling and, in floating
    point, reaches it exactly; equal points there are not a violation.
    """
    model = config["model"]
    if model["kind"] != "table" or config["regime"] != "lowpower" or theta == 0:
        return None
    p0 = sum(p for z, p in model["points"] if z == 0)
    if p0 <= 0:
        return None
    return -math.log(p0) / (theta * config["T"] * config["B"])


def _near(x: float, ceiling: float | None) -> bool:
    return ceiling is not None and math.isclose(x, ceiling, rel_tol=CEILING_TOL)


def _invariant_failures(doc: dict) -> dict:
    """ACCEPTANCE 7 and 8 violations, keyed by operation."""
    bad = {}
    cmd = doc["command"]
    if cmd == "sweep":
        mids = []
        for i, c in enumerate(doc["curves"]):
            ses = [p["spectral_efficiency"] for p in c["points"]]
            ceiling = _outage_ceiling(doc["config"], c["theta"])
            for j in range(1, len(ses)):
                a, b = ses[j - 1], ses[j]
                if a is None or b is None or b > a:
                    continue
                if not (_near(a, ceiling) and _near(b, ceiling)):
                    bad[("curves", i, "points", j)] = "SE not increasing along grid"
            mid = len(ses) // 2
            mids.append((c["theta"], ("curves", i, "points", mid), ses[mid]))
        mids = [m for m in sorted(mids) if m[2] is not None]
        for (_, _, a), (_, key, b) in zip(mids, mids[1:]):
            if not b <= a * (1.0 + ORDER_SLACK):
                bad[key] = "curves not ordered by theta at mid-grid"
        if len(mids) > 1 and not mids[-1][2] < mids[0][2]:
            bad[mids[-1][1]] = "strictest theta does not lower the mid-grid SE"
    elif cmd == "simulate-queue":
        ratio = doc["results"]["decay_over_theta"]
        if not (isinstance(ratio, float) and abs(ratio - 1.0) <= DECAY_TOL):
            bad[("results",)] = f"fitted decay / theta = {ratio!r}, tolerance {DECAY_TOL}"
    return bad


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def _diff(a, b, path=()):
    """Paths at which two JSON documents differ beyond REL_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            yield path
            return
        for k in a:
            yield from _diff(a[k], b[k], path + (k,))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _diff(x, y, path + (i,))
    elif not _close(a, b):
        yield path


def without_out(doc: dict) -> dict:
    """The document minus its output path, which differs between runs."""
    cfg = {k: v for k, v in doc["config"].items() if k != "out"}
    return {**doc, "config": cfg}


def check(doc: dict, reference: dict | None):
    """(number of operations, gaps, wrong values) for one artifact.

    gaps and wrong map an operation's key to its reason; the key None marks
    a mismatch outside any operation, which counts against the invocation.
    A gap is a failed operation: the program reports, as documented, that
    it could not compute the value.  A wrong value breaks an invariant or,
    at the default seed, the reference, which has no gaps.
    """
    if not isinstance(doc, dict):
        raise ValueError("artifact is not a JSON object")
    cmd = doc["command"]
    ops = operations(doc)
    gaps = {key: "gap" for key, v in ops.items() if _has_gap(cmd, v)}
    wrong = _invariant_failures(doc)
    if reference is not None:
        for path in _diff(without_out(doc), reference):
            key = next(
                (path[:n] for n in range(len(path), 0, -1) if path[:n] in ops), None
            )
            wrong.setdefault(key, f"differs from reference at {'/'.join(map(str, path))}")
    return len(ops), gaps, wrong
