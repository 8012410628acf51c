"""The benchmark's workloads: the CLI invocations each one runs, per seed.

Every workload is one process and one thread running a closed loop: each
invocation starts after the previous one returns.  Seed 0 is the default
and reproduces the reference argv exactly (CLI defaults, no jitter).  Any
other seed draws, from its own stream:

* a log-jitter of up to 5% of every non-zero theta and of the Nakagami m;
* the atoms of the discrete `table` model (up to 20% jitter per value);
* the `simulate-queue` seeds.

The program sees only the resulting argv and config files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# CLI defaults that a jittered argv has to spell out.
_CLI_THETAS = (0.0, 0.001, 0.01, 0.1, 1.0)
_CLI_SURFACE_THETAS = tuple(10.0 ** (-3.0 + 3.0 * k / 19) for k in range(20))
_CLI_QUEUE_THETA = 0.05

TABLE_POINTS = ((0.0, 0.1), (0.3, 0.2), (1.0, 0.4), (2.5, 0.3))
QUEUE_FRAMES = 10_000_000

WHY = {
    "csit-continuous": "Rayleigh and Nakagami-2 CSIT figures: the threshold "
    "solver and quadrature do almost all the work",
    "csir-continuous": "CSIR figures: quadrature and CLI output with the "
    "threshold solver bypassed, so a solver change should show no change",
    "discrete-and-queue": "4-atom table through the exact atom-sum branch "
    "(solves, no quadrature) plus two 1e7-frame Lindley queue runs",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a stable label, its argv (without --out) and frames."""

    label: str
    argv: tuple
    frames: int = 0


class _Draw:
    """Seeded perturbations; the default seed perturbs nothing."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def jitter(self, x: float, width: float = 0.05) -> float:
        if self.rng is None or x == 0:
            return x
        return x * math.exp(self.rng.uniform(-width, width))

    def thetas(self, values) -> list:
        """--theta flag with jittered values, or nothing at the default seed."""
        if self.rng is None:
            return []
        return ["--theta", ",".join(repr(self.jitter(t)) for t in values)]

    def nakagami(self, m: float) -> list:
        text = f"{m:g}" if self.rng is None else repr(self.jitter(m))
        return ["--model", "nakagami", "--m", text]

    def queue_seed(self) -> list:
        if self.rng is None:
            return []
        return ["--seed", str(self.rng.randrange(2**31))]

    def table(self) -> list:
        if self.rng is None:
            return [list(pt) for pt in TABLE_POINTS]
        zs = [self.jitter(z, 0.2) for z, _ in TABLE_POINTS]
        ps = [self.jitter(p, 0.2) for _, p in TABLE_POINTS]
        total = sum(ps)
        return [[z, p / total] for z, p in zip(zs, ps)]


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _queue(draw: _Draw, cfg: str, mode: list) -> Invocation:
    argv = ["simulate-queue", "--config", cfg, *mode]
    argv += draw.thetas([_CLI_QUEUE_THETA]) + draw.queue_seed()
    label = " ".join(["simulate-queue", *mode])
    return Invocation(label, tuple(argv), QUEUE_FRAMES)


def build(workload: str, seed: int, confdir: str) -> list[Invocation]:
    """The invocations of one pass; config files are written to confdir."""
    draw = _Draw(seed)
    inv = []

    def add(label, *argv):
        inv.append(Invocation(label, tuple(argv)))

    if workload == "csit-continuous":
        th = draw.thetas(_CLI_THETAS)
        add("sweep csit", "sweep", "--mode", "csit", *th)
        add("sweep csit wideband",
            "sweep", "--mode", "csit", "--regime", "wideband", *th)
        add("asymptotics csit wideband",
            "asymptotics", "--mode", "csit", "--regime", "wideband", *th)
        add("alpha-star", "alpha-star", *th)
        add("surface csit",
            "surface", "--mode", "csit", *draw.thetas(_CLI_SURFACE_THETAS))
        add("sweep csit nakagami2",
            "sweep", "--mode", "csit", *draw.nakagami(2.0), *th)
    elif workload == "csir-continuous":
        th = draw.thetas(_CLI_THETAS)
        add("sweep", "sweep", *th)
        add("sweep wideband", "sweep", "--regime", "wideband", *th)
        add("asymptotics", "asymptotics", *th)
        add("asymptotics wideband", "asymptotics", "--regime", "wideband", *th)
        add("surface", "surface", *draw.thetas(_CLI_SURFACE_THETAS))
        add("limits", "limits")
        add("sweep nakagami0.6", "sweep", *draw.nakagami(0.6), *th)
        add("sweep wideband nakagami2",
            "sweep", "--regime", "wideband", *draw.nakagami(2.0), *th)
    elif workload == "discrete-and-queue":
        table = _write_json(
            os.path.join(confdir, "table.json"),
            {"model": {"kind": "table", "points": draw.table()}},
        )
        th = draw.thetas(_CLI_THETAS)
        add("table sweep csit", "sweep", "--config", table, "--mode", "csit", *th)
        add("table sweep csit wideband", "sweep", "--config", table,
            "--mode", "csit", "--regime", "wideband", *th)
        add("table sweep wideband",
            "sweep", "--config", table, "--regime", "wideband", *th)
        add("table alpha-star", "alpha-star", "--config", table, *th)
        add("table surface csit", "surface", "--config", table, "--mode", "csit",
            *draw.thetas(_CLI_SURFACE_THETAS))
        queue = _write_json(
            os.path.join(confdir, "queue.json"), {"frames": QUEUE_FRAMES}
        )
        inv.append(_queue(draw, queue, []))
        inv.append(_queue(draw, queue, ["--mode", "csit"]))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inv
