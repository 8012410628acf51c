"""One workload in a fresh process: a warm-up pass, timed passes, checks.

run.py starts this script with the BLAS thread cap and PYTHONPATH set and
reads the JSON object it prints as its last line.  Each pass calls
`qos_energy.cli.main(argv)` in-process for every invocation of the
workload, in order, each writing to its own output directory.

Checks, each failure counted against the operations attempted:
* every invocation exits 0, in every pass;
* every numeric result is present (no gap);
and, when broken, the output is also counted as wrong:
* every pass writes byte-identical files to the warm-up pass (traced
  passes included);
* every numeric result passes the invariants of checks.check and, at the
  default seed, matches the recorded reference.
The per-layer counts of a traced pass are exact: two traced runs of one
seed must report the same counts (one traced pass per run keeps a
csit-continuous run inside its time limit on a slow host).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import calibration
import checks
import tracer
import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def _run_pass(cli, invocations, outdirs):
    """Wall time and exit code of each invocation, run back to back.

    Also returns the calibration kernel's time before each invocation and
    after the last, untimed.
    """
    for d in outdirs:
        shutil.rmtree(d, ignore_errors=True)
    times, codes, kernel = [], [], []
    for inv, out in zip(invocations, outdirs):
        kernel.append(calibration.kernel_s())
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main([*inv.argv, "--out", out])
        times.append(time.perf_counter() - t0)
        codes.append(code)
    kernel.append(calibration.kernel_s())
    return times, codes, kernel


def _snapshot(outdirs):
    """Per invocation {file name: sha256}, and the bytes written in total."""
    snap, total = [], 0
    for d in outdirs:
        files = {}
        for name in sorted(os.listdir(d)) if os.path.isdir(d) else ():
            with open(os.path.join(d, name), "rb") as fh:
                data = fh.read()
            files[name] = hashlib.sha256(data).hexdigest()
            total += len(data)
        snap.append(files)
    return snap, total


def _load_docs(outdir: str) -> dict:
    """The JSON artifacts of one invocation; None for one that does not parse."""
    docs = {}
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        if name.endswith(".json"):
            with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                try:
                    docs[name] = json.load(fh)
                except json.JSONDecodeError:
                    docs[name] = None
    return docs


class Ledger:
    """Operations attempted and, for each one that failed, the first reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}
        self.wrong = set()

    def fail(self, op: str, why: str, wrong: bool = True):
        """Record a failed operation; wrong=False for one that gave no value."""
        if wrong:
            self.wrong.add(op)
            self.failed[op] = why
        else:
            self.failed.setdefault(op, why)

    def invocations(self, invocations, codes, snap, first_snap, tag):
        for k, inv in enumerate(invocations):
            self.attempted += 1
            if codes[k] != 0:
                self.fail(f"{tag} {inv.label}", f"exit code {codes[k]}", wrong=False)
            elif snap[k] != first_snap[k]:
                self.fail(f"{tag} {inv.label}", "output differs from warm-up pass")

    def results(self, inv, outdir, reference):
        """Checks the warm-up pass's artifacts of one invocation."""
        ref = None if reference is None else reference[inv.label]
        if ref is not None and sorted(os.listdir(outdir)) != ref["files"]:
            self.fail(f"warm-up pass {inv.label}", "file names differ from reference")
        for name, doc in _load_docs(outdir).items():
            ref_doc = None if ref is None else ref["docs"].get(name)
            try:
                n, gaps, wrong = checks.check(doc, ref_doc)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                n, gaps, wrong = 1, {}, {None: f"malformed artifact ({exc!r})"}
            self.attempted += n
            for bad, is_wrong in ((gaps, False), (wrong, True)):
                for key, why in bad.items():
                    if key is None:  # outside any result: counts against the invocation
                        self.fail(f"warm-up pass {inv.label}", f"{name}: {why}", is_wrong)
                    else:
                        op = f"{inv.label}: {name}: {'/'.join(map(str, key))}"
                        self.fail(op, why, is_wrong)

    def reasons(self) -> list:
        return [f"{op}: {why}" for op, why in self.failed.items()]


def _record_reference(workload, invocations, outdirs):
    ref = {}
    for inv, d in zip(invocations, outdirs):
        docs = _load_docs(d)
        ref[inv.label] = {
            "files": sorted(os.listdir(d)),
            "docs": {name: checks.without_out(doc) for name, doc in docs.items()},
        }
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _traced_pass(cli, invocations, outdirs, first_snap, ledger):
    """One traced pass; returns its time in reference seconds and the
    per-layer metrics."""
    tr = tracer.Tracer()
    tr.install()
    try:
        times, codes, kernel = _run_pass(cli, invocations, outdirs)
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    snap, metrics["cli.bytes_written"] = _snapshot(outdirs)
    ledger.invocations(invocations, codes, snap, first_snap, "traced pass")
    return calibration.scale(sum(times), kernel), metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True, help="scratch directory for artifacts")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--record", action="store_true", help="write the reference and stop")
    args = p.parse_args(argv)

    import numpy
    import scipy
    import qos_energy.cli as cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qos_energy imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    confdir = os.path.join(args.tmp, "conf")
    os.makedirs(confdir, exist_ok=True)
    invocations = workloads.build(args.workload, args.seed, confdir)
    outdirs = [os.path.join(args.tmp, "out", str(k)) for k in range(len(invocations))]
    ledger = Ledger()

    warm_times, codes, _ = _run_pass(cli, invocations, outdirs)
    first_snap, _ = _snapshot(outdirs)
    if args.record:
        if args.seed != workloads.DEFAULT_SEED or any(codes):
            print("references are recorded at the default seed, from clean runs",
                  file=sys.stderr)
            return 1
        _record_reference(args.workload, invocations, outdirs)
        return 0
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(_reference_path(args.workload), encoding="utf-8") as fh:
            reference = json.load(fh)
    ledger.invocations(invocations, codes, first_snap, first_snap, "warm-up pass")
    for inv, d in zip(invocations, outdirs):
        ledger.results(inv, d, reference)

    pass_s, pass_ref_s, queue_s = [], [], []
    per_invocation = [[t] for t in warm_times]
    start = time.perf_counter()
    while True:
        times, codes, kernel = _run_pass(cli, invocations, outdirs)
        for samples, t in zip(per_invocation, times):
            samples.append(t)
        snap, _ = _snapshot(outdirs)
        ledger.invocations(invocations, codes, snap, first_snap, f"pass {len(pass_s) + 1}")
        pass_s.append(sum(times))
        pass_ref_s.append(calibration.scale(sum(times), kernel))
        queue_s.append(sum(t for t, inv in zip(times, invocations) if inv.frames))
        if time.perf_counter() - start + statistics.median(pass_s) > args.seconds:
            break

    result = {
        "pass_s": pass_s,
        "pass_ref_s": pass_ref_s,
        "warmup_s": sum(warm_times),
        # Warm-up pass first, then the timed passes.
        "invocation_s": {inv.label: ts for inv, ts in zip(invocations, per_invocation)},
        "frames": sum(inv.frames for inv in invocations),
        "queue_s": queue_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        traced_s, per_layer = _traced_pass(cli, invocations, outdirs, first_snap, ledger)
        per_layer["trace.overhead_s"] = traced_s - statistics.median(pass_ref_s)
        result["traced_pass_s"] = traced_s
        result["per_layer"] = per_layer
    result["attempted"] = ledger.attempted
    result["failures"] = ledger.reasons()
    result["wrong"] = len(ledger.wrong)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
