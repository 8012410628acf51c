"""End-to-end benchmark of the qos-energy CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, summary
    python3 perfbench/run.py --workload NAME --record-reference

Run from the root of a checkout; the program is imported from its `src`
directory, never from an installed copy.  For each workload the benchmark

1. times a fresh interpreter finishing `import qos_energy.cli`, once to
   warm the byte-code cache and then SETUP_SAMPLES times, half of them
   before step 2 and half after (`setup_s` is the median);
2. starts worker.py in a fresh process with BLAS capped at one thread; it
   runs one warm-up pass over the workload's invocations, then timed passes
   for about --seconds (at least one), and checks every output (`pass_s`
   is the median pass);
3. with --trace 1, adds one traced pass that reports per-layer metrics
   (see tracer.py) instead of the end-to-end ones.

`setup_s` and `pass_s` are in reference seconds: each wall time is scaled
by the calibration kernel timed next to it (see calibration.py), because
this host's speed drifts by up to 2x between runs.  The wall times are
printed and stored too, as `setup_wall_s` and `pass_wall_s`.

Artifacts go to a temporary directory under the checkout, removed at exit.
Human-readable lines (each metric with its unit, quartiles and sample
count, failed_ratio, frames_per_s where it applies, and the environment
record) precede the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts failed
operations (non-zero exits, gaps and wrong outputs); `correct` is false
when any output was wrong, and then the exit status is 1.
QOS_ENERGY_QUAD_TOL changes the numerics, so the benchmark refuses to run
with it set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_SAMPLES = 6
# Every run must end within this many seconds, builds aside.
DEADLINE_S = 170.0
BLAS_CAP = "1"
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _quartiles(values) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_CAP for var in BLAS_VARS})
    env["PYTHONPATH"] = SRC
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qos_energy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _setup_times(env: dict, cwd: str, deadline: float, n: int, warm: bool) -> list:
    """(wall time, kernel times before it) of n fresh interpreters importing
    qos_energy.cli.

    With warm, one more import runs first, unmeasured: it writes the
    byte-code cache of a fresh checkout.
    """
    code = "import qos_energy.cli as c; print(c.__file__)"
    samples = []
    for k in range(n + warm):
        kernel = [calibration.kernel_s() for _ in range(3)]
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        dt = time.perf_counter() - t0
        if out.returncode != 0:
            raise BenchError(f"import qos_energy.cli failed:\n{out.stderr}")
        if not os.path.realpath(out.stdout.strip()).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"qos_energy.cli resolved to {out.stdout.strip()}, not under {SRC}")
        if k or not warm:
            samples.append((dt, kernel))
    return samples


def _run_worker(args, workload, env, tmp, deadline, record=False) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", tmp, "--src", SRC,
    ]
    if record:
        cmd.append("--record")
    try:
        out = subprocess.run(
            cmd, env=env, cwd=tmp, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if out.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {out.returncode}")
    if record:
        return {}
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    """Set-up timing and one worker for one workload; the full record."""
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT)
    try:
        env = _child_env()
        if args.record_reference:
            _run_worker(args, workload, env, tmp, deadline, record=True)
            return {}
        # Half the set-up samples before the worker and half after, so
        # that one slow spell of the host does not set the median.
        half = SETUP_SAMPLES // 2
        setup = _setup_times(env, tmp, deadline, half, warm=True)
        res = _run_worker(args, workload, env, tmp, deadline)
        setup += _setup_times(env, tmp, deadline, SETUP_SAMPLES - half, warm=False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(TMP_PARENT)
    failed = len(res["failures"])
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": _quartiles([calibration.scale(t, k) for t, k in setup]),
        "setup_wall_s": _quartiles([t for t, _ in setup]),
        "pass_s": _quartiles(res["pass_ref_s"]),
        "pass_wall_s": _quartiles(res["pass_s"]),
        "warmup_pass_s": res["warmup_s"],
        "invocation_s": res["invocation_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failed": failed,
        "failed_ratio": failed / res["attempted"],
        "wrong": res["wrong"],
        "failures": res["failures"],
        "env": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            **res["versions"],
            "blas_threads": {var: BLAS_CAP for var in BLAS_VARS},
            "calibration_reference_s": calibration.REFERENCE_S,
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "commit": _commit(),
            "src_sha256": _src_digest(),
        },
    }
    if res["frames"]:
        record["frames_per_s"] = _quartiles([res["frames"] / t for t in res["queue_s"]])
    if args.trace:
        record["traced_pass_s"] = res["traced_pass_s"]
        record["per_layer"] = res["per_layer"]
    return record


def _summary_lines(rec: dict) -> list:
    def timing(name, unit, q):
        return (f"  {name:<14}{q['median']:.6g} {unit}  "
                f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})")

    lines = [f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}",
             timing("setup_s", "s", rec["setup_s"]),
             timing("setup_wall_s", "s", rec["setup_wall_s"]),
             timing("pass_s", "s", rec["pass_s"]),
             timing("pass_wall_s", "s", rec["pass_wall_s"])]
    if "frames_per_s" in rec:
        lines.append(timing("frames_per_s", "1/s", rec["frames_per_s"]))
    lines.append(f"  {'failed_ratio':<14}{rec['failed_ratio']:.6g} ratio  "
                 f"({rec['failed']} of {rec['attempted']} operations failed, "
                 f"{rec['wrong']} of them with wrong output)")
    lines.append(f"  {'peak_rss_mb':<14}{rec['peak_rss_mb']:.6g} MiB")
    lines += [f"  FAILED {why}" for why in rec["failures"][:20]]
    for name, unit, _ in tracer.METRICS if "per_layer" in rec else ():
        lines.append(f"  {name:<44}{rec['per_layer'][name]:.6g} {unit}")
    lines.append("  env " + json.dumps(rec["env"], sort_keys=True))
    return lines


def _contract_line(rec: dict) -> dict:
    if rec["trace"]:
        metrics = {name: {"value": rec["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracer.METRICS}
    else:
        metrics = {
            "pass_s": {"value": rec["pass_s"]["median"], "unit": "s"},
            "setup_s": {"value": rec["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MiB"},
        }
    return {"correct": rec["wrong"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="also write the full records (JSON) here")
    p.add_argument("--record-reference", action="store_true",
                   help="record the default-seed reference artifacts and stop")
    args = p.parse_args(argv)
    if "QOS_ENERGY_QUAD_TOL" in os.environ:
        print("QOS_ENERGY_QUAD_TOL is set; it changes the numerics, refusing to run",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "qos_energy", "cli.py")):
        print(f"no qos_energy sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        print("references are recorded at the default seed", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(args, name))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.record_reference:
        return 0
    if args.results:
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
    for rec in records:
        print("\n".join(_summary_lines(rec)))
    lines = {rec["workload"]: _contract_line(rec) for rec in records}
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(rec["wrong"] == 0 for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
