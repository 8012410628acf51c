"""Compare the CLI's artifacts from the working tree with those of a git revision.

    python tools/artifact_diff.py [REV] [--seeds 0 3]

Run from the root of a checkout.  The `src` directory of REV (default
HEAD) is extracted with `git archive REV src | tar -x` into a temporary
directory, so no worktree is left behind.  Every argv that
perfbench/workloads.py builds for every workload at each seed runs once
with each tree, in one interpreter per tree.  The `--out` directories
differ, so the path each JSON artifact records is masked before the
bytes are compared.  Prints the line count of src/qos_energy in both
trees, with one line under it per module whose count changed, then "N of
M artifacts byte-identical", then for each artifact
that differs the largest relative move of its numbers, and the largest
absolute move, in dB, of its values in dB (JSON keys and CSV columns
named "*_db"), each with the JSON key or CSV column where it happened.
Exits 1 if any artifact or exit code differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# Runs each argv of the JSON list on stdin in this interpreter and prints
# the exit codes, as JSON, on the last line.
RUNNER = """
import contextlib, io, json, sys
from qos_energy.cli import main
jobs = json.load(sys.stdin)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in jobs]
print(json.dumps(codes))
"""


def run_tree(src: str, jobs: list) -> list:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(jobs),
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"the CLI runner failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def source_lines(src: str) -> dict:
    """Module name -> lines, for the .py files of the qos_energy package
    under src."""
    pkg = os.path.join(src, "qos_energy")
    lines = {}
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines[name[:-3]] = fh.read().count(b"\n")
    return lines


def artifacts(outdirs: list) -> dict:
    """Relative path -> bytes of every file, with the --out path masked."""
    found = {}
    for out in outdirs:
        # the path as the JSON artifacts spell it
        masked = json.dumps(out)[1:-1].encode()
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            found[os.path.join(os.path.basename(out), name)] = data.replace(
                masked, b"<out>")
    return found


def numbers(data: bytes, name: str) -> list:
    """(value, key) for every number of an artifact, in document order;
    key is the JSON key the number sits under (the nearest one, for a
    list item) or its CSV column, "" at the top of a JSON document."""
    text = data.decode()
    if name.endswith(".csv"):
        head, *rows = csv.reader(io.StringIO(text))
        leaves = [(cell, col) for row in rows for col, cell in zip(head, row)]
    else:
        leaves, stack = [], [(json.loads(text), "")]
        while stack:
            node, key = stack.pop()
            if isinstance(node, dict):
                stack.extend((node[k], k) for k in sorted(node, reverse=True))
            elif isinstance(node, list):
                stack.extend((item, key) for item in reversed(node))
            else:
                leaves.append((node, key))
    out = []
    for leaf, key in leaves:
        try:
            out.append((float(leaf), key))
        except (TypeError, ValueError):
            pass
    return out


def largest_move(old: bytes, new: bytes, name: str) -> str:
    """The largest relative move of the numbers, and the largest absolute
    move in dB of the values in dB (keys "*_db"), which a relative move
    inflates near 0 dB, each followed by the key where it happened."""
    a, b = numbers(old, name), numbers(new, name)
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    worst = {False: (0.0, ""), True: (0.0, "")}
    for (x, key), (y, _) in zip(a, b):
        if x == y or math.isnan(x) and math.isnan(y):
            continue
        in_db = key.endswith("_db")
        if in_db:
            move = abs(x - y) if math.isfinite(x - y) else math.inf
        else:
            scale = max(abs(x), abs(y))
            move = abs(x - y) / scale if math.isfinite(scale) else math.inf
        worst[in_db] = max(worst[in_db], (move, key), key=lambda m: m[0])

    def moved(in_db):
        move, key = worst[in_db]
        return f"{move:.3g}" + (" dB" if in_db else "") + (f" ({key})" if move else "")

    text = f"largest relative move {moved(False)}"
    if any(key.endswith("_db") for _, key in a):
        text += f", largest move in dB {moved(True)}"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        base = os.path.join(tmp, "base")
        os.makedirs(base)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(archive.stderr.decode(errors="replace"))
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout, check=True)
        jobs = []
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                confdir = os.path.join(tmp, f"conf_s{seed}_{workload}")
                os.makedirs(confdir)
                for i, inv in enumerate(workloads.build(workload, seed, confdir)):
                    jobs.append((f"s{seed}_{workload}_{i:02d}", inv.argv))
        found, codes, lines = {}, {}, {}
        for tree, src in (("base", os.path.join(base, "src")),
                          ("head", os.path.join(ROOT, "src"))):
            lines[tree] = source_lines(src)
            outdirs = [os.path.join(tmp, tree, label) for label, _ in jobs]
            codes[tree] = run_tree(src, [[*argv, "--out", out]
                                         for (_, argv), out in zip(jobs, outdirs)])
            found[tree] = artifacts([out for out in outdirs if os.path.isdir(out)])
    base_n, head_n = sum(lines["base"].values()), sum(lines["head"].values())
    print(f"src/qos_energy: {base_n} lines at {args.rev}, {head_n} in the "
          f"working tree ({head_n - base_n:+d})")
    for module in sorted(set(lines["base"]) | set(lines["head"])):
        old, new = lines["base"].get(module, 0), lines["head"].get(module, 0)
        if old != new:
            print(f"  {module} {old} -> {new} ({new - old:+d})")
    names = sorted(set(found["base"]) | set(found["head"]))
    same = [n for n in names if found["base"].get(n) == found["head"].get(n)]
    print(f"{len(same)} of {len(names)} artifacts byte-identical "
          f"({len(jobs)} invocations, {args.rev} against the working tree)")
    for name in names:
        old, new = found["base"].get(name), found["head"].get(name)
        if old is None or new is None:
            print(f"  {name}: only in {'head' if old is None else 'base'}")
        elif old != new:
            print(f"  {name}: {largest_move(old, new, name)}")
    moved = [(job[0], a, b) for job, a, b in zip(jobs, codes["base"], codes["head"])
             if a != b]
    for label, a, b in moved:
        print(f"  {label}: exit {a} against {b}")
    return 0 if len(same) == len(names) and not moved else 1


if __name__ == "__main__":
    sys.exit(main())
