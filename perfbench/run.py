#!/usr/bin/env python3
"""End-to-end update benchmark: builds it, then runs one workload.

Builds the benchmark (the library straight from ../src plus perfbench/src)
into .bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload release-train --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1; see perfbench/METRICS.md).
Build output goes to standard error. A traced run also writes its spans,
one JSON object per line, to .bench_build/spans-<workload>-<seed>.jsonl.

    python3 perfbench/run.py --self-check [--seed N] [--other-seed M]

runs the determinism self-check instead: the deterministic metrics must
be identical at --jobs 1 and --jobs nproc and across repeated runs, and
must differ under another seed.

Commits use GCC-RA with UCC-DA. `--ra ucc` commits with UCC-RA (Hybrid)
instead; the library's UCC-RA miscompiles this benchmark's firmware, so
such runs report `"correct": false` until it is fixed (METRICS.md).
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("release-train", "plan-storm", "fleet-rollout")
# The deterministic ledger metrics each workload measures; it reports the
# others as the constant 1 (METRICS.md). energy_savings_pct is not a gated
# metric and comes from a `#` line.
DETERMINISTIC = {
    "release-train": ("script_bytes", "diff_energy_mj", "energy_savings_pct"),
    "plan-storm": (),
    "fleet-rollout": ("script_bytes", "radio_joules"),
}
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; raises on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        jobs = str(min(4, os.cpu_count() or 1))
        out = sys.stderr
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=out, stderr=out)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=out, stderr=out)


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def ledger_of(stdout, res):
    """The deterministic metrics of a run: its result's, plus `# name=value`
    lines."""
    vals = {m: v["value"] for m, v in res["metrics"].items()}
    for line in stdout.splitlines():
        m = re.fullmatch(r"# (\w+)=(\S+)", line.strip())
        if m:
            vals[m.group(1)] = float(m.group(2))
    return vals


def self_check(seed, other_seed, ra):
    jobs_n = max(1, min(4, os.cpu_count() or 1))
    ok = True
    for w in WORKLOADS:
        runs = {}
        for label, s, j in (("jobs1", seed, 1), (f"jobs{jobs_n}", seed, jobs_n),
                            ("repeat", seed, 1), ("other-seed", other_seed, 1)):
            code, out = run_binary(["--workload", w, "--seed", str(s),
                                    "--seconds", "1", "--trace", "0",
                                    "--jobs", str(j), "--ra", ra])
            res = result_of(out) if code == 0 else None
            if res is None:
                print(f"{w}: {label} run failed")
                ok = False
                break
            vals = ledger_of(out, res)
            runs[label] = {m: vals[m] for m in DETERMINISTIC[w]}
            runs[label]["correct"] = res["correct"]
        else:
            base = runs["jobs1"]
            same = all(runs[l] == base for l in runs if l != "other-seed")
            differs = all(runs["other-seed"][m] != base[m]
                          for m in DETERMINISTIC[w])
            # Agreement between runs that failed their checks proves nothing.
            correct = all(r["correct"] for r in runs.values())
            ok &= same and differs and correct
            for label, vals in runs.items():
                names = DETERMINISTIC[w] + ("correct",)
                print(f"{w:14s} {label:10s} " + " ".join(
                    f"{m}={vals[m]!r}" for m in names))
            print(f"{w:14s} identical across jobs and repeats: {same}; "
                  f"differs under seed {other_seed}: {differs}; "
                  f"all runs correct: {correct}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--other-seed", type=int, default=2)
    p.add_argument("--ra", choices=("gcc", "ucc"), default="gcc")
    a = p.parse_args()
    if not a.self_check and a.workload is None:
        p.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if a.self_check:
        return self_check(a.seed, a.other_seed, a.ra)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--ra", a.ra]
    if a.jobs > 0:
        args += ["--jobs", str(a.jobs)]
    if a.trace:
        args += ["--spans", os.path.join(
            BUILD_ROOT, f"spans-{a.workload}-{a.seed}.jsonl")]
    try:
        code, out = run_binary(args)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if code != 0 or result_of(out) is None:
        print(f"perfbench: benchmark exited with {code}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
