#!/usr/bin/env python3
"""Build and run the simulator-cost benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, summary

Run from the repository root. The benchmark is built from source into
.bench_build/ (Release) before every run; an up-to-date build is a
no-op. The last line of standard output is the benchmark's JSON result.
Build or run failures exit non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["nas_mpi_wan", "lossy_wan_bulk", "kv_quorum_pdes"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark (both are no-ops when up to
    date); build output goes to stderr so standard output stays the
    benchmark's own."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        return 1
    if args.workload != "all":
        rc, out = run(args.workload, args.seed, args.seconds, args.trace)
        if rc != 0:
            # A run that crashed or was killed prints no result line.
            sys.stderr.write(out)
            print(f"run.py: {args.workload} exited with {rc}",
                  file=sys.stderr)
            return 1
        sys.stdout.write(out)
        return 0

    rows = []
    for w in WORKLOADS:
        rc, out = run(w, args.seed, args.seconds, 0)
        if rc != 0:
            sys.stderr.write(out)
            print(f"run.py: {w} exited with {rc}", file=sys.stderr)
            return 1
        sys.stdout.write(out)
        res = json.loads(out.strip().splitlines()[-1])
        m = res["metrics"]
        rows.append((w, m["wall_s"]["value"], m["setup_s"]["value"],
                     m["peak_rss_mb"]["value"],
                     res["failed"] / res["attempted"]))
    print(f"\nseed {args.seed}, tracing off, median over repetitions:")
    print(f"{'workload':<16} {'wall_s (s)':>12} {'setup_s (s)':>12} "
          f"{'peak_rss_mb (MiB)':>18} {'unit_fail_ratio':>16}")
    for w, wall, setup, rss, fail in rows:
        print(f"{w:<16} {wall:>12.6f} {setup:>12.6f} {rss:>18.3f} "
              f"{fail:>16.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
