#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload br_certify --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the gncg library from
src/ plus the perfbench driver, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload in one driver process and
prints the driver's result object as the last line of stdout.  Build logs and
progress go to stderr; the full per-run record (provenance, per-repetition
determinism digests, failures) and, with --trace 1, the span traces are
written atomically under .bench_out/.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("br_certify", "dynamics", "approx_ne")
RUN_TIMEOUT_S = 170  # one run must end within 180 s
BUILD_JOBS = "4"


def run_checked(cmd, timeout=None):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_checked(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    return run_checked(["cmake", "--build", build_dir, "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    code = build(build_dir)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code or 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.abspath(".bench_out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"perfbench: driver failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    lines = out.strip().splitlines()
    if not lines:
        print("perfbench: driver printed no result", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
