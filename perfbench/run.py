#!/usr/bin/env python3
"""Build sectorpack from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build (or $CARGO_TARGET_DIR, relative to the repository root); later
calls only rebuild what changed. The workload runs in its own process; its
last line of standard output is the JSON result. Build output goes to
standard error. Exit codes: 0 when every output check passed, 1 when some
check failed, 2 on a usage, build or set-up error (no result printed).
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_solve", "huge_solve", "batch_mix", "serve_churn")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configure once, then build `targets`; compiler output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no sectorpack source tree at {ROOT}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  *targets])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return out


def run_workload(args):
    out = build(["perfbench", "sectorpack_cli"])
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--cli", str(out / "sectorpack" / "tools" / "sectorpack"),
           "--work", str(out / "work")]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the solver children.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return 2


def selftest():
    """The C++ self-tests, then BENCHMARK.json against the metric lists."""
    out = build(["perfbench_selftest", "perfbench"])
    code = subprocess.run([str(out / "perfbench_selftest")],
                          check=False).returncode
    listed = subprocess.run([str(out / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True,
                            check=True).stdout.split("\n")
    kinds = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        kinds[kind].append((name, unit))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, metrics in kinds.items():
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != metrics:
            problems.append(f"BENCHMARK.json {kind} {declared} != "
                            f"perfbench {metrics}")
        problems += [f"bad metric name {name}" for name, _ in metrics
                     if not NAME.fullmatch(name)]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"BENCHMARK.json check: {'ok' if not problems else 'FAILED'}")
    return 1 if code != 0 or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
