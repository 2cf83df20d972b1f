#!/usr/bin/env python3
"""Run one perfbench workload and relay its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench_driver (and the library it links) from source into
.bench_build/perfbench; later runs only check that build is current.
The driver's last stdout line is the result object; build output goes
to stderr. With --trace 1 the spans are written to
.bench_build/perfbench-spans/<workload>-seed<N>.jsonl.

Exits non-zero, without printing a result, when the library sources
are not next to perfbench/ or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# Beyond --seconds: set-up, the iteration running when time is up (or
# the three-iteration minimum), the output checks and the queue replay.
DRIVER_MARGIN_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configure once, then bring perfbench_driver up to date."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_driver", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                return False
    return os.path.isfile(DRIVER)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        return fail("library sources not found next to perfbench/")
    if not build():
        return fail("build failed")

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, TPL_SIM_THREADS="1")
    timeout = args.seconds + DRIVER_MARGIN_S
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("driver exceeded %g s" % timeout)


if __name__ == "__main__":
    sys.exit(main())
