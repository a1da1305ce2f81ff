#!/usr/bin/env python3
"""Run one benchmark workload from the root of a pcaml source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/e2e.exe with dune (inside the checkout, shared dune cache
off), then runs the workload in its own process. The workload's progress
lines and, as the last line of standard output, its result object
{"correct", "attempted", "failed", "metrics"} pass through unchanged.
With --trace 1 the metrics are the per-layer ones and the sampled spans go
to _perfbench/trace-NAME-N.json as a Chrome trace.

Exits non-zero, printing no result, when the checkout is incomplete or the
build fails; exits 1 when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["check-german", "check-usb", "check-fig8", "serve-sink", "serve-echo"]
EXE = os.path.join("_build", "default", "perfbench", "e2e.exe")
OUT_DIR = "_perfbench"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    for need in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(need):
            fail("run from the root of a pcaml source checkout (%s is missing)" % need)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/e2e.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    cmd = [EXE, "run", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), code=3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
