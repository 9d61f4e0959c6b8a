#!/usr/bin/env python3
"""Run one benchmark workload from the root of a taskalloc checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/bench.exe) and the daemon
(bin/taskallocd.exe) from source with dune, runs the workload in a fresh
process, and passes its output through: the last line of standard output
is the JSON result.  Build output goes to standard error.

Smoke mode, for perfbench/selftest.py: --ops N sets up once and times
exactly N ops instead of --seconds.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKDIR = "_perfbench"  # sockets and daemon logs; ignored by git
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int)
    args = ap.parse_args()

    for path in ("dune-project", "lib", os.path.join("bin", "taskallocd.ml")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a taskalloc checkout")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/taskallocd.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join("_build", "default", "bin", "taskallocd.exe"),
        "--workdir", WORKDIR,
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]

    # own process group, so a timeout also takes down any daemon the
    # harness started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"bench.exe exited with {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
