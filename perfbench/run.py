#!/usr/bin/env python3
"""Build and run the repository's wall-clock benchmark.

    python3 perfbench/run.py --workload sim-ring --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds the octopusd daemon and the
perfbench harness (perfbench/*.go) into .bench_build/, with the Go build
cache there too, outside any timed phase; then runs one workload and
passes its output through. The last line of standard output is the JSON
result; the exit code is non-zero, with no result printed, if the build,
the run, or a correctness check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sim-ring", "tcp-lookup", "tcp-store")
# The harness stops itself after 170 s; this is the backstop.
RUN_TIMEOUT = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and never
    # reach for the network or another toolchain.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    octopusd = os.path.join(build, "octopusd")
    harness = os.path.join(build, "perfbench")
    steps = [
        (root, ["go", "build", "-o", octopusd, "./cmd/octopusd"]),
        (bench_dir, ["go", "build", "-o", harness, "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    workdir = os.path.join(build, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [harness, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-octopusd", octopusd, "-workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)

    def stop(signum, _frame):
        # Forward to the harness, which kills its daemons before exiting.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if code == 0:
        shutil.rmtree(workdir, ignore_errors=True)  # kept for diagnosis otherwise
    return code


if __name__ == "__main__":
    sys.exit(main())
