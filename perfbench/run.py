#!/usr/bin/env python3
"""Builds the SUT and the benchmark program from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-nyc --seed 1 --seconds 12 --trace 0

The SUT is the repository's own `sofia-cli` binary, built unmodified with
`cargo build --release -p sofia-cli`; the load generator is the
`sofia-perfbench` package next to this file. Both land in `$CARGO_TARGET_DIR` (default
`.bench_build`). Per-run scratch files (checkpoint directories, span
dumps) live under `.bench_run` and are removed after each run, except the
last span dump of each workload.

The generator's output passes through unchanged; its last line is the JSON
result. A watchdog stops the generator and every process it started if a
run outlives its time budget.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds one run may take once everything is built.
RUN_BUDGET_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "sofia-cli"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root; "
                 "run from a full checkout")
    build(target_dir)
    workdir = os.path.join(ROOT, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    # A run removes its own directory when it ends; one that was killed
    # leaves it behind, so clear those (runs never overlap in a checkout).
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "sofia-perfbench"), *sys.argv[1:],
           "--sut", os.path.join(release, "sofia-cli"), "--workdir", workdir]
    # A session of its own, so one signal stops the generator and the SUT
    # processes it launched: on the watchdog, and when this script is
    # itself told to stop.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        code = proc.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s and was stopped" % RUN_BUDGET_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
