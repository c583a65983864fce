#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built from
source with dune into .bench_build/, then started once for the workload.
Its result (the last line of stdout) is checked against the metric
catalogue in BENCHMARK.json and printed as the last line of this
script's stdout. Stamps and, for traced runs, span files are written to
.bench_build/perfbench/.

Exit status: 0 when the run completed and every correctness check
passed; 1 when a check failed; 2 when the benchmark could not be built
or run (nothing is printed on stdout then).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "main.exe")
WORKLOADS = ("sim", "verify", "native-forkjoin", "native-service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Workloads that search on one domain run pinned to one processor, and
# their calibration child with them. The two vCPUs of a small shared
# virtual machine need not run at one speed; unpinned, the search and its
# calibration could land on different ones.
ONE_CPU = ("verify",)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from a checkout of the repository" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir",
           os.path.join(BUILD_DIR, "dune"), "--profile", "release",
           "./perfbench/main.exe"]
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, out, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0 or not os.path.exists(EXE):
        sys.stderr.write(out.decode(errors="replace"))
        fail("build failed")


def commit():
    try:
        code, out, _ = run_group(["git", "rev-parse", "HEAD"], 10, cwd=ROOT,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return "unknown"
    return out.decode().strip() if code == 0 else "unknown"


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(result, trace):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    expected = catalogue(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, expected))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    out_dir = os.path.join(BUILD_DIR, "perfbench")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--commit", commit()]
    pin = None
    if args.workload in ONE_CPU:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    started = time.monotonic()
    try:
        code, out, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                                 preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = out.decode(errors="replace").strip().splitlines()
    if code not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1])
    check_result(result, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print("elapsed %.1f s" % (time.monotonic() - started))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
