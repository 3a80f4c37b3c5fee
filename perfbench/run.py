#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload single_suite|mix4|sampled_long \
        --seed N --seconds S --trace 0|1 [--smoke]

The simulator libraries under src/ and the benchmark in perfbench/ are
built with CMake into .bench_build/perfbench (incremental after the
first run). With --trace 0 the end-to-end metrics are printed; setup_s
is the median set-up time of three fresh processes (two set-up-only
runs plus the measured run itself). With --trace 1 the per-layer
metrics are printed and the recorded spans are written to
.bench_build/spans-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when
the build fails, the sources are missing, or an output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "perfbench")
SETUP_RUNS = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "harness", "batch.hh")):
        fail("simulator sources not found under ./src "
             "(run from the repository root)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(args, extra, store):
    """Run the binary once; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--store", store] + extra
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["single_suite", "mix4", "sampled_long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="budgets divided by 20 (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    build()
    store = os.path.join(".bench_build", "store-%d" % os.getpid())
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            code, lines = run(args, ["--setup-only"], store)
            if code != 0 or not lines:
                fail("set-up run failed")
            setups.append(json.loads(lines[-1])["setup_s"])

    spans = os.path.join(".bench_build", "spans-%s-seed%d.json" %
                         (args.workload, args.seed))
    code, lines = run(args, ["--seconds", str(args.seconds),
                             "--spans", spans], store)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark run failed (exit %d)" % code)
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join("%.4f" % s for s in setups))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
