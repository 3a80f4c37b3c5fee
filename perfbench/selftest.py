#!/usr/bin/env python3
"""Self-test of the benchmark at a smoke budget (every budget / 20).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that:
  * every workload, untraced and traced, exits 0 and ends with the
    result object, printing exactly the metrics BENCHMARK.json names,
    each with its unit, in the JSON and in the text table;
  * perfbench/metrics.json annotates exactly those metrics;
  * an injected executor fault in job 1 lowers ok_ratio, is counted as
    failed and gives a non-zero exit (BFSIM_FAULT=step:1:1: seed 1
    strikes past the trace-capture probe, whose own fault degrades to
    live execution without failing the job);
  * mix4's seed 0 times fig10's top ten mixes and holds none out, and
    two other seeds draw different held-out mixes.
"""

import json
import math
import os
import subprocess
import sys

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message)


def bench(workload, seed, trace, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          env=dict(os.environ, **(env or {})))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def main():
    spec = json.load(open("BENCHMARK.json"))
    notes = json.load(open(os.path.join("perfbench", "metrics.json")))
    for kind in ("end_to_end", "per_layer"):
        check({m["name"] for m in spec[kind]} == set(notes[kind]),
              "metrics.json and BENCHMARK.json disagree on " + kind)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s --trace %d" % (workload, trace)
            code, lines, result = bench(workload, 1, trace)
            check(code == 0, tag + ": exit code %d" % code)
            check(result is not None, tag + ": no result line")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, tag + ": result keys")
            check(result["correct"] is True, tag + ": not correct")
            check(result["attempted"] >= 1, tag + ": nothing attempted")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, tag + ": metric names or units differ "
                  "from BENCHMARK.json: %s" % sorted(set(got.items()) ^
                                                     set(expected.items())))
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]),
                      tag + ": %s is not a finite number" % name)
            table = {tuple(line.split()[::2]) for line in lines[:-1]
                     if len(line.split()) == 3}
            for name, unit in expected.items():
                check((name, unit) in table,
                      tag + ": %s not printed with its unit" % name)

    code, _, result = bench("single_suite", 1, 0,
                            {"BFSIM_FAULT": "step:1:1"})
    check(code != 0, "injected fault: exit code 0")
    check(result is not None and result["failed"] >= 1 and
          result["metrics"]["ok_ratio"]["value"] < 1.0,
          "injected fault: not counted as a failure")

    held_out = {}
    for seed in (0, 1, 2):
        code, lines, _ = bench("mix4", seed, 0)
        check(code == 0, "mix4 seed %d: exit code %d" % (seed, code))
        timed = [l.split()[1].split("=")[0] for l in lines
                 if l.startswith("timed mix")]
        check(timed == ["mix%d" % i for i in range(1, 11)],
              "mix4 seed %d: timed mixes are %s" % (seed, timed))
        held_out[seed] = [l.split()[1] for l in lines
                          if l.startswith("held-out mix") and "=" in l]
    check(held_out[0] == [], "mix4 seed 0 holds mixes out")
    check(len(held_out[1]) == 2 and held_out[1] != held_out[2],
          "mix4 seeds 1 and 2 draw the same held-out mixes: %s" % held_out)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
