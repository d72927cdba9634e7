#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny scale.

    python3 perfbench/selftest.py --exe PATH/bench.exe --spec BENCHMARK.json

For every workload: two untraced runs and one traced run with the same
seed.  Each run must report every metric BENCHMARK.json names, with its
unit (peak_rss_mb excepted: run.py adds it), be correct with no failed
op, and the two untraced runs must agree exactly on every simulated
metric.  The traced run checks itself that it reproduces the untraced
simulated samples bit for bit and reports correct=false otherwise.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["kv-mem", "kv-durable", "crash-sweep"]
DETERMINISTIC = ["sim_ns_per_op", "read_sim_p50_ns", "read_sim_p99_ns",
                 "write_sim_p50_ns", "write_sim_p99_ns", "space_amp"]
ADDED_BY_RUNNER = {"peak_rss_mb"}


def run(exe, workload, trace, work):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--tiny", "--work", work],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", required=True)
    ap.add_argument("--spec", required=True)
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]
           if m["name"] not in ADDED_BY_RUNNER}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)

    work = tempfile.mkdtemp(prefix="bench-selftest-", dir=".")
    try:
        for w in WORKLOADS:
            runs = [run(args.exe, w, 0, work), run(args.exe, w, 0, work)]
            traced = run(args.exe, w, 1, work)
            for r, names in ((runs[0], e2e), (runs[1], e2e), (traced, layers)):
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                check(got == names, "%s: metric names/units differ: %s"
                      % (w, sorted(set(got.items()) ^ set(names.items()))))
                check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                      "%s: run not correct (failed %d of %d)"
                      % (w, r["failed"], r["attempted"]))
            for name in DETERMINISTIC:
                a, b = (r["metrics"][name]["value"] for r in runs)
                check(a == b and a > 0,
                      "%s: %s not deterministic or zero: %r vs %r" % (w, name, a, b))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print("FAIL " + e)
    if errors:
        sys.exit(1)


if __name__ == "__main__":
    main()
