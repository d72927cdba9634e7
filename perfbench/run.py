#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload kv-mem|kv-durable|crash-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from source
with dune (build directory .bench_build, no shared dune cache), runs it
with image files in a private directory under .bench_work that is removed
afterwards, adds the process's peak resident memory to the end-to-end
metrics, checks the metric names and units against BENCHMARK.json, and
prints the result as the last line of standard output.  A traced run
(--trace 1) leaves its spans in .bench_work/spans-<workload>.tsv.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SPEC = "BENCHMARK.json"
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a checkout")
    target = "./" + os.path.relpath(os.path.join(HERE, "bench.exe"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, target]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", os.path.relpath(HERE), "bench.exe")


def run_child(cmd):
    """Run cmd; return (exit status, stdout text, peak RSS in MiB).

    The child is killed after CHILD_TIMEOUT_S, or when this process is
    asked to stop, and always waited for."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        p.kill()
        p.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        # wait4 reports the rusage of this child alone (not of dune)
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return p.returncode, out, usage.ru_maxrss / 1024.0


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["kv-mem", "kv-durable", "crash-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    os.makedirs(work)
    spans = os.path.join(WORK_DIR, "spans-%s.tsv" % args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--spans", spans]
    try:
        code, out, rss_mb = run_child(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("bench.exe exited with %d and no result line" % code)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("%-34s %16.6g MB" % ("peak_rss_mb", rss_mb))
    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("run.py: metrics differ from %s: missing %s, extra or mis-united %s"
              % (SPEC, sorted(set(expected.items()) - set(got.items())),
                 sorted(set(got.items()) - set(expected.items()))),
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
