#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must print every metric
BENCHMARK.json names for that mode, each with its unit, pass every
correctness gate, and (traced) leave a trace that parses. Then each
workload runs once with one output of the program corrupted on purpose --
a solve reply, a sparsifier, a Fiedler vector -- and that run must count
the operation in `failed` and report correct = false.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (build_base, WORKLOADS)

CORRUPTIONS = {"serve_grid": "reply", "sparsify_dense": "sparsifier",
               "partition_grid": "fiedler"}


def bench(workload, trace, corrupt=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), res.returncode,
                                                     res.stderr[-2000:]))
    return json.loads(res.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, label):
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        raise AssertionError("%s: metric names differ from BENCHMARK.json: %s" %
                             (label, sorted(set(got) ^ {m["name"] for m in declared})))
    for m in declared:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            raise AssertionError("%s: bad entry for %s: %r" % (label, m["name"], entry))


def check_trace(workload):
    out = os.path.join(run.build_base(), "perfbench-out")
    with open(os.path.join(out, "trace_%s_3.json" % workload)) as f:
        events = json.load(f)["traceEvents"]
    with open(os.path.join(out, "layers_%s_3.json" % workload)) as f:
        layers = json.load(f)
    if not events or not layers or any(row["self_ms"] < 0 for row in layers):
        raise AssertionError("%s: empty or malformed trace output" % workload)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            result = bench(workload, trace)
            check_metrics(result, declared, label)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise AssertionError("%s: gates failed: %r" % (label, result))
            if trace:
                check_trace(workload)
            print("ok   %-32s %d operations" % (label, result["attempted"]))
        kind = CORRUPTIONS[workload]
        result = bench(workload, 0, corrupt=kind)
        if result["correct"] or result["failed"] < 1:
            raise AssertionError("%s: corrupted %s went unnoticed: %r" %
                                 (workload, kind, result))
        print("ok   %-32s %d of %d operations failed" %
              ("%s corrupt=%s" % (workload, kind), result["failed"], result["attempted"]))
    print("self-test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit("self-test FAILED: %s" % e)
