#!/usr/bin/env python3
"""Steadiness check: runs the benchmark as two sets of runs of the same code
and compares them against the bounds in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py                      # the full check
    python3 perfbench/steady.py --workloads coherent_discover --runs 5 \
        --sets 1                                     # a quick look

Every run measures for BENCHMARK.json's run_seconds.

Each run of a set uses its own --seed (set k, run i: seed 1 + i + 100*k),
and the workloads are interleaved run by run so a slow spell on the host
hits all of them. For every end-to-end metric the script prints each set's
median and quartiles (Python's statistics.quantiles(n=4)), the spread
(q3 - q1) / median against the metric's bound (setup_s included), and
how far the second set's median moved in the worse direction, also against
the bound. It also records hardware_threads and the open-loop generator's
lateness. Raw results go to .bench_build/perfbench/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed",
                                   str(seed), "--seconds", str(seconds),
                                   "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     r.returncode))
    info = {}
    for line in lines:
        if line.startswith("info: "):
            info = json.loads(line[len("info: "):])
    return json.loads(lines[-1]), info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    infos = []
    failures = 0
    for k in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = 1 + i + 100 * k
                out, info = run_once(spec, w, seed, spec["run_seconds"])
                infos.append(info)
                if not out["correct"] or out["failed"]:
                    failures += 1
                    print("run %s seed %d: correct=%s failed=%d %s"
                          % (w, seed, out["correct"], out["failed"],
                             info.get("errors")))
                results[w][k].append(out)
                print("set %d run %d %s: %s" % (k, i, w, " ".join(
                    "%s=%.4g" % (n, m["value"])
                    for n, m in out["metrics"].items())), flush=True)

    threads = sorted({i.get("hardware_threads") for i in infos})
    late = [i["gen_late_ms_p99"] for i in infos
            if i.get("gen_late_ms_p99") is not None]
    print("\nhardware_threads: %s" % threads)
    if late:
        print("generator lateness p99 (ms): median %.3f, max %.3f"
              % (statistics.median(late), max(late)))
    print("failed runs: %d" % failures)

    bad = 0
    for w in workloads:
        print("\n%s" % w)
        print("  %-14s %-6s %12s %12s %12s %8s %6s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "vs set0"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = None
            for k in range(args.sets):
                values = [r["metrics"][name]["value"]
                          for r in results[w][k]]
                if len(values) < 2:
                    continue
                q1, med, q3 = spread(values)
                sp = (q3 - q1) / med if med else float("inf")
                flag = ""
                if sp > bound:
                    flag = " SPREAD>BOUND"
                    bad += 1
                worse = ""
                if base is None:
                    base = med
                else:
                    change = (med - base) / base
                    if m["better"] == "higher":
                        change = -change
                    worse = "%+.3f" % change
                    if change > bound:
                        flag += " MOVED>BOUND"
                        bad += 1
                print("  %-14s %-6d %12.5g %12.5g %12.5g %8.3f %6.2f %8s%s"
                      % (name, k, q1, med, q3, sp, bound, worse, flag))

    path = os.path.join(ROOT, ".bench_build", "perfbench", "steady.json")
    with open(path, "w") as f:
        json.dump({"results": results, "infos": infos}, f)
    print("\n%s; raw results in %s" % (
        "steady" if bad == 0 and failures == 0 else "NOT steady", path))
    return 0 if bad == 0 and failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
