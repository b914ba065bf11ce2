#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `tcomp discover` and `tcomp serve`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload d4_serve_sharded --seed 1 \
        --seconds 50 --trace 0

The first run builds `tcomp` and the benchmark's driver into
.bench_build/perfbench. Every run then makes its inputs from --seed, runs a
reference round (the traced driver's export of every algorithm), and
repeats timed rounds until --seconds have passed (at least four). A round
runs, in an order that rotates from round to round, `tcomp discover` for
CI, SC and BU on the workload CSV, the set-up samples, and in every other
round one `tcomp serve` session each for CI and SC on the shorter serve
CSV. Reported times are medians over rounds. With --trace 1 each round also
runs the traced driver once per algorithm, and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TCOMP = os.path.join(BUILD_DIR, "tcomp", "tools", "tcomp")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

ALGOS = ("ci", "sc", "bu")
SERVE_ALGOS = ("ci", "sc")  # BU has no sharded path
THRESHOLDS = ["--epsilon", "20", "--mu", "4", "--min-size", "10",
              "--min-duration", "10"]

# dataset: "d4" is `tcomp generate --dataset d4` (10,000 dense objects, one
# snapshot per 60 s); "coherent" is the blast coherent recipe (one snapshot
# per second). snapshots: length of the discover CSV, chosen so that every
# `tcomp discover` takes at least about 1 s. serve_snapshots: the prefix of
# it that each serve session ingests. shards: `tcomp serve --shards`.
# open_rate: offered records/s of the open-loop phase, about a third of the
# workload's serve_rps.sc.
WORKLOADS = {
    "coherent_discover": {"dataset": "coherent", "objects": 5000,
                          "snapshots": 100, "serve_snapshots": 36,
                          "window": 1, "shards": 4, "open_rate": 30000},
    "d4_serve_sharded": {"dataset": "d4", "snapshots": 40,
                         "serve_snapshots": 16, "window": 60, "shards": 4,
                         "open_rate": 50000},
}

MIN_ROUNDS = 4
SETUP_SAMPLES = 8          # prefix discovers, and serve spawns, per round
UNIT_TIMEOUT_S = 150.0
SPAWN_TIMEOUT_S = 30.0
# Every child's stderr is appended here; it is kept after the run.
LOG_PATH = os.path.join(BUILD_DIR, "stderr.log")


class Run:
    """One benchmark run: inputs, raw samples, failure accounting."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.csv = os.path.join(work, "records.csv")
        self.serve_csv = os.path.join(work, "serve.csv")
        self.prefix_csv = os.path.join(work, "prefix.csv")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.discover_s = {a: [] for a in ALGOS}
        self.traced_s = {a: [] for a in ALGOS}
        self.traces = {a: [] for a in ALGOS}  # (spans, stats, wall) per pass
        self.serve = {a: [] for a in SERVE_ALGOS}  # client JSON + metrics
        self.setup_discover_s = []
        self.setup_serve_s = []
        self.peak_rss_kb = 0
        self.rounds = 0
        self.ack_ms, self.late_ms, self.query_ms = [], [], []

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)
        print("FAILED: " + what, file=sys.stderr)

    def path(self, name):
        return os.path.join(self.work, name)


# ------------------------------------------------------------------- build

def build():
    """Configures once and builds incrementally; False if the build fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            return False
    return os.path.exists(TCOMP) and os.path.exists(DRIVER)


# --------------------------------------------------------------- processes

def start_process(cmd, stdout_path=None):
    """Starts cmd with its stderr appended to the benchmark's log, and its
    stdout written to stdout_path (discarded when None)."""
    with open(LOG_PATH, "a") as err:
        if stdout_path is None:
            return subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err)
        with open(stdout_path, "w") as out:
            return subprocess.Popen(cmd, stdout=out, stderr=err)


def wait_process(proc, timeout):
    """Waits for proc, killing it after timeout seconds; returns (exit code,
    peak RSS of that process in KiB). The wait blocks: a polling loop here
    would keep a CPU awake and change how fast the threads of `tcomp serve`
    wake each other."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_process(cmd, stdout_path=None):
    """Runs cmd to completion: (exit code, wall seconds, peak RSS KiB)."""
    start = time.perf_counter()
    proc = start_process(cmd, stdout_path)
    code, rss = wait_process(proc, UNIT_TIMEOUT_S)
    return code, time.perf_counter() - start, rss


def last_line(path):
    with open(path) as f:
        return json.loads(f.read().splitlines()[-1])


# ------------------------------------------------------------------ inputs

def make_inputs(run):
    cfg = run.cfg
    if cfg["dataset"] == "d4":
        cmd = [TCOMP, "generate", "--dataset", "d4", "--snapshots",
               str(cfg["snapshots"]), "--seed", str(run.seed), "--out",
               run.csv]
    else:
        cmd = [DRIVER, "gen-coherent", "--objects", str(cfg["objects"]),
               "--snapshots", str(cfg["snapshots"]), "--seed",
               str(run.seed), "--out", run.csv]
    if run_process(cmd)[0] != 0:
        return False
    cut_prefix(run.csv, run.serve_csv, cfg["serve_snapshots"])
    cut_prefix(run.csv, run.prefix_csv, 1)
    return True


def cut_prefix(src_path, dst_path, stamps):
    """Copies the header and every row of the first `stamps` distinct
    timestamps (the CSV is in time order, one snapshot per timestamp)."""
    with open(src_path) as src, open(dst_path, "w") as dst:
        seen, last = 0, None
        for line in src:
            if not line.startswith("#"):
                stamp = line.split(",", 2)[1]
                if stamp != last:
                    seen, last = seen + 1, stamp
                    if seen > stamps:
                        break
            dst.write(line)


# ------------------------------------------------------------------- units

def discover_cmd(run, algo, csv, out_csv):
    return [TCOMP, "discover", "--csv", csv, "--algo", algo, *THRESHOLDS,
            "--window-seconds", str(run.cfg["window"]), "--out-csv", out_csv,
            "--quiet"]


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def unit_discover(run, algo, timed):
    out_csv = run.path("discover_%s.csv" % algo)
    run.attempted += 1
    code, wall, rss = run_process(discover_cmd(run, algo, run.csv, out_csv))
    if code != 0:
        run.fail("discover %s exited %d" % (algo, code))
        return
    if not same_bytes(out_csv, run.path("reference_%s.csv" % algo)):
        run.fail("discover %s output differs from the traced export" % algo)
        return
    if timed:
        run.discover_s[algo].append(wall)
        run.peak_rss_kb = max(run.peak_rss_kb, rss)


def unit_trace(run, algo, timed, csv=None, reference=None):
    """Traced in-process pass over `csv` (the discover CSV by default); its
    export is the reference for `algo`."""
    spans_path = run.path("spans_%s.jsonl" % algo)
    stats_path = run.path("stats_%s.json" % algo)
    run.attempted += 1
    code, wall, _ = run_process(
        [DRIVER, "trace-discover", "--csv", csv or run.csv, "--algo", algo,
         *THRESHOLDS, "--window-seconds", str(run.cfg["window"]),
         "--out-csv", reference or run.path("reference_%s.csv" % algo),
         "--spans", spans_path], stats_path)
    if code != 0:
        run.fail("trace-discover %s exited %d" % (algo, code))
        return False
    if timed:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        run.traced_s[algo].append(wall)
        run.traces[algo].append((spans, last_line(stats_path), wall))
    return True


def spawn_server(run, algo):
    """Starts `tcomp serve` and waits until it has written its port file:
    (server, port, seconds from spawn to port file); port is None if the
    server exited or timed out first, and the server is then reaped.

    The port file is a FIFO, so the wait blocks in poll() on it and on a
    pidfd of the server instead of polling the file system: a parent that
    wakes every fraction of a millisecond keeps a CPU busy and changes how
    fast the server's threads start and wake each other."""
    port_file = run.path("port")
    if os.path.exists(port_file):
        os.remove(port_file)
    os.mkfifo(port_file)
    # Opened before the spawn, without blocking, so the server's open for
    # writing never waits. Until a writer has opened it, poll() reports
    # nothing on it.
    fifo = os.open(port_file, os.O_RDONLY | os.O_NONBLOCK)
    try:
        start = time.perf_counter()
        server = start_process(
            [TCOMP, "serve", "--port", "0", "--port-file", port_file,
             "--algo", algo, "--shards", str(run.cfg["shards"]),
             *THRESHOLDS, "--window-seconds", str(run.cfg["window"])])
        pidfd = os.pidfd_open(server.pid)
        try:
            poller = select.poll()
            poller.register(fifo, select.POLLIN)
            poller.register(pidfd, select.POLLIN)
            text = b""
            while not text.endswith(b"\n"):
                left = start + SPAWN_TIMEOUT_S - time.perf_counter()
                events = dict(poller.poll(max(0.0, left) * 1e3))
                if fifo not in events:  # exited or timed out
                    break
                chunk = os.read(fifo, 64)
                if not chunk:  # closed without a full line
                    break
                text += chunk
            spawn_s = time.perf_counter() - start
        finally:
            os.close(pidfd)
    finally:
        os.close(fifo)
    if text.endswith(b"\n"):
        return server, text.decode().strip(), spawn_s
    server.kill()
    wait_process(server, 10)
    run.fail("serve %s never wrote its port file" % algo)
    return server, None, spawn_s


def spawn_sample(run, algo):
    """One set-up sample of serve: spawn until the port file appears, then
    a text-protocol SHUTDOWN."""
    run.attempted += 1
    server, port, spawn_s = spawn_server(run, algo)
    if port is None:
        return
    try:
        with socket.create_connection(("127.0.0.1", int(port)), 10) as conn:
            conn.sendall(b"SHUTDOWN\n")
            conn.recv(256)
    except OSError as e:
        server.kill()
        wait_process(server, 10)
        run.fail("serve %s shutdown failed: %s" % (algo, e))
        return
    code, _ = wait_process(server, 30)
    if code != 0:
        run.fail("serve %s exited %d after SHUTDOWN" % (algo, code))
        return
    run.setup_serve_s.append(spawn_s)


def unit_serve(run, algo, timed):
    metrics_file = run.path("metrics_%s.txt" % algo)
    run.attempted += 1
    server, port, _ = spawn_server(run, algo)
    if port is None:
        return
    cmd = [DRIVER, "serve-client", "--port", port, "--csv", run.serve_csv,
           "--reference", run.path("serve_reference_%s.csv" % algo),
           "--window-seconds", str(run.cfg["window"]),
           "--metrics-out", metrics_file]
    if algo == "sc":
        cmd += ["--open-rate", str(run.cfg["open_rate"])]
    client_path = run.path("client_%s.json" % algo)
    code, _, _ = run_process(cmd, client_path)
    if code != 0:
        server.kill()
    server_code, rss = wait_process(server, 30)
    if code != 0 or server_code != 0:
        run.fail("serve %s: client exited %d, server exited %d"
                 % (algo, code, server_code))
        return
    result = last_line(client_path)
    # Every frame and query is one operation; a frame that had records
    # refused or shed fails, as does a companion payload that differs from
    # the batch reference.
    run.attempted += result["frames"] + result["open_frames"]
    run.attempted += len(result["query_ms"])
    if result["refused"] or result["open_refused"]:
        run.fail("serve %s refused %d records"
                 % (algo, result["refused"] + result["open_refused"]))
    if not result["identical"]:
        run.fail("serve %s companions differ from batch" % algo)
    if not timed:
        return
    result["metrics"] = parse_exposition(metrics_file)
    run.serve[algo].append(result)
    run.peak_rss_kb = max(run.peak_rss_kb, rss)
    run.ack_ms += result["ack_ms"]
    run.late_ms += result["late_ms"]
    run.query_ms += result["query_ms"]


def parse_exposition(path):
    """Name{labels} -> value from a QUERY metrics payload."""
    values = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def unit_setup(run, _, timed):
    """Set-up samples, interleaved: wall time of `tcomp discover` on the
    one-snapshot prefix, and of `tcomp serve` from spawn to port file."""
    for i in range(SETUP_SAMPLES):
        algo = ALGOS[i % len(ALGOS)]
        run.attempted += 1
        code, wall, _ = run_process(discover_cmd(
            run, algo, run.prefix_csv, run.path("prefix_out.csv")))
        if code != 0:
            run.fail("prefix discover %s exited %d" % (algo, code))
        else:
            run.setup_discover_s.append(wall)
        spawn_sample(run, SERVE_ALGOS[i % len(SERVE_ALGOS)])


# ----------------------------------------------------------------- metrics

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    m = {"setup_s": metric(median(run.setup_discover_s) +
                           median(run.setup_serve_s), "s")}
    for algo in ALGOS:
        m["discover_s." + algo] = metric(median(run.discover_s[algo]), "s")
    for algo in SERVE_ALGOS:
        rps = [s["records"] / s["serve_s"] for s in run.serve[algo]]
        m["serve_rps." + algo] = metric(median(rps), "1/s")
    m["ack_ms.p50"] = metric(quantile(run.ack_ms, 0.50), "ms")
    m["ack_ms.p99"] = metric(quantile(run.ack_ms, 0.99), "ms")
    m["query_ms.p50"] = metric(quantile(run.query_ms, 0.50), "ms")
    m["peak_rss_mb"] = metric(run.peak_rss_kb / 1024.0, "MB")
    return m


def span_sums(spans):
    """Seconds per span name over one traced pass."""
    sums = {}
    for s in spans:
        sums[s["name"]] = sums.get(s["name"], 0.0) + s["end"] - s["start"]
    return sums


LAYER_SPANS = ("data.read_csv", "stream.window", "core.snapshot",
               "eval.export")


def discover_layers(run):
    """Per-layer metrics of the traced discover passes. Stage seconds and
    counts are the program's own DiscoveryStats; span sums time the calls
    into data, stream, core and eval. Two remainders:
    traced_unattributed_s.<algo> is, within each traced pass, the process's
    wall time minus its layer spans (start-up, set-up and exit);
    unattributed_s.<algo> is the untraced discover_s minus the layer
    metrics, a difference between separately timed processes."""
    m = {}
    sums = {a: [span_sums(spans) for spans, _, _ in run.traces[a]]
            for a in ALGOS}
    every = [x for a in ALGOS for x in sums[a]]
    read_csv = median([x["data.read_csv"] for x in every])
    window = median([x["stream.window"] for x in every])
    m["data.read_csv_s"] = metric(read_csv, "s")
    m["stream.window_s"] = metric(window, "s")
    overhead = 0.0
    for algo in ALGOS:
        stats = [st for _, st, _ in run.traces[algo]]
        last = stats[-1]
        snapshot = median([x["core.snapshot"] for x in sums[algo]])
        export = median([x["eval.export"] for x in sums[algo]])
        close_ms = [(s["end"] - s["start"]) * 1e3
                    for spans, _, _ in run.traces[algo] for s in spans
                    if s["name"] == "core.snapshot"]

        def stat_s(key):
            return median([st[key] for st in stats])

        m["stream.snapshots"] = metric(last["snapshots"], "count")
        m["core.snapshot_s." + algo] = metric(snapshot, "s")
        m["core.close_ms.p50." + algo] = metric(quantile(close_ms, 0.5),
                                                "ms")
        m["core.close_ms.p99." + algo] = metric(quantile(close_ms, 0.99),
                                                "ms")
        m["core.cluster_s." + algo] = metric(stat_s("cluster_seconds"), "s")
        m["core.distance_ops." + algo] = metric(last["distance_ops"],
                                                "count")
        m["core.intersect_s." + algo] = metric(
            stat_s("intersect_seconds"), "s")
        m["core.intersections." + algo] = metric(last["intersections"],
                                                 "count")
        m["core.candidate_peak." + algo] = metric(
            last["candidate_objects_peak"], "count")
        if algo == "bu":  # BU has no timed ε-filter and no reuse layer
            m["core.maintain_s.bu"] = metric(stat_s("maintain_seconds"),
                                             "s")
            checked = last["buddy_pairs_checked"]
            m["core.buddy_prune_ratio.bu"] = metric(
                last["buddy_pairs_pruned"] / checked if checked else 0.0,
                "ratio")
        else:
            m["core.eps_filter_s." + algo] = metric(
                stat_s("eps_filter_seconds"), "s")
            probed = last["cluster_reuse"] + last["cluster_dirty"]
            m["core.reuse_ratio." + algo] = metric(
                last["cluster_reuse"] / probed if probed else 0.0, "ratio")
            m["core.full_rebuilds." + algo] = metric(
                last["cluster_full_rebuilds"], "count")
        m["eval.export_s." + algo] = metric(export, "s")
        untraced = median(run.discover_s[algo])
        m["unattributed_s." + algo] = metric(
            untraced - (read_csv + window + snapshot + export), "s")
        m["traced_unattributed_s." + algo] = metric(median([
            wall - sum(x[name] for name in LAYER_SPANS)
            for x, (_, _, wall) in zip(sums[algo], run.traces[algo])]), "s")
        overhead += median(run.traced_s[algo]) - untraced
    m["obs.trace_overhead_s"] = metric(overhead, "s")
    return m


SERVER_STAGES = {  # metric name -> stage label in QUERY metrics
    "service.ingest_admission_s": "ingest_admission",
    "service.frame_decode_s": "frame_decode",
    "service.conn_flush_s": "conn_flush",
    "service.snapshot_close_s": "snapshot_close",
    "shard.route_s": "shard_route",
    "shard.cluster_s": "shard_cluster",
    "shard.merge_s": "merge_stitch",
}


def serve_layers(run):
    """Per-layer metrics of the serve sessions: client-side timings and the
    exact stage `_sum` values of the server's QUERY metrics, taken after
    the closed-loop FLUSH. Medians over sessions."""
    m = {}
    for algo in SERVE_ALGOS:
        sessions = run.serve[algo]

        def stage(s, label):
            return s["metrics"][
                'tcomp_stage_seconds_sum{stage="%s"}' % label]

        def add(name, unit, fn):
            m["%s.%s" % (name, algo)] = metric(
                median([fn(s) for s in sessions]), unit)

        add("service.frame_encode_s", "s", lambda s: s["frame_encode_s"])
        add("service.ack_wait_s", "s", lambda s: s["ack_wait_s"])
        for name, label in SERVER_STAGES.items():
            add(name, "s", lambda s, label=label: stage(s, label))
        add("service.queue_depth_peak", "count",
            lambda s: s["metrics"]["tcomp_queue_depth_peak"])
        add("service.unattributed_s", "s", lambda s: s["serve_s"] - sum(
            stage(s, SERVER_STAGES[n]) for n in SERVER_STAGES
            if n.startswith("service.")))
        add("shard.halo_ratio", "ratio", lambda s: (
            s["metrics"]["tcomp_shard_halo_objects_total"] /
            s["metrics"]["tcomp_shard_routed_objects_total"]))
    m["bench.gen_late_ms.p99"] = metric(quantile(run.late_ms, 0.99), "ms")
    return m


# -------------------------------------------------------------------- main

def execute(run, seconds, trace):
    if not make_inputs(run):
        run.fail("input generation failed")
        return
    # Reference round, untimed: the traced driver's export of every
    # algorithm is the oracle each `discover --out-csv` and each serve
    # QUERY companions payload must match. It also warms the page cache.
    for algo in ALGOS:
        if not unit_trace(run, algo, timed=False):
            return
    for algo in SERVE_ALGOS:
        if not unit_trace(run, algo, timed=False, csv=run.serve_csv,
                          reference=run.path("serve_reference_%s.csv"
                                             % algo)):
            return

    # A traced pass runs right after an untraced one of the same
    # algorithm, so the two see the host in the same state. Serve sessions
    # run every other round: discover, whose times spread more, gets the
    # larger share of the run. The order of the groups rotates from round
    # to round.
    discover = [[(unit_discover, a)] + ([(unit_trace, a)] if trace else [])
                for a in ALGOS]
    serve = [[(unit_serve, a)] for a in SERVE_ALGOS]
    start = time.perf_counter()
    rounds = 0
    while not run.failed:
        elapsed = time.perf_counter() - start
        # Stop at --seconds, never starting a round that would overrun it
        # by more than half a round, and never before MIN_ROUNDS.
        if rounds >= MIN_ROUNDS and elapsed * (1 + 0.5 / rounds) > seconds:
            break
        groups = discover + [[(unit_setup, None)]]
        if rounds % 2 == 0:
            groups += serve
        shift = rounds * 2 % len(groups)
        for group in groups[shift:] + groups[:shift]:
            for fn, algo in group:
                fn(run, algo, timed=True)
        rounds += 1
    run.rounds = rounds


def keep_spans(run):
    """Keeps the last traced pass of each algorithm for inspection."""
    keep = os.path.join(BUILD_DIR, "spans")
    os.makedirs(keep, exist_ok=True)
    for algo in ALGOS:
        src = run.path("spans_%s.jsonl" % algo)
        if os.path.exists(src):
            shutil.copyfile(src, os.path.join(
                keep, "%s-%s.jsonl" % (run.name, algo)))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    open(LOG_PATH, "w").close()
    work = os.path.join(BUILD_DIR, "work-%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    run = Run(args.workload, args.seed, work)
    try:
        execute(run, args.seconds, args.trace == 1)
        complete = (not run.failed and all(run.discover_s.values()) and
                    all(run.serve.values()) and run.ack_ms and
                    run.query_ms and run.setup_discover_s and
                    run.setup_serve_s)
        if complete:
            metrics = (dict(discover_layers(run), **serve_layers(run))
                       if args.trace else end_to_end(run))
        else:
            metrics = {}
            if not run.failed:
                run.fail("incomplete run")
        if args.trace:
            keep_spans(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("info: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "hardware_threads": os.cpu_count(),
        "rounds": run.rounds,
        "discover_s": {a: [round(x, 4) for x in run.discover_s[a]]
                       for a in ALGOS},
        "gen_late_ms_p99": quantile(run.late_ms, 0.99) if run.late_ms
        else None,
        "errors": run.errors[:10]}))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
