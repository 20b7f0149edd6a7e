#!/usr/bin/env python3
"""The flexrt benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds flexrtd, flexrt_design
and the perfbench load generator from source into .bench_build/ (later
runs reuse the build). Workloads, metrics and what each per-layer metric
should move are described in perfbench/README.md.

--trace 0 measures the end-to-end metrics; --trace 1 runs the same
end-to-end pass for its counters, then the traced in-process replay at
FLEXRT_THREADS=1 and at the default width, and reports the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import mean, median, self_times, tail  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
PERFBENCH = os.path.join(BUILD, "perfbench")
FLEXRTD = os.path.join(BUILD, "flexrt", "tools", "flexrtd")
DESIGN = os.path.join(BUILD, "flexrt", "tools", "flexrt_design")

WORKLOADS = ("wire_interactive", "study_batch")
SETUPS = 21            # daemon set-ups per wire run; setup_s is their median
PROBE_EVERY = 8        # study_batch: one set-up probe before every 8th invocation
MISS_MS = 60000.0      # a failed request reads as the client timeout
STUDY_TRIALS = 192     # trials per `study` invocation
FAULT_TRIALS = 48      # trials per `fault-sweep` invocation
TRACE_OPS = 6          # light cycles per traced pass of a wire workload
PROBE_TRIALS = 1       # trials of the CLI set-up probe

E2E = [  # name, unit -- registered in BENCHMARK.json
    ("setup_s", "s"), ("query_p50_ms", "ms"), ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
]
# Printed for people, not registered: on wire_interactive their run-to-run
# spread follows the host's CPU steal and reached 0.34-0.65 (IQR/median),
# beyond the largest bound the benchmark may set (see perfbench/README.md).
E2E_UNREGISTERED = [
    ("solve_p50_ms", "ms"), ("solve_tail_ms", "ms"), ("sweep_mean_ms", "ms"),
    ("query_tail_ms", "ms"), ("requests_per_s", "1/s"), ("trials_per_s", "1/s"),
]

T1_TWINS = [
    "core.margin_ns", "core.solve_us", "core.sweep_us", "core.probe_equiv",
    "svc.add_system_us", "svc.memo.hit_us", "svc.engine.build_us",
    "svc.render_us_per_row", "svc.journal_us_per_entry", "svc.fault_sweep_us",
]

LAYER = [  # name, unit
    ("net.status_rtt_us", "us"), ("net.transport_us", "us"),
    ("net.bytes_per_request", "B"), ("io.parse_us_per_task", "us"),
    ("svc.add_system_us", "us"), ("svc.memo.hit_ratio", "ratio"),
    ("svc.memo.hit_us", "us"), ("svc.memo.insertions", "count"),
    ("svc.memo.evictions", "count"), ("svc.memo.bytes", "B"),
    ("svc.engine.builds", "count"), ("svc.engine.build_us", "us"),
    ("svc.ladder.rounds_mean", "count"), ("svc.ladder.exact_frac", "ratio"),
    ("svc.render_us_per_row", "us"), ("svc.row_bytes", "B"),
    ("svc.stream.peak_rows", "rows"), ("svc.journal_us_per_entry", "us"),
    ("svc.fault_sweep_us", "us"), ("core.margin_ns", "ns"),
    ("core.solve_us", "us"), ("core.sweep_us", "us"),
    ("core.probe_equiv", "probes"), ("gen.system_us", "us"),
    ("gen.pack_fail_frac", "ratio"), ("par.vcsw_per_op", "count"),
    ("par.nvcsw_per_op", "count"), ("par.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]
LAYER += [(n + ".t1", u) for n, u in LAYER if n in T1_TWINS]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# --- build -------------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "perfbench", "flexrtd", "flexrt_design"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                if cmd[1] == "-S":
                    # a failed configure must not leave a half cache behind
                    shutil.rmtree(BUILD, ignore_errors=True)
                else:
                    with open(logpath) as f:
                        log(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


# --- processes -----------------------------------------------------------------

class Spawned:
    """A program under test, started through `perfbench spawn`: its wait4
    usage (CPU, context switches and peak RSS, summed over every thread)
    is then its own, not inflated by this interpreter's resident size, and
    its fork/reap times exclude the launcher's start-up. Times are
    CLOCK_MONOTONIC nanoseconds, the clock of time.monotonic_ns()."""

    count = 0

    def __init__(self, argv, env, rundir, stdout=subprocess.DEVNULL):
        Spawned.count += 1
        self.usage = os.path.join(rundir, "usage%d.json" % Spawned.count)
        self.proc = subprocess.Popen(
            [PERFBENCH, "spawn", "--rusage", self.usage, "--"] + argv,
            stdout=stdout, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, env=env)

    def finish(self, sig=None):
        """Optionally signals the program, waits for it, returns its usage
        {rc, fork_ns, reap_ns, cpu_s, maxrss_kib, nvcsw, nivcsw}."""
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)  # the launcher forwards it
        self.proc.wait()
        with open(self.usage) as f:
            usage = json.load(f)
        os.unlink(self.usage)
        return usage


class Daemon:
    """flexrtd on an ephemeral TCP port, at its default width."""

    def __init__(self, rundir):
        self.spawned = Spawned([FLEXRTD, "--port", "0"], daemon_env(), rundir,
                               stdout=subprocess.PIPE)
        self.out = self.spawned.proc.stdout
        self.ready_ns = None
        line = self.out.readline().decode()
        if "listening on tcp:" not in line:
            self.stop()
            fail("flexrtd did not start: " + line.strip())
        self.port = int(line.rsplit(":", 1)[1])

    def connect_probe(self, n):
        """Opens and closes `n` client connections (set-up ends here)."""
        conns = [socket.create_connection(("127.0.0.1", self.port))
                 for _ in range(n)]
        self.ready_ns = time.monotonic_ns()
        for c in conns:
            c.close()

    def stop(self):
        """SIGTERM (a graceful drain); returns (usage, set-up seconds)."""
        usage = self.spawned.finish(signal.SIGTERM)
        self.out.close()
        setup = None
        if self.ready_ns is not None:
            setup = (self.ready_ns - usage["fork_ns"]) / 1e9
        return usage, setup


def daemon_env():
    env = dict(os.environ)
    env.pop("FLEXRT_THREADS", None)  # the program under test: default width
    return env


def client_env():
    env = dict(os.environ)
    env["FLEXRT_THREADS"] = "1"  # the in-process reference runs at one thread
    return env


def default_threads():
    return os.cpu_count() or 1


# --- wire workloads --------------------------------------------------------------

def run_wire(workload, seed, seconds, rundir):
    clients = 3
    setups = []
    daemon = None
    try:
        for i in range(SETUPS):
            daemon = Daemon(rundir)
            daemon.connect_probe(clients)
            if i + 1 < SETUPS:
                setups.append(daemon.stop()[1])
                daemon = None
        out = os.path.join(rundir, "wire.json")
        rc = subprocess.call(
            [PERFBENCH, "wire", "--port", str(daemon.port), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--out", out], env=client_env(), stdin=subprocess.DEVNULL)
        usage, setup = daemon.stop()
        setups.append(setup)
        daemon = None
    finally:
        if daemon is not None:
            daemon.stop()
    if rc != 0:
        fail("perfbench wire exited %d" % rc)
    with open(out) as f:
        res = json.load(f)
    lat = latencies(res)
    ops = res["attempted"]
    failed = ops - res["ok"] + (usage["rc"] != 0)
    query = [v for k in ("add", "minq", "verify", "status")
             for v in lat.get(k, [])]
    window = res["window_s"]
    cpu_s = usage["cpu_s"]
    return {
        "kind": "wire",
        "attempted": ops,
        "failed": failed,
        "failures": res["failures"].splitlines() + (
            [] if usage["rc"] == 0 else ["flexrtd exited %d" % usage["rc"]]),
        "setup": setups,
        "solve": lat.get("solve", []),
        "sweep": lat.get("sweep", []),
        "query": query,
        "status": lat.get("status", []),
        "requests_per_s": res["ok"] / window,
        "trials_per_s": res["cycles_done"] / window,
        "cpu_ms_per_op": 1000.0 * cpu_s / max(ops, 1),
        "peak_rss_mb": usage["maxrss_kib"] / 1024.0,
        "ops": ops,
        "wall_s": window,
        "cpu_s": cpu_s,
        "nvcsw": usage["nvcsw"],
        "nivcsw": usage["nivcsw"],
        "bytes": res["bytes"],
        "memo_hits": res.get("memo_hits", 0),
        "memo_misses": res.get("memo_misses", 0),
        "reference": "%d replies replayed in-process in %.1f s; paper "
                     "example solved %d times" % (
                         ops, res["ref_seconds"], res["paper_checked"]),
    }


def latencies(res):
    """{command: [ms]} from a wire result row; a failed request was written
    as null and reads as +inf (a miss)."""
    return {k[len("lat_"):]: [math.inf if v is None else v for v in vals]
            for k, vals in res.items() if k.startswith("lat_")}


# --- study_batch ---------------------------------------------------------------------

def study_invocation(seed, i):
    """The i-th invocation of the run: study (EDF), study --alg rm and
    fault-sweep in turn, each on a fleet seed derived from (seed, i)."""
    h = hashlib.sha256(("%d/%d" % (seed, i)).encode()).digest()
    sub, alg, trials = [("study", "edf", STUDY_TRIALS),
                        ("study", "rm", STUDY_TRIALS),
                        ("fault-sweep", "edf", FAULT_TRIALS)][i % 3]
    return sub, alg, int.from_bytes(h[:6], "big"), trials


def cli_args(inv, output):
    sub, alg, s, trials = inv
    return [DESIGN, sub, "--trials", str(trials), "--seed", str(s), "--alg",
            alg, "--output", output]


def run_cli(inv, output, env, rundir):
    """One CLI invocation; returns (usage, wall_s, first_row_s), the first
    row being the first bytes in the journal."""
    partial = output + ".partial"
    for p in (output, partial):
        if os.path.exists(p):
            os.unlink(p)
    cli = Spawned(cli_args(inv, output), env, rundir)
    first_ns = None
    while cli.proc.poll() is None:
        try:
            if os.stat(partial).st_size > 0:
                first_ns = time.monotonic_ns()
                break
        except FileNotFoundError:
            pass
        time.sleep(0.0002)
    usage = cli.finish()
    wall = (usage["reap_ns"] - usage["fork_ns"]) / 1e9
    first = (first_ns - usage["fork_ns"]) / 1e9 if first_ns else wall
    return usage, wall, first


def file_digest(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
        return hashlib.sha256(data).hexdigest(), len(data)
    except FileNotFoundError:
        return None, 0


def run_study(seed, seconds, rundir):
    env = daemon_env()
    setups = []
    done = []
    window = 0.0
    i = 0
    while window < seconds:
        if i % PROBE_EVERY == 0:
            # Set-up: spawn to the first row of a one-trial study. The probes
            # are spread over the run, outside the measured window, so a
            # short burst of host load cannot move all of them at once.
            probe = ("study", "edf", seed + i, PROBE_TRIALS)
            usage, _, first = run_cli(
                probe, os.path.join(rundir, "probe.jsonl"), env, rundir)
            if usage["rc"] != 0:
                fail("set-up probe exited %d" % usage["rc"])
            setups.append(first)
        t0 = time.perf_counter()
        out = os.path.join(rundir, "out%d.jsonl" % i)
        inv = study_invocation(seed, i)
        usage, wall, first = run_cli(inv, out, env, rundir)
        digest, size = file_digest(out)
        done.append({"inv": inv, "rc": usage["rc"], "wall": wall,
                     "first": first, "usage": usage, "digest": digest,
                     "bytes": size})
        if digest:
            os.unlink(out)
        window += time.perf_counter() - t0
        i += 1

    # Byte-identity gate: every journal against a --no-memo one-thread run
    # of the same seed, four reference processes at a time.
    ref_env = dict(env, FLEXRT_THREADS="1")

    def reference(k):
        out = os.path.join(rundir, "ref%d.jsonl" % k)
        rc = subprocess.call(cli_args(done[k]["inv"], out) + ["--no-memo"],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             stdin=subprocess.DEVNULL, env=ref_env)
        digest, _ = file_digest(out)
        if digest:
            os.unlink(out)
        return rc, digest

    r0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        refs = list(pool.map(reference, range(len(done))))
    ref_s = time.perf_counter() - r0

    trials = attempted = failed = 0
    failures = []
    for d, (rrc, rdigest) in zip(done, refs):
        n = d["inv"][3]
        attempted += n
        good = (d["digest"] is not None and d["rc"] == rrc
                and d["digest"] == rdigest
                and d["rc"] in ((0,) if d["inv"][0] == "study" else (0, 1)))
        d["ok"] = good
        if good:
            trials += n
        else:
            failed += n
            if len(failures) < 8:
                failures.append("%s seed %d: rc %d (reference %d), %s" % (
                    d["inv"][0], d["inv"][2], d["rc"], rrc,
                    "journal differs" if d["digest"] != rdigest
                    else "unexpected rc"))
    cpu_s = sum(d["usage"]["cpu_s"] for d in done)

    def ms(d, key):  # a failed invocation is a miss
        return 1000.0 * d[key] if d["ok"] else math.inf

    def walls(sub):
        return [ms(d, "wall") for d in done if d["inv"][0] == sub]

    return {
        "kind": "study",
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup": setups,
        "solve": walls("study"),
        "sweep": walls("fault-sweep"),
        "query": [ms(d, "first") for d in done],
        "status": [],
        "requests_per_s": sum(d["ok"] for d in done) / window,
        "trials_per_s": trials / window,
        "cpu_ms_per_op": 1000.0 * cpu_s / max(attempted, 1),
        "peak_rss_mb": max(d["usage"]["maxrss_kib"] for d in done) / 1024.0,
        "ops": attempted,
        "wall_s": window,
        "cpu_s": cpu_s,
        "nvcsw": sum(d["usage"]["nvcsw"] for d in done),
        "nivcsw": sum(d["usage"]["nivcsw"] for d in done),
        "bytes": sum(d["bytes"] for d in done),
        "invocations": len(done),
        "plan": [d["inv"] for d in done[:3]],
        "reference": "%d journals re-run --no-memo at one thread in %.1f s"
                     % (len(done), ref_s),
    }


# --- metrics ---------------------------------------------------------------------------

def finite(v):
    """JSON has no infinity: a missed latency reads as the client timeout."""
    return v if math.isfinite(v) else MISS_MS


def e2e_metrics(r):
    solve_tail, solve_pct, solve_n = tail(r["solve"])
    query_tail, query_pct, query_n = tail(r["query"])
    m = {
        "setup_s": median(r["setup"]),
        "solve_p50_ms": median(r["solve"]),
        "solve_tail_ms": solve_tail,
        "sweep_mean_ms": mean(r["sweep"]),
        "query_p50_ms": median(r["query"]),
        "query_tail_ms": query_tail,
        "requests_per_s": r["requests_per_s"],
        "trials_per_s": r["trials_per_s"],
        "cpu_ms_per_op": r["cpu_ms_per_op"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    notes = {
        "solve_tail_ms": "p%.1f of %d samples" % (solve_pct, solve_n),
        "query_tail_ms": "p%.1f of %d samples" % (query_pct, query_n),
        "solve_p50_ms": "%d samples" % len(r["solve"]),
        "sweep_mean_ms": "%d samples" % len(r["sweep"]),
        "query_p50_ms": "%d samples" % len(r["query"]),
        "setup_s": "median of %d set-ups" % len(r["setup"]),
    }
    for name, _ in E2E_UNREGISTERED:
        notes[name] = (notes.get(name, "") + ", not registered").lstrip(", ")
    return m, notes


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, sid, parent, req, start, end = line.rstrip("\n").split("\t")
            spans.append({"name": name, "id": int(sid), "parent": int(parent),
                          "req": int(req), "start": int(start),
                          "end": int(end)})
    return spans


def run_trace_pass(workload, seed, rundir, threads_env, tag, plan):
    env = dict(os.environ)
    env.pop("FLEXRT_THREADS", None)
    if threads_env:
        env["FLEXRT_THREADS"] = threads_env
    spans = os.path.join(rundir, "spans_%s.tsv" % tag)
    out = os.path.join(rundir, "trace_%s.json" % tag)
    cmd = [PERFBENCH, "trace", "--workload", workload, "--seed", str(seed),
           "--ops", str(TRACE_OPS), "--dir", rundir, "--spans", spans,
           "--out", out]
    if plan:
        planfile = os.path.join(rundir, "plan.txt")
        with open(planfile, "w") as f:
            for inv in plan:
                f.write("%s %s %d %d\n" % inv)
        cmd += ["--plan", planfile]
    rc = subprocess.call(cmd, env=env, stdin=subprocess.DEVNULL)
    if rc != 0:
        fail("perfbench trace exited %d" % rc)
    with open(out) as f:
        res = json.load(f)
    res["spans"] = load_spans(spans)
    return res


def layer_timings(tr):
    """Per-layer self times of one traced pass."""
    spans = tr["spans"]
    selfs = self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(selfs[s["id"]])
    c = tr

    def total(name):
        return sum(by.get(name, []))

    def mean(name):
        v = by.get(name, [])
        return sum(v) / len(v) if v else float("nan")

    ns_per_us = 1000.0
    m = {
        "core.margin_ns": total("core.margin") / max(c["margin_probes"], 1),
        "core.solve_us": mean("core.solve") / ns_per_us,
        "core.sweep_us": mean("core.sweep") / ns_per_us,
        "svc.add_system_us":
            total("svc.add_system") / max(c["systems_added"], 1) / ns_per_us,
        "svc.memo.hit_us": mean("svc.memo_hit") / ns_per_us,
        "svc.engine.build_us": mean("svc.engine_build") / ns_per_us,
        "svc.render_us_per_row":
            total("svc.render") / max(c["rows"], 1) / ns_per_us,
        "svc.journal_us_per_entry":
            total("svc.journal") / max(c["entries_journaled"], 1) / ns_per_us,
        "svc.fault_sweep_us": mean("svc.fault_sweep_one") / ns_per_us,
    }
    m["core.probe_equiv"] = m["core.solve_us"] * ns_per_us / m["core.margin_ns"]
    extra = {
        "io.parse_us_per_task":
            total("io.parse") / max(c["tasks_parsed"], 1) / ns_per_us,
        "gen.system_us": mean("gen.system") / ns_per_us,
        "net.status_inproc_us": median(by.get("net.status", [])) / ns_per_us,
    }
    return m, extra


def layer_metrics(workload, seed, rundir, e2e):
    plan = e2e.get("plan")
    t_def = run_trace_pass(workload, seed, rundir, None, "default", plan)
    t_one = run_trace_pass(workload, seed, rundir, "1", "t1", plan)
    m, extra = layer_timings(t_def)
    m1, _ = layer_timings(t_one)
    c = t_def

    if e2e["kind"] == "wire":
        status_ms = e2e["status"]
        hits, misses = e2e["memo_hits"], e2e["memo_misses"]
    else:
        # No wire traffic: `status` on an idle daemon gives the transport
        # cost; the CLI exposes no memo counters, so the replay's are used.
        d = Daemon(rundir)
        try:
            out = os.path.join(rundir, "probe.json")
            rc = subprocess.call(
                [PERFBENCH, "wire", "--port", str(d.port), "--workload",
                 "status_probe", "--seed", str(seed), "--seconds", "1",
                 "--out", out], env=client_env(), stdin=subprocess.DEVNULL)
        finally:
            d.stop()
        if rc != 0:
            fail("status probe exited %d" % rc)
        with open(out) as f:
            status_ms = latencies(json.load(f))["status"]
        hits, misses = t_def["memo_hits"], t_def["memo_misses"]

    rtt_us = 1000.0 * median(status_ms)
    m.update({
        "net.status_rtt_us": rtt_us,
        "net.transport_us": rtt_us - extra["net.status_inproc_us"],
        "net.bytes_per_request": e2e["bytes"] / max(
            e2e["invocations"] if e2e["kind"] == "study" else e2e["ops"], 1),
        "io.parse_us_per_task": extra["io.parse_us_per_task"],
        "svc.memo.hit_ratio": hits / max(hits + misses, 1),
        # Insert side: the fixed-length replay on every workload, so a
        # faster program (more requests in the window) does not read worse.
        "svc.memo.insertions": t_def["memo_insertions"],
        "svc.memo.evictions": t_def["memo_evictions"],
        "svc.memo.bytes": t_def["memo_bytes"],
        "svc.engine.builds": c["engine_builds"],
        "svc.ladder.rounds_mean": c["ladder_rounds"] / max(c["ladder_runs"], 1),
        "svc.ladder.exact_frac": c["ladder_exact"] / max(c["ladder_runs"], 1),
        "svc.row_bytes": c["row_bytes"] / max(c["rows"], 1),
        "svc.stream.peak_rows": c["peak_rows"],
        "gen.system_us": extra["gen.system_us"],
        "gen.pack_fail_frac": c["pack_failures"] / max(c["draws"], 1),
        "par.vcsw_per_op": e2e["nvcsw"] / max(e2e["ops"], 1),
        "par.nvcsw_per_op": e2e["nivcsw"] / max(e2e["ops"], 1),
        "par.cpu_util": e2e["cpu_s"] / (e2e["wall_s"] * default_threads()),
        "trace.overhead_ratio": t_def["traced_ms"] / t_def["untraced_ms"],
    })
    for name in T1_TWINS:
        m[name + ".t1"] = m1[name]
    return m


# --- main ------------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src")):
        fail("no flexrt sources at " + ROOT)
    build()

    rundir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(rundir)
    try:
        if args.workload == "study_batch":
            e2e = run_study(args.seed, args.seconds, rundir)
        else:
            e2e = run_wire(args.workload, args.seed, args.seconds, rundir)
        values, notes = e2e_metrics(e2e)
        units = dict(E2E)
        if args.trace:
            values = layer_metrics(args.workload, args.seed, rundir, e2e)
            units = dict(LAYER)
            notes = {}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    correct = e2e["failed"] == 0
    print("workload %s  seed %d  %.1f s  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("attempted %d  failed %d  failed_frac %.4g" % (
        e2e["attempted"], e2e["failed"],
        e2e["failed"] / max(e2e["attempted"], 1)))
    print("reference check: " + e2e["reference"])
    for f in e2e["failures"]:
        print("  failure: " + f)
    for name, unit in (LAYER if args.trace else E2E + E2E_UNREGISTERED):
        print("  %-28s %14.6g %-6s %s" % (name, values[name], unit,
                                           notes.get(name, "")))
    metrics = {name: {"value": finite(values[name]), "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": correct, "attempted": e2e["attempted"],
                      "failed": e2e["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
