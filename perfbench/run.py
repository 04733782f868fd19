#!/usr/bin/env python3
"""The repository benchmark: closed-loop workloads against `tilings serve`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-repeat --seed 1 --seconds 25 --trace 0

It builds `bin/tilings.exe` and `perfbench/pbench.exe` with dune, makes the
workload's request lines from the seed (`pbench gen`; the list is sized so
that the run takes about `--seconds`), then sends the whole list to two
fresh `tilings serve --socket` daemons in turn. Each round sends the
warm-up pass, times set-up, sends the list as a closed loop and stops the
daemon. Every answer is checked. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 1` instead runs the traced in-process replay (`pbench trace`) of
every workload and prints the per-layer metrics. `--sets 2` runs every
workload twice over and prints each end-to-end metric's spread against its
bound. See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    # name: (client connections, daemon --jobs)
    "analytic-repeat": (1, 1),
    "analytic-novel": (1, 1),
    "simulate": (2, 2),
    "partition": (1, 1),
}

# Every run sends its whole list to this many fresh daemons in turn.
ROUNDS = 2
# Set-up is timed on at least this many fresh daemons per run.
MIN_SETUPS = 15
# Float rendering slack when an answer is compared with its lower bound.
REL_EPS = 1e-9

WORK_DIR = ".perfbench"
TILINGS = os.path.join("_build", "default", "bin", "tilings.exe")
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", os.path.join("bin", "tilings.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a projtile checkout (%s is missing)" % need)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/tilings.exe", "./perfbench/pbench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        die("build failed", 3)


def generate(workload, seed, seconds, run_dir):
    d = os.path.join(run_dir, workload)
    os.makedirs(d, exist_ok=True)
    subprocess.run(
        [PBENCH, "gen", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--dir", d],
        check=True,
    )

    def lines(name):
        with open(os.path.join(d, name), "rb") as f:
            return [l for l in f.read().split(b"\n") if l]

    return lines("warmup.ndjson"), lines("requests.ndjson")


# ---------------------------------------------------------------- daemon


class Daemon:
    """One `tilings serve --socket` process. The socket path is relative to
    the checkout, which keeps it under the 108-byte AF_UNIX limit."""

    def __init__(self, run_dir, jobs, tag, extra=()):
        self.path = os.path.join(run_dir, "d%d.sock" % tag)
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [TILINGS, "serve", "--socket", self.path, "--jobs", str(jobs)] + list(extra),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def connect(self):
        deadline = time.perf_counter() + 30.0
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not come up")
                time.sleep(0.0005)

    def peak_rss_mb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self.path):
            os.unlink(self.path)


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line + b"\n")

    def recv_line(self):
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                line, self.buf = self.buf[:i], self.buf[i + 1 :]
                return line
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("daemon closed the connection")
            self.buf += chunk

    def ask(self, line):
        self.send(line)
        return self.recv_line()

    def close(self):
        self.sock.close()


def closed_loop(conns, requests):
    """Send every request, each connection waiting for its answer before
    taking the next one. Returns (responses, latencies_ns, wall_s)."""
    n = len(requests)
    responses = [None] * n
    lat = [0] * n
    clock = time.perf_counter_ns
    sel = selectors.DefaultSelector()
    inflight = {}
    nxt = 0

    def send_next(c):
        nonlocal nxt
        if nxt < n:
            inflight[c] = (nxt, clock())
            c.send(requests[nxt])
            nxt += 1

    start = clock()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
        send_next(c)
    while inflight:
        for key, _ in sel.select():
            c = key.data
            i, t = inflight.pop(c)
            responses[i] = c.recv_line()
            lat[i] = clock() - t
            send_next(c)
    sel.close()
    return responses, lat, (clock() - start) / 1e9


# ---------------------------------------------------------------- checks


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k not in ("timings", "from_cache")}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def check_answers(requests, responses):
    """Checks that do not depend on the code path. Returns
    (ok_count, failures, words_over_bound samples, digest)."""
    h = hashlib.sha256()
    ok = 0
    failures = []
    quality = []
    for req_line, line in zip(requests, responses):
        req = json.loads(req_line)
        try:
            resp = json.loads(line)
        except ValueError:
            failures.append("%s: unparseable response" % req["id"])
            h.update(b"?\n")
            continue
        if "timings" in line.decode("utf-8", "replace"):
            line = json.dumps(strip_timings(resp), separators=(",", ":")).encode()
        h.update(line + b"\n")
        why = None
        if resp.get("id") != req["id"]:
            why = "answer id %r" % resp.get("id")
        elif resp.get("ok") is not True:
            why = "error %s" % json.dumps(resp.get("error"))
        elif req["op"] == "partition":
            part = resp["partition"]
            words, lb = int(part["words"]), float(part["lower_bound"])
            if words < lb * (1 - REL_EPS):
                why = "partition words %d below lower bound %r" % (words, lb)
            else:
                quality.append(words / lb)
        else:
            rep = resp["report"]
            lb = float(rep["lower_bound_words"])
            if rep["tile_max_footprint"] > rep["m"]:
                why = "tile footprint %d exceeds m = %d" % (rep["tile_max_footprint"], rep["m"])
            for sim in rep["simulations"]:
                if sim["words_moved"] < lb * (1 - REL_EPS):
                    why = "simulated %d words below lower bound %r" % (sim["words_moved"], lb)
            want_sims = "schedules" in req
            if why is None and want_sims:
                opt = [s for s in rep["simulations"] if s["schedule"].startswith("tiled")]
                if len(rep["simulations"]) != 2 or not opt:
                    why = "expected an optimal and an untiled simulation"
                else:
                    quality.append(float(opt[0]["ratio"]))
            elif why is None:
                quality.append(float(rep["attainment"]))
        if why is None:
            ok += 1
        else:
            failures.append("%s: %s" % (req["id"], why))
    return ok, failures, quality, h.hexdigest()


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else float("nan")


def percentile(sorted_xs, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_xs) - 1, math.ceil(p / 100.0 * len(sorted_xs)) - 1))
    return sorted_xs[k]


# ---------------------------------------------------------------- rounds


def boot(run_dir, jobs, tag, warmup, extra=()):
    """Spawn a daemon, send the warm-up pass, and time until it answers a
    request sent after it. Returns (daemon, first connection, setup_s,
    warm-up failures)."""
    d = Daemon(run_dir, jobs, tag, extra)
    try:
        c = d.connect()
        bad = [w for w in warmup if b'"ok":true' not in c.ask(w)]
        c.ask(warmup[0])
        return d, c, time.perf_counter() - d.t0, bad
    except Exception:
        d.stop()
        raise


def run_workload(workload, seed, seconds, run_dir, log):
    conns_n, jobs = WORKLOADS[workload]
    warmup, requests = generate(workload, seed, seconds, run_dir)
    n = len(requests)
    setups, rss, round_lats, rates = [], [], [], []
    ok_total = 0
    failures = []
    digests = set()
    quality = None
    for r in range(ROUNDS):
        d, c0, setup_s, bad = boot(run_dir, jobs, r, warmup)
        try:
            conns = [c0] + [d.connect() for _ in range(conns_n - 1)]
            gc.disable()
            try:
                responses, lat, wall = closed_loop(conns, requests)
            finally:
                gc.enable()
            rss.append(d.peak_rss_mb())
            for c in conns:
                c.close()
        finally:
            d.stop()
        setups.append(setup_s)
        failures += ["warm-up: " + w.decode()[:80] for w in bad]
        ok, fails, q, digest = check_answers(requests, responses)
        failures += fails
        digests.add(digest)
        quality = q if quality is None else quality
        round_lats.append(lat)
        rates.append(ok / wall)
        ok_total += ok
    # Set-up is the noisiest figure: time more fresh daemons.
    while len(setups) < MIN_SETUPS:
        d, c, setup_s, bad = boot(run_dir, jobs, len(setups), warmup)
        c.close()
        d.stop()
        setups.append(setup_s)
        failures += ["warm-up: " + w.decode()[:80] for w in bad]
    # Each request's latency is the lowest over the rounds, and throughput
    # is the best round's: other tenants' interference lands on one send
    # and rarely on all of them.
    lats = sorted(min(ls) for ls in zip(*round_lats))
    attempted = n * ROUNDS
    ok_ratio = ok_total / attempted
    log("%s seed %d: %d rounds x %d requests, %d latency samples, %d set-ups, digest %s"
        % (workload, seed, ROUNDS, n, len(lats), len(setups), ",".join(sorted(digests))))
    for f in failures[:10]:
        log("FAILED " + f)
    if len(digests) != 1:
        log("answers differ between rounds of the same list")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (max(rates), "1/s"),
        "latency_p50_ms": (percentile(lats, 50) / 1e6, "ms"),
        "latency_p99_ms": (percentile(lats, 99) / 1e6, "ms"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "words_over_bound": (geomean(quality), "ratio"),
    }
    return {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": attempted - ok_total,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------- trace


def run_trace(seed, seconds, run_dir, log):
    """Per-layer metrics from the traced in-process replay, plus the one
    figure that needs the socket: serve.overhead_us."""
    out = os.path.join(WORK_DIR, "trace.json")
    proc = subprocess.run(
        [PBENCH, "trace", "--seed", str(seed), "--seconds", str(seconds), "--dir", run_dir, "--out", out],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError("pbench trace failed")
    lines = proc.stdout.strip().split("\n")
    for line in lines[:-1]:
        log(line)
    result = json.loads(lines[-1])
    log("trace: Chrome trace written to %s" % out)
    # The replay writes each workload's response lines; the same checks apply.
    replayed = {}
    for w in WORKLOADS:
        _, reqs = generate(w, seed, seconds, run_dir)
        with open(os.path.join(run_dir, w, "replay.ndjson"), "rb") as f:
            resps = [l for l in f.read().split(b"\n") if l]
        ok, fails, _, digest = check_answers(reqs[: len(resps)], resps)
        log("trace: %s replayed %d requests, digest %s" % (w, len(resps), digest))
        replayed[w] = len(resps)
        result["failed"] += len(resps) - ok
        if fails or not resps:
            result["correct"] = False
            for f in fails[:10]:
                log("FAILED " + f)
    if sum(replayed.values()) != result["attempted"]:
        log("replayed %d responses, the replay counted %d" % (sum(replayed.values()), result["attempted"]))
        result["correct"] = False
    result["metrics"]["serve.overhead_us"] = {
        "value": serve_overhead_us(seed, seconds, replayed["analytic-repeat"], run_dir),
        "unit": "us",
    }
    return result


def serve_overhead_us(seed, seconds, n, run_dir):
    """Median over analytic-repeat requests of the client's latency minus
    the stage times the daemon reports for the same request (sent with
    "timings":true: analysis, shared tile, simulation). What is left is
    the socket, decode, report rendering, envelope and batch-loop cost.
    Both figures come from the same request, so machine-speed drift
    cancels; a difference of two medians from two separate runs did not
    survive this machine's noise."""
    warmup, requests = generate("analytic-repeat", seed, seconds, run_dir)
    timed = [r[:-1] + b',"timings":true}' for r in requests[:n]]
    d, c, _, _ = boot(run_dir, 1, 0, warmup)
    try:
        responses, lat, _ = closed_loop([c], timed)
        c.close()
    finally:
        d.stop()
    diffs = []
    for line, l in zip(responses, lat):
        stages = json.loads(line)["report"]["timings"]
        diffs.append(l / 1e3 - 1e6 * sum(stages.values()))
    return statistics.median(diffs)


# ---------------------------------------------------------------- sets


def run_sets(workloads, sets, runs, seconds, log):
    """Run each workload `runs` times (seeds 1..runs) in each of `sets`
    sets and print each end-to-end metric's spread against its bound.
    Returns False if a run was not correct, or a spread or the drift of a
    median between the first and last set exceeds the metric's bound."""
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    worst_ok = True
    for w in workloads:
        per_set = []
        for s in range(sets):
            vals = {}
            for r in range(runs):
                res = one_run(w, r + 1, seconds, 0, lambda msg: None)
                log("set %d %s seed %d correct %s attempted %d failed %d %s" % (
                    s + 1, w, r + 1, res["correct"], res["attempted"], res["failed"],
                    json.dumps({k: v["value"] for k, v in res["metrics"].items()})))
                worst_ok &= res["correct"]
                for k, v in res["metrics"].items():
                    vals.setdefault(k, []).append(v["value"])
            per_set.append(vals)
        for k in sorted(bounds):
            cols = []
            for vals in per_set:
                xs = vals[k]
                q1, med, q3 = statistics.quantiles(xs, n=4)
                cols.append((med, (q3 - q1) / med if med else 0.0))
            drift = abs(cols[-1][0] - cols[0][0]) / cols[0][0] if cols[0][0] else 0.0
            flags = []
            if any(sp > bounds[k] for _, sp in cols):
                flags.append("SPREAD>bound")
            elif any(sp > bounds[k] / 3 for _, sp in cols):
                flags.append("spread>bound/3")
            if drift > bounds[k]:
                flags.append("DRIFT>bound")
            worst_ok &= "SPREAD>bound" not in flags and "DRIFT>bound" not in flags
            log("%-16s %-16s bound %.3f | %s | drift %.4f %s" % (
                w, k, bounds[k], " | ".join("median %.6g spread %.4f" % c for c in cols), drift,
                " ".join(flags)))
    return worst_ok


# ---------------------------------------------------------------- main


def one_run(workload, seed, seconds, trace, log):
    run_dir = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    try:
        if trace:
            return run_trace(seed, seconds, run_dir, log)
        return run_workload(workload, seed, seconds, run_dir, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=0,
                    help="steadiness mode: N sets of --runs runs of every workload")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    def log(msg):
        print(msg, flush=True)

    build()
    if args.sets:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        sys.exit(0 if run_sets(workloads, args.sets, args.runs, args.seconds, log) else 1)
    if args.workload is None and not args.trace:
        die("--workload is required")
    try:
        result = one_run(args.workload, args.seed, args.seconds, args.trace, log)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        die("run failed: %s" % e, 4)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
