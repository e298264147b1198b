#!/usr/bin/env python3
"""End-to-end benchmark of the vliw_vp simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 60 --trace 0

It builds the program with dune, measures one workload from outside
(child processes and the daemon's socket), checks every output, prints a
human-readable report and, as its last line, one JSON object with the
metrics. `--trace 1` runs the separate traced run that gives per-layer
numbers instead. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import wire  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "bin", "vliw_vp.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "tracer", "layers.exe")
NPROC = os.cpu_count() or 1
MODELS = ["compress", "ijpeg", "li", "m88ksim", "vortex", "hydro2d", "swim",
          "tomcatv"]
REFERENCE_SEED = 42
CHILD_TIMEOUT_S = 170.0

# serve-mixed first runs rounds, each on a fresh daemon: set-up, then twice
# a fresh sequence followed by warm submits, every submit sent alone. So
# every kind of sample is spread over the rounds' whole time, and a slow
# spell of the host (a fixed CPU loop on the 2-core VM varied 2x over tens
# of seconds) moves a few samples of each kind, not all of one. The gated
# figures are medians over the rounds.
MIN_ROUNDS = 3
WARM_SUBMITS = 32  # warm submits after each fresh sequence
# Then one last daemon takes the open-loop traffic: the middle rate, where
# latency is reported, then the capacity ladder. Each phase's share of the
# run is given with its rate, in absolute requests per second. On a 2-core
# host (Linux VM, OCaml 5.1.1) with the daemon's default two shards, the
# submit tail over 6 s phases of this mix measured 31-43 ms at 10/s,
# 83-92 ms at 20/s, 128-168 ms at 40/s and 450-1170 ms at 60/s; 90/s also
# drew quota rejections. So the ladder's top rate lies above the tail
# limit, and max_rate_rps reads the highest rate below it.
MIDDLE_RATE = 10.0
PHASES = ((MIDDLE_RATE, 0.15), (20.0, 0.05), (40.0, 0.05), (60.0, 0.05),
          (90.0, 0.05))
# The tail limit max_rate_rps is judged against: about twice the costliest
# lone fresh submit (hardware mode, ~130 ms), so a rate passes while a
# request waits behind at most about one fresh computation.
TAIL_LIMIT_MS = 250.0
# Generator lateness (at the tail percentile) beyond this voids a run at
# the middle rate, and fails the rate on the ladder.
LATENESS_LIMIT_MS = 100.0
# No recorded traffic of this daemon exists, so the mix is a design choice:
# mostly warm submits, as a user re-reading results would send, and a
# quarter fresh seeds. At the middle rate the fresh quarter (2.5/s at a
# ~60 ms median) keeps the shards about 10% busy, enough to put compute and
# store writes beside the warm reads without saturating either.
FRESH_SHARE = 0.25
# Admission rejections the daemon answers on the ladder above the middle
# rate are its overload signal: they fail that rate, and are not output
# failures. Anywhere else a rejection is a failure.
OVERLOAD_CODES = ("overloaded", "quota_exceeded")
WARM_EXPERIMENTS = ["table2", "table3", "fig8", "comparison", "regions",
                    "hardware"]
# Fresh requests cycle through three experiments of distinct cost, so the
# median fresh latency falls inside the middle one's cluster and the tail
# inside the costliest one's, not on the border between two.
FRESH_EXPERIMENTS = ["hardware", "table2", "ablate:accounting"]
# artifact -> the direct command that prints the same table, and what the
# served bytes add to its stdout (the separating newline; the ablation
# command already prints one after each table)
DIRECT = {"table2": (["table2"], "\n"), "table3": (["table3"], "\n"),
          "fig8": (["fig8"], "\n"), "comparison": (["compare"], "\n"),
          "regions": (["regions"], "\n"), "hardware": (["hardware"], "\n"),
          "ablate:accounting": (["ablate", "--sweep", "accounting"], "")}

WORKLOADS = ("suite-cold", "sweep-cold", "serve-mixed")


def log(msg):
    print(msg, flush=True)


class Failure(Exception):
    """An output check failed; counted, never fatal to the run."""


# --- child processes ------------------------------------------------------

WORK = None  # this run's work directory, set by main
LIVE = []  # every Popen this run started and has not reaped


class Child:
    """A child process with its wall time, rusage and captured output."""

    def __init__(self, argv, env=None, new_session=False, nice=0):
        e = dict(os.environ)
        e.update(env or {})
        self.out_path = os.path.join(WORK, "out-%d" % id(self))
        self.err_path = self.out_path + ".err"
        self.t0 = time.perf_counter()
        with open(self.out_path, "wb") as o, open(self.err_path, "wb") as r:
            self.proc = subprocess.Popen(
                argv, stdout=o, stderr=r, env=e,
                start_new_session=new_session,
                preexec_fn=(lambda: os.nice(nice)) if nice else None)
        LIVE.append(self.proc)

    def wait(self, timeout=CHILD_TIMEOUT_S):
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        LIVE.remove(self.proc)
        self.rusage = ru
        with open(self.out_path, "rb") as f:
            self.stdout = f.read()
        with open(self.err_path, "rb") as f:
            self.stderr = f.read()
        os.remove(self.out_path)
        os.remove(self.err_path)
        return self

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            try:
                self.proc.kill()
            except OSError:
                pass

    @property
    def code(self):
        return self.proc.returncode


def run(argv, env=None):
    c = Child(argv, env).wait()
    if c.code != 0:
        raise Failure("%s exited %d: %s" % (" ".join(argv[:3]), c.code,
                                             c.stderr.decode()[-300:]))
    return c


def gc_report(stderr):
    """Sum the OCAMLRUNPARAM=v=0x400 exit reports on a stderr stream (one
    per process of a tree)."""
    totals = {}
    for line in stderr.decode(errors="replace").splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("allocated_words", "minor_words", "major_words",
                           "top_heap_words", "minor_collections",
                           "major_collections"):
            try:
                totals[key] = totals.get(key, 0) + int(float(value))
            except ValueError:
                pass
    return totals


def fresh_dir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def tree_peak_rss_kb(pid):
    """Peak resident memory of a process tree: the sum of each live
    process's high-water mark (VmHWM), read from /proc. Sampling would
    cost the generator CPU time in the middle of the measurement."""
    children = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % p) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            children.setdefault(int(fields[1]), []).append(int(p))
        except OSError:
            continue
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        stack.extend(children.get(p, []))
        try:
            with open("/proc/%d/status" % p) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


# --- statistics -------------------------------------------------------------

def summary(values):
    """Median, quartiles and count, as the report prints them."""
    v = sorted(values)
    if len(v) >= 2:
        q1, q2, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = q2 = q3 = v[0]
    return {"n": len(v), "median": statistics.median(v), "q1": q1, "q3": q3}


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0 * (n - 1) / n if n else 0.0
    idx = n - 11  # ten samples lie strictly above index n - 11
    return v[idx], 100.0 * (idx + 1) / n


# --- the daemon -------------------------------------------------------------

class Daemon:
    """`vliw_vp serve --jobs 1` at its default shard count, optionally
    under the GC watcher, with a socket inside the work directory."""

    def __init__(self, name, store, gc_out=None):
        self.dir = fresh_dir(name)
        self.sock = os.path.join(os.path.relpath(self.dir), "d.sock")
        argv = [EXE, "serve", "--jobs", "1", "--socket", self.sock,
                "--cache-dir", store]
        env = {"OCAMLRUNPARAM": "v=0x400"}
        if gc_out:
            argv = [LAYERS, "gc", "--dir", self.dir, "--out", gc_out,
                    "--"] + argv
            env = {}
        self.t0 = time.perf_counter()
        # The daemon yields the CPU to the client that times it: on a small
        # host the two share cores, and a starved client would stamp
        # replies late.
        self.child = Child(argv, env=env, new_session=True, nice=5)
        wire.wait_ready(self.sock, 60.0)

    def shutdown(self):
        self.peak_rss_kb = tree_peak_rss_kb(self.child.proc.pid)
        try:
            wire.call(self.sock, {"op": "shutdown", "id": "bye"},
                      ("shutting_down",), 30.0)
        finally:
            self.child.wait(60.0)
        if self.child.code != 0:
            raise Failure("daemon exited %d" % self.child.code)
        return gc_report(self.child.stderr)


def warmup_spec():
    """Every warm-up experiment on every model at the reference seed: the
    set-up's warm-up wave, and the rounds' warm submit."""
    return {"experiments": WARM_EXPERIMENTS, "benchmarks": MODELS,
            "config": {"seed": REFERENCE_SEED}}


def check_warmup(data_by_artifact):
    """The warm-up wave runs at the reference seed: every artifact it
    returns must match the reference captures."""
    with open(os.path.join(HERE, "reference", "all-seed42.txt")) as f:
        suite = f.read()
    with open(os.path.join(HERE, "reference", "hardware-seed42.txt")) as f:
        hardware = f.read() + "\n"
    for artifact in WARM_EXPERIMENTS:
        got = data_by_artifact.get(artifact, "")
        ok = got == hardware if artifact == "hardware" else (
            got != "" and got in suite)
        if not ok:
            raise Failure("warm-up artifact %s differs from the reference"
                          % artifact)


def serve_setup(store, name, gc_out=None):
    """Launch a daemon over an empty store and run the warm-up wave;
    return (daemon, seconds from launch to warm)."""
    d = Daemon(name, store, gc_out)
    events, _, _, _ = wire.call(d.sock, dict(warmup_spec(), op="submit",
                                             id="warmup"), ("done", "error"))
    setup_s = time.perf_counter() - d.t0
    by = {e["artifact"]: e["data"] for e in events
          if e.get("event") == "result"}
    if any(e.get("event") == "error" for e in events):
        raise Failure("warm-up wave failed: %s" % events[-1])
    check_warmup(by)
    d.warmup = "".join(by[e] for e in WARM_EXPERIMENTS)
    return d, setup_s


# --- one-shot workloads -------------------------------------------------------

def version_once():
    c = run([EXE, "--version"])
    if not c.stdout.strip():
        raise Failure("--version printed nothing")
    return c.wall


class Checker:
    """Byte-compares each output of one command against the reference
    capture (at the reference seed) or against the run's first output."""

    def __init__(self, reference_file, seed):
        self.expected = None
        if seed == REFERENCE_SEED:
            with open(os.path.join(HERE, "reference", reference_file),
                      "rb") as f:
                self.expected = f.read()

    def check(self, what, out):
        if self.expected is None:
            self.expected = out
        elif out != self.expected:
            raise Failure("%s output differs from the reference" % what)


def probe_submit(d, spec, expected, tag):
    """One warm submit of a one-shot workload's artifacts: the daemon path
    of the output check. Returns (latency, connect, first frame, stream)
    in ms."""
    data, err, (t_conn, first, last) = wire.submit(d.sock, dict(spec, id=tag))
    if err or data.encode() != expected:
        raise Failure("daemon output differs from the direct run")
    return last * 1e3, t_conn * 1e3, first * 1e3, (last - first) * 1e3


def daemon_probe(store, spec, expected, n):
    """A daemon over the store a cold run filled, its stats around n warm
    submits."""
    d = Daemon("probe", store)
    try:
        before = wire.stats(d.sock)
        parts = [probe_submit(d, spec, expected, "probe-%d" % i)
                 for i in range(n)]
        after = wire.stats(d.sock)
    finally:
        d.shutdown()
    return parts, before, after


def one_shot_spec(workload, seed):
    """The submit that asks the daemon for a one-shot workload's output,
    and what the served bytes add to the direct command's stdout: each
    artifact carries its separating newline, and `all` already prints
    those between its tables."""
    if workload == "suite-cold":
        exps, suffix = ["table2", "table3", "table4", "fig8", "comparison",
                        "regions", "overlap", "example"], b""
    else:
        exps, suffix = ["regions:frontier"], b"\n"
    return ({"experiments": exps, "benchmarks": MODELS,
             "config": {"seed": seed}}, suffix)


def one_shot(workload, seed, seconds):
    """Iterations of: --version set-up samples, a cold run over an empty
    store, warm reruns over it and (suite) a cold run at --jobs nproc.
    After the timed loop, the daemon path of the output check: one submit
    of the workload's artifacts to a daemon over the last filled store."""
    spec, suffix = one_shot_spec(workload, seed)
    if workload == "suite-cold":
        cmd, ref, jn = ["all"], "all-seed42.txt", True
    else:
        cmd, ref, jn = ["frontier"], "frontier-seed42.txt", False
    flags = ["--seed", str(seed)]
    checker = Checker(ref, seed)
    tally = {"attempted": 0, "failed": 0}
    S = {k: [] for k in ("setup", "cold", "warm", "cold_n", "alloc", "rss")}

    def attempt(what, f):
        tally["attempted"] += 1
        try:
            return f()
        except (Failure, OSError, TimeoutError, ConnectionError) as e:
            tally["failed"] += 1
            log("FAILED %s: %s" % (what, e))
            return None

    def direct(what, args, env=None):
        c = run([EXE] + cmd + flags + args, env)
        checker.check(what, c.stdout)
        return c

    def served(store):
        d = Daemon("probe", store)
        try:
            probe_submit(d, spec, checker.expected + suffix, "check")
        finally:
            d.shutdown()

    filled, iters = None, 0
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        for _ in range(5):
            w = attempt("--version", version_once)
            if w is not None:
                S["setup"].append(w)
        store = fresh_dir("store-%d" % (iters % 2))
        c = attempt("cold", lambda: direct(
            "cold", ["--jobs", "1", "--cache-dir", store],
            {"OCAMLRUNPARAM": "v=0x400"}))
        if c:
            S["cold"].append(c.wall)
            S["alloc"].append(gc_report(c.stderr)["allocated_words"])
            S["rss"].append(c.rusage.ru_maxrss)
            filled = store
        for _ in range(3):
            w = attempt("warm", lambda: direct(
                "warm", ["--jobs", "1", "--cache-dir", store]))
            if w:
                S["warm"].append(w.wall)
        if jn:
            store_n = fresh_dir("store-n")
            w = attempt("cold-jobs", lambda: direct(
                "cold-jobs", ["--jobs", str(NPROC), "--cache-dir",
                              store_n]))
            if w:
                S["cold_n"].append(w.wall)
        iters += 1
        elapsed = time.perf_counter() - t_start
        if iters >= 2 and elapsed + time.perf_counter() - t_iter > seconds:
            break
    if filled is not None:
        attempt("daemon submit", lambda: served(filled))
    if not (S["cold"] and S["warm"] and S["setup"]):
        raise SystemExit("perfbench: no successful %s runs" % workload)
    metrics = {
        "setup_s": (statistics.median(S["setup"]), "s"),
        "cold_s": (statistics.median(S["cold"]), "s"),
        "warm_s": (statistics.median(S["warm"]), "s"),
        "alloc_mwords": (statistics.median(S["alloc"]) / 1e6, "Mwords"),
        "peak_rss_mb": (statistics.median(S["rss"]) / 1024.0, "MB"),
    }
    info = {"iterations": iters}
    for k in ("setup", "cold", "warm"):
        info[k] = summary(S[k])
    if S["cold_n"]:
        metrics["jobs_speedup"] = (statistics.median(S["cold"])
                                   / statistics.median(S["cold_n"]), "x")
        info["cold_jobs_n_s"] = summary(S["cold_n"])
        info["nproc"] = NPROC
    return metrics, tally["attempted"], tally["failed"], info


# --- serve-mixed ------------------------------------------------------------

def traffic(seed, rate, duration, salt):
    """Open-loop schedule for one phase: Poisson arrivals at `rate`,
    conditioned on their count (rate x duration arrival times drawn
    uniformly), so every run sends the same number of requests.

    A fixed share of them, at seeded positions, are fresh submits: a new
    seed drawn from the benchmark seed, so the daemon computes and writes
    the store. The rest are warm submits at the reference seed, answered
    from the store. Both kinds cycle through a fixed recipe of
    experiments and benchmark subsets, so the mix, and with it the work a
    phase asks for, is the same for every seed; the seed moves arrival
    times, fresh positions and the fresh requests' program seeds."""
    rng = random.Random("%d:%s" % (seed, salt))
    n = int(round(rate * duration))
    times = sorted(rng.uniform(0.0, duration) for _ in range(n))
    fresh = set(rng.sample(range(n), int(round(FRESH_SHARE * n))))
    out, k, w = [], 0, 0
    for i, t in enumerate(times):
        if i in fresh:
            nf = len(FRESH_EXPERIMENTS)
            spec = {"experiments": [FRESH_EXPERIMENTS[k % nf]],
                    "benchmarks": [MODELS[k // nf % 8]],
                    "config": {"seed": 1000 + rng.randrange(10 ** 9)}}
            out.append((t, "fresh", spec))
            k += 1
        else:
            out.append((t, "warm", warm_spec(w)))
            w += 1
    return out


def warm_spec(w):
    """The w-th warm submit of the fixed recipe: each warm-up experiment
    in turn over a subset of one to four models, at the reference seed."""
    size = (w // len(WARM_EXPERIMENTS)) % 4 + 1
    return {"experiments": [WARM_EXPERIMENTS[w % len(WARM_EXPERIMENTS)]],
            "benchmarks": sorted(MODELS[(w + j) % 8] for j in range(size)),
            "config": {"seed": REFERENCE_SEED}}


def open_loop(sock, schedule, tag, drain_s=60.0):
    """Send each request at its due time over at most NPROC connections,
    whatever is still outstanding; stamp every reply frame on arrival.
    Latency is measured from the due time."""
    import select

    conns = [wire.Conn(sock) for _ in range(min(NPROC, len(schedule) or 1))]
    reqs, done = {}, []
    gc.disable()  # no collector pauses inside the generator's timing
    start = time.perf_counter() + 0.05
    i, late, backlog = 0, [], []
    last_due = start + (schedule[-1][0] if schedule else 0.0)
    try:
        while i < len(schedule) or reqs:
            now = time.perf_counter()
            while i < len(schedule) and start + schedule[i][0] <= now:
                due, kind, spec = schedule[i]
                rid = "%s-%d" % (tag, i)
                c = conns[i % len(conns)]
                c.send(dict(spec, op="submit", id=rid))
                sent = time.perf_counter()
                late.append((sent - (start + due)) * 1e3)
                reqs[rid] = {"due": start + due, "kind": kind, "spec": spec,
                             "data": {}}
                backlog.append((due, len(reqs)))
                i += 1
                now = time.perf_counter()
            if i >= len(schedule) and now > last_due + drain_s:
                break
            wait = (start + schedule[i][0] - now) if i < len(schedule) \
                else 0.1
            ready, _, _ = select.select(conns, [c for c in conns if c.out],
                                        [], max(0.0, wait))
            for c in conns:
                if c.out:
                    c.flush()
            for c in ready:
                for at, ev in c.read_frames():
                    r = reqs.get(ev.get("id"))
                    if r is None:
                        continue
                    kind = ev.get("event")
                    if kind == "result":
                        r["data"][ev["artifact"]] = ev["data"]
                    elif kind in ("done", "error"):
                        r["end"] = at
                        r["error"] = ev if kind == "error" else None
                        r["data"] = "".join(r["data"].get(e, "") for e in
                                            r["spec"]["experiments"])
                        done.append(r)
                        del reqs[ev["id"]]
    finally:
        gc.enable()
        for c in conns:
            c.close()
    return late, backlog, done, list(reqs.values())


def rejection(r):
    e = r["error"]
    return e is not None and e.get("code") in OVERLOAD_CODES


def phase_stats(done, stuck, late, backlog, duration, rate):
    """One phase's latencies from due time, failures, admission rejections
    (failures only at or below the middle rate), backlog growth and
    generator lateness."""
    lat = [(r["end"] - r["due"]) * 1e3 for r in done if not r["error"]]
    rejected = sum(1 for r in done if rejection(r))
    errors = sum(1 for r in done if r["error"]) + len(stuck)
    if rate > MIDDLE_RATE:
        errors -= rejected
    third = duration / 3.0
    early = [b for t, b in backlog if t < third] or [0]
    final = [b for t, b in backlog if t >= 2 * third] or [0]
    grew = statistics.mean(final) > 2 * statistics.mean(early) + 2
    late_p99 = tail(late)[0] if late else 0.0
    return {"lat": lat, "errors": errors, "rejected": rejected, "grew": grew,
            "late_p99": late_p99, "late_max": max(late) if late else 0.0}


def fresh_sequence(seed, k):
    """The k-th sequence of fresh submits sent one at a time to an
    otherwise idle daemon, so their latency is the cost of a cold request
    without queueing: each fresh experiment on each model, at new program
    seeds."""
    rng = random.Random("isolated:%d:%d" % (seed, k))
    return [{"experiments": [e], "benchmarks": [m],
             "config": {"seed": 1000 + rng.randrange(10 ** 9)}}
            for e in FRESH_EXPERIMENTS for m in MODELS]


def one_at_a_time(d, specs, tag):
    """Send each spec and wait for its answer before the next; return
    (answered records, failures)."""
    done, failed = [], 0
    for i, spec in enumerate(specs):
        data, err, (_, _, last) = wire.submit(
            d.sock, dict(spec, id="%s-%d" % (tag, i)))
        if err is not None:
            failed += 1
            log("FAILED %s submit: %s" % (tag, err))
        else:
            done.append({"spec": spec, "error": None, "latency": last,
                         "data": data})
    return done, failed


def check_answers(done):
    """Identical specs must get byte-identical answers, and a sample of
    them must match the direct command at the same flags."""
    seen = {}
    for r in done:
        if r["error"]:
            continue
        key = json.dumps(r["spec"], sort_keys=True)
        data = r["data"]
        if not data or seen.setdefault(key, data) != data:
            raise Failure("inconsistent answers for %s" % key)
    return seen


def direct_check(answers, seed, limit=4):
    """Cold direct runs of a seeded sample of answered one-experiment
    specs."""
    rng = random.Random("direct:%d" % seed)
    single = sorted(k for k in answers
                    if len(json.loads(k)["experiments"]) == 1)
    keys = rng.sample(single, min(limit, len(single)))
    fails = 0
    for key in keys:
        spec = json.loads(key)
        exp = spec["experiments"][0]
        store = fresh_dir("direct")
        argv, suffix = DIRECT[exp]
        try:
            c = run([EXE] + argv + [
                "-b", ",".join(spec["benchmarks"]),
                "--seed", str(spec["config"]["seed"]), "--cache-dir", store])
            if c.stdout.decode() + suffix != answers[key]:
                raise Failure("served %s differs from the direct run" % key)
        except Failure as e:
            fails += 1
            log("FAILED direct check: %s" % e)
    return len(keys), fails


def serve_round(seed, r, R):
    """Round r on a fresh daemon: set-up, then twice a fresh sequence
    followed by warm submits of the warm-up wave, each submit sent alone.
    Samples go into R."""
    d, s = serve_setup(fresh_dir("serve-store"), "daemon-%d" % r)
    R["setup"].append(s)
    try:
        for k in (2 * r, 2 * r + 1):
            for kind, specs in (("fresh", fresh_sequence(seed, k)),
                                ("warm", [warmup_spec()] * WARM_SUBMITS)):
                done, bad = one_at_a_time(d, specs, "%s-%d" % (kind, k))
                R["answered"] += done
                R["attempted"] += len(done) + bad
                R["failed"] += bad
                latency = [x["latency"] for x in done]
                if kind == "warm":
                    R["warm"] += latency
                    if any(x["data"] != d.warmup for x in done):
                        R["failed"] += 1
                        log("FAILED warm submit differs from the warm-up wave")
                elif not bad:
                    R["cold"].append(sum(latency))
    finally:
        report = d.shutdown()
    R["reports"].append(report)
    R["rss"].append(d.peak_rss_kb)


def serve_mixed(seed, seconds):
    """Rounds on fresh daemons (see serve_round) until the run's time, less
    the traffic's, is used; then the traffic phases on one last daemon."""
    R = {"setup": [], "cold": [], "warm": [], "reports": [], "rss": [],
         "answered": [], "attempted": 0, "failed": 0}
    traffic_s = sum(share for _, share in PHASES) * seconds
    t_start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        serve_round(seed, rounds, R)
        rounds += 1
        now = time.perf_counter()
        # room for one more round, the last daemon's set-up and traffic
        left = seconds - (now - t_start) - traffic_s
        if rounds >= MIN_ROUNDS and \
                left < now - t_round + statistics.median(R["setup"]):
            break
    d, s = serve_setup(fresh_dir("serve-store"), "daemon-traffic")
    R["setup"].append(s)
    phases = []
    try:
        for rate, share in PHASES:
            duration = share * seconds
            sched = traffic(seed, rate, duration, "rate%g" % rate)
            late, backlog, done, stuck = open_loop(d.sock, sched,
                                                   "r%g" % rate)
            st = phase_stats(done, stuck, late, backlog, duration, rate)
            st.update(rate=rate, sent=len(sched), done=done)
            phases.append(st)
    finally:
        d.shutdown()
    attempted, failed = R["attempted"], R["failed"]
    everything = [r for p in phases for r in p["done"]] + R["answered"]
    answers = {}
    try:
        answers = check_answers(everything)
    except Failure as e:
        failed += 1
        log("FAILED %s" % e)
    checked, bad = direct_check(answers, seed)
    attempted += checked
    failed += bad
    for p in phases:
        attempted += p["sent"]
        failed += p["errors"]
    mid = phases[0]
    t, pct = tail(mid["lat"])
    # A generator that fell behind at the middle rate voids the run, whose
    # latency figures come from that phase. On the ladder it fails that
    # rate: the daemon was not offered it, so it cannot count as met.
    valid = mid["late_p99"] <= LATENESS_LIMIT_MS
    max_rate = 0.0
    for p in phases:
        if p["lat"] and not p["grew"] and not p["errors"] and \
                not p["rejected"] and tail(p["lat"])[0] <= TAIL_LIMIT_MS \
                and p["late_p99"] <= LATENESS_LIMIT_MS:
            max_rate = max(max_rate, p["rate"])
    words = {k: statistics.median(x.get(k, 0) for x in R["reports"])
             for k in ("allocated_words", "minor_words", "major_words")}
    metrics = {
        "setup_s": (statistics.median(R["setup"]), "s"),
        # Seconds per fresh sequence. A submit's cost depends on its
        # program seed; a sequence's sum averages that out, and the median
        # over the rounds' sequences the host's slow spells.
        "cold_s": (statistics.median(R["cold"]), "s"),
        # A warm submit sent alone to an idle daemon: the store-read path.
        "warm_s": (statistics.median(R["warm"]), "s"),
        # The front end's exit report (shards leave without one), its
        # minor heap only: its direct major allocations are reply buffers
        # whose sizes follow how replies happen to be chunked.
        "alloc_mwords": (words["minor_words"] / 1e6, "Mwords"),
        "peak_rss_mb": (statistics.median(R["rss"]) / 1024.0, "MB"),
        "submit_p50_ms": (statistics.median(mid["lat"]), "ms"),
        "submit_tail_ms": (t, "ms"),
        "max_rate_rps": (max_rate, "1/s"),
    }
    info = {"rounds": rounds, "submit_tail_percentile": pct,
            "tail_limit_ms": TAIL_LIMIT_MS, "valid": valid,
            "setup_s": summary(R["setup"]), "cold_s": summary(R["cold"]),
            "warm_s": summary(R["warm"]), "front_end_words": words,
            "phases": [{"rate_rps": p["rate"], "sent": p["sent"],
                        "errors": p["errors"], "rejected": p["rejected"],
                        "backlog_grew": p["grew"],
                        "late_p99_ms": round(p["late_p99"], 3),
                        "late_max_ms": round(p["late_max"], 3),
                        "p50_ms": round(statistics.median(p["lat"]), 3)
                        if p["lat"] else None,
                        "tail_ms": round(tail(p["lat"])[0], 3)
                        if p["lat"] else None}
                       for p in phases]}
    if not valid:
        log("INVALID: the generator ran more than %.0f ms late at %g/s"
            % (LATENESS_LIMIT_MS, MIDDLE_RATE))
    return metrics, attempted, failed, info


# --- the traced run -------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def telemetry_checks(tel, name):
    """Conservation laws on a --telemetry JSON; returns violated counters."""
    bad = []
    j = tel["jobs"]
    if j["queued"] != j["done"] + j["failed"] + j["timed_out"]:
        bad.append("%s:jobs.queued" % name)
    su = tel["spec_unit"]
    for f in ("hits", "misses"):
        if su[f] != sum(s[f] for s in su["stripes"]):
            bad.append("%s:spec_unit.%s" % (name, f))
    se = tel["spec_eval"]
    if se["bitset_words"] and abs(
            se["vectors_per_word"]
            - se["bitset_vectors"] / se["bitset_words"]) > 0.006:
        bad.append("%s:spec_eval.vectors_per_word" % name)
    return bad


def layer_pass(workload, seed, jobs, spans, tag):
    """One run of the layer pass in a fresh process: its JSON, the output
    it rendered, and the telemetry of its leaves' execution context."""
    out = os.path.join(WORK, "layers-%s.json" % tag)
    run([LAYERS, "trace", "--workload", workload, "--seed", str(seed),
         "--jobs", str(jobs), "--spans", spans,
         "--store", fresh_dir("layer-store-" + tag), "--out", out])
    with open(out) as f:
        L = json.load(f)
    with open(out + ".out", "rb") as f:
        L["output"] = f.read()
    with open(out + ".warm.out", "rb") as f:
        L["warm_output"] = f.read()
    with open(out + ".telemetry") as f:
        L["telemetry"] = json.load(f)
    return L


def layer_metrics(workload, seed, jobs, pairs):
    """The layer pass, traced and untraced, alternating."""
    walls = {"1": [], "0": []}
    for _ in range(pairs):
        for spans in ("1", "0"):
            P = layer_pass(workload, seed, jobs, spans, spans)
            walls[spans].append(P["wall_s"])
            if spans == "1":
                L = P
    layers, counts = L["layers"], L["counts"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    m = {}
    for name in ("vp_workload", "vp_profile", "vp_sched", "vp_vspec",
                 "vp_baseline", "vp_cache", "vliw_vp.pipeline"):
        m[name + ".self_s"] = (self_s(name), "s")
    m.update(trace_sim_metrics(L))
    m["vp_profile.alloc_mwords"] = (
        layers.get("vp_profile", {}).get("alloc_mwords", 0.0), "Mwords")
    for name in ("compile", "scenario", "reference", "overlap"):
        m["vp_engine.%s_s" % name] = (self_s("vp_engine." + name), "s")
    m["vp_engine.vectors"] = (L["bitset"]["vectors"], "count")
    m["vp_engine.vectors_per_word"] = (
        ratio(L["bitset"]["vectors"], L["bitset"]["words"]), "ratio")
    m["vp_region.form_s"] = (self_s("vp_region.form"), "s")
    m["vp_region.calls"] = (counts.get("vp_region.calls", 0), "count")
    m["vp_exec.store_read_s"] = (self_s("vp_exec.store_read"), "s")
    m["vp_exec.store_write_s"] = (self_s("vp_exec.store_write"), "s")
    m["vp_exec.queue_wait_s"] = (ratio(counts.get("vp_exec.queue_wait_s", 0),
                                       counts.get("vp_exec.jobs", 0)), "s")
    # Coverage: the share of the leaves' domain time that named layers'
    # spans cover; the rest is leaf and pipeline glue.
    leaf_s = layers.get("vp_exec.leaf", {}).get("total_s", 0.0)
    covered = sum(v["self_s"] for k, v in layers.items()
                  if k not in ("vliw_vp.pipeline", "vp_exec.leaf"))
    m["trace.coverage"] = (ratio(covered, leaf_s), "ratio")
    m["trace.span_overhead_s"] = (statistics.median(walls["1"])
                                  - statistics.median(walls["0"]), "s")
    # leaves run in both the cold pass and its warm rerun
    L["busy_share"] = ratio(leaf_s, (L["wall_s"] + L["warm_wall_s"]) * jobs)
    L["untraced_wall_s"] = statistics.median(walls["0"])
    return m, L


def trace_sim_metrics(L):
    ts = L["trace_sim"]
    return {
        "vliw_vp.trace_sim.self_s": (
            L["layers"].get("vliw_vp.trace_sim", {}).get("self_s", 0.0), "s"),
        "vliw_vp.trace_sim.memo_hit_ratio": (
            ratio(ts["memo_hits"], ts["memo_hits"] + ts["engine_replays"]),
            "ratio")}


def hardware_pass(seed):
    """`all` never runs Trace_sim; only `hardware` does. So suite-cold's
    traced run adds the layer pass over the serve warm-up wave's artifacts
    (hardware among them) at the same seed, checked against a daemon's
    answer to that submit. Returns (trace_sim metrics, violations)."""
    L = layer_pass("serve-mixed", seed, 1, "1", "hardware")
    d = Daemon("hardware", fresh_dir("hardware-store"))
    try:
        data, err, _ = wire.submit(d.sock, dict(warmup_spec(), id="hw",
                                                config={"seed": seed}))
    finally:
        d.shutdown()
    bad = ["hardware:submit"] if err else []
    return trace_sim_metrics(L), bad + [
        "hardware_" + v for v in pass_checks(L, data.encode())]


def pass_checks(L, expected, tel=None):
    """The layer pass must do the program's work. Its rendered output must
    equal the program's; and, given the program's --telemetry from a run at
    --jobs 1 (where the counters are deterministic) and a pass at --jobs 1,
    its memo lookups, kernel vectors and graph jobs must equal the
    program's. Returns the mismatches by counter name."""
    bad = [] if L["output"] == expected else ["pass:output"]
    if L["warm_output"] != expected:
        bad.append("pass:warm_output")
    if tel is not None:
        su, se, mine = tel["spec_unit"], tel["spec_eval"], L["memos"]
        pairs = [
            ("spec_unit.hits", mine["spec_unit"][0], su["hits"]),
            ("spec_unit.misses", mine["spec_unit"][1], su["misses"]),
            ("spec_unit.evictions", mine["spec_unit"][2], su["evictions"]),
            ("region_unit.hits", mine["region_unit"][0],
             su["region_unit"]["hits"]),
            ("region_unit.misses", mine["region_unit"][1],
             su["region_unit"]["misses"]),
            ("comparison.hits", mine["comparison"][0],
             su["comparison"]["hits"]),
            ("comparison.misses", mine["comparison"][1],
             su["comparison"]["misses"]),
            ("run_memo.hits", mine["run_memo"][0], se["run_memo_hits"]),
            ("run_memo.misses", mine["run_memo"][1], se["run_memo_misses"]),
            ("bitset.vectors", L["bitset"]["vectors"], se["bitset_vectors"]),
            ("bitset.words", L["bitset"]["words"], se["bitset_words"]),
            ("jobs.queued", L["telemetry"]["jobs"]["queued"],
             tel["jobs"]["queued"]),
            ("graph.deduped", L["telemetry"]["graph"]["deduped"],
             tel["graph"]["deduped"]),
        ]
        bad += ["pass:%s" % n for n, a, b in pairs if a != b]
    return bad


def memo_metrics(m, memos):
    """Memo hit ratios from [hits, misses, evictions] triples."""
    for name, key in (("spec_unit", "spec_unit"),
                      ("region_unit", "region_unit"),
                      ("run_memo", "run_memo"),
                      ("comparison", "comparison")):
        h, mi, _ = memos[key]
        m["vliw_vp.%s.hit_ratio" % name] = (ratio(h, h + mi), "ratio")
    m["vliw_vp.spec_unit.evictions"] = (memos["spec_unit"][2], "count")


def serve_layers(m, violations, before, after, parts):
    g0, g1 = before["graph"], after["graph"]
    m["vp_serve.connect_ms"] = (statistics.median(p[0] for p in parts), "ms")
    m["vp_serve.first_frame_ms"] = (statistics.median(p[1] for p in parts),
                                    "ms")
    m["vp_serve.stream_ms"] = (statistics.median(p[2] for p in parts), "ms")
    m["vp_serve.rejected"] = (sum(after["requests"]["rejected"].values())
                              - sum(before["requests"]["rejected"].values()),
                              "count")
    m["vp_serve.jobs_per_request"] = (ratio(
        g1["jobs_queued"] - g0["jobs_queued"],
        after["requests"]["accepted"] - before["requests"]["accepted"]),
        "count")
    req = after["requests"]
    if req["accepted"] != req["completed"] + req["failed"] + \
            req["timed_out"]:
        violations.append("daemon:requests.accepted")
    if g1["jobs_queued"] != g1["jobs_done"] + g1["jobs_failed"]:
        violations.append("daemon:graph.jobs_queued")


def traced(workload, seed):
    """The traced run: per-layer numbers, never mixed with timed runs."""
    jobs = NPROC if workload == "suite-cold" else 1
    m, L = layer_metrics(workload, seed, jobs,
                         2 if workload == "sweep-cold" else 3)
    violations, attempted, failed = [], 0, 0
    gc_out = os.path.join(WORK, "gc.json")
    if workload == "serve-mixed":
        # Untraced and traced daemon set-ups, alternating; the last traced
        # daemon then takes one phase of the mixed traffic at the middle
        # rate, the pass's check and the probe.
        plain_s, gc_s = [], []
        for k in range(3):
            plain, s = serve_setup(fresh_dir("serve-store-plain"), "plain")
            plain.shutdown()
            plain_s.append(s)
            if k:
                d.shutdown()
            d, s = serve_setup(fresh_dir("serve-store"), "daemon", gc_out)
            gc_s.append(s)
        try:
            before = wire.stats(d.sock)
            sched = traffic(seed, MIDDLE_RATE, 6.0, "traced")
            _, _, done, stuck = open_loop(d.sock, sched, "t")
            attempted += len(sched)
            failed += sum(1 for r in done if r["error"]) + len(stuck)
            # The pass rendered the warm-up wave's artifacts at this seed;
            # the daemon must serve the same bytes.
            spec = {"id": "pass-check", "experiments": WARM_EXPERIMENTS,
                    "benchmarks": MODELS, "config": {"seed": seed}}
            data, err, _ = wire.submit(d.sock, spec)
            attempted += 1
            failed += err is not None
            parts = []
            for i in range(10):
                _, err, (c, f, last) = wire.submit(
                    d.sock, dict(warmup_spec(), id="probe-%d" % i))
                attempted += 1
                failed += err is not None
                parts.append((c * 1e3, f * 1e3, (last - f) * 1e3))
            after = wire.stats(d.sock)
        finally:
            exit_report = d.shutdown()
        violations += pass_checks(L, data.encode())
        m["trace.gc_overhead_s"] = (statistics.median(gc_s)
                                    - statistics.median(plain_s), "s")
        serve_layers(m, violations, before, after, parts)
        c1 = after["cache"]
        m["vp_exec.store_hit_ratio"] = (
            ratio(c1["hits"], c1["hits"] + c1["misses"]), "ratio")
        m["vp_exec.deduped"] = (after["graph"]["deduped"], "count")
        m["vp_exec.store_bytes"] = (
            dir_bytes(os.path.join(WORK, "serve-store")), "bytes")
        # The daemon publishes neither worker utilization nor memo
        # counters; those come from the layer pass, which drives the same
        # memos and a job context of its own.
        m["vp_exec.busy_share"] = (L["busy_share"], "ratio")
        m["vp_exec.utilization_gap"] = (
            L["telemetry"]["workers"]["utilization"] - L["busy_share"],
            "ratio")
        memo_metrics(m, L["memos"])
    else:
        argv = [EXE, "all" if workload == "suite-cold" else "frontier",
                "--seed", str(seed)]
        # Untraced children (wall, CPU time, the program's telemetry)
        # alternate with children under the GC watcher.
        plain_walls, gc_walls = [], []
        for k in range(3 if workload == "suite-cold" else 2):
            store = fresh_dir("child-store")
            tel_cold = os.path.join(WORK, "tel-cold.json")
            plain = run(argv + ["--jobs", str(jobs), "--cache-dir", store,
                                "--telemetry", tel_cold])
            plain_walls.append(plain.wall)
            traced_child = run([LAYERS, "gc", "--dir", fresh_dir("events"),
                                "--out", gc_out, "--"] + argv + [
                "--jobs", str(jobs), "--cache-dir",
                fresh_dir("child-store-gc")])
            gc_walls.append(traced_child.wall)
        exit_report = gc_report(traced_child.stderr)
        m["trace.gc_overhead_s"] = (
            statistics.median(gc_walls) - statistics.median(plain_walls), "s")
        m["vp_exec.store_bytes"] = (dir_bytes(store), "bytes")
        tel_warm = os.path.join(WORK, "tel-warm.json")
        warm = run(argv + ["--jobs", str(jobs), "--cache-dir", store,
                           "--telemetry", tel_warm])
        tel = json.load(open(tel_cold))
        warm_tel = json.load(open(tel_warm))
        violations += telemetry_checks(tel, "cold")
        violations += telemetry_checks(warm_tel, "warm")
        if warm_tel["cache"]["misses"] != 0:
            violations.append("warm:cache.misses")
        if warm.stdout != plain.stdout:
            violations.append("warm:output")
        if tel["wall_s"]["total"] > plain.wall:
            violations.append("cold:wall_s.total")
        # The pass against the program: output at the pass's --jobs, and
        # every counter at --jobs 1.
        if jobs == 1:
            violations += pass_checks(L, plain.stdout, tel)
        else:
            violations += pass_checks(L, plain.stdout)
            tel_1 = os.path.join(WORK, "tel-1.json")
            one = run(argv + ["--jobs", "1", "--cache-dir",
                              fresh_dir("child-store-1"), "--telemetry",
                              tel_1])
            violations += pass_checks(
                layer_pass(workload, seed, 1, "0", "check"), one.stdout,
                json.load(open(tel_1)))
        busy = ratio(plain.rusage.ru_utime + plain.rusage.ru_stime,
                     plain.wall * jobs)
        m["vp_exec.busy_share"] = (busy, "ratio")
        m["vp_exec.utilization_gap"] = (
            tel["workers"]["utilization"] - busy, "ratio")
        m["vp_exec.deduped"] = (tel["graph"]["deduped"], "count")
        hits = tel["cache"]["hits"] + warm_tel["cache"]["hits"]
        looks = hits + tel["cache"]["misses"] + warm_tel["cache"]["misses"]
        m["vp_exec.store_hit_ratio"] = (ratio(hits, looks), "ratio")
        su, se = tel["spec_unit"], tel["spec_eval"]
        memo_metrics(m, {
            "spec_unit": [su["hits"], su["misses"], su["evictions"]],
            "region_unit": [su["region_unit"]["hits"],
                            su["region_unit"]["misses"], 0],
            "comparison": [su["comparison"]["hits"],
                           su["comparison"]["misses"], 0],
            "run_memo": [se["run_memo_hits"], se["run_memo_misses"], 0]})
        # the serve probe: warm submits of the same artifacts
        spec, suffix = one_shot_spec(workload, seed)
        attempted += 1
        parts, before, after = daemon_probe(store, spec,
                                            plain.stdout + suffix, 10)
        parts = [p[1:] for p in parts]
        serve_layers(m, violations, before, after, parts)
        if workload == "suite-cold":
            hw, bad = hardware_pass(seed)
            m.update(hw)
            violations += bad
            attempted += 1
            failed += "hardware:submit" in bad
    with open(gc_out) as f:
        gc = json.load(f)
    m["gc.minor_collections"] = (gc["minor_collections"], "count")
    m["gc.major_collections"] = (gc["major_collections"], "count")
    m["gc.pause_s"] = (gc["pause_s"], "s")
    m["gc.top_heap_mwords"] = (exit_report.get("top_heap_words", 0) / 1e6,
                               "Mwords")
    m["telemetry.violations"] = (len(violations), "count")
    for v in violations:
        log("VIOLATION %s" % v)
    os.makedirs("perfbench-out", exist_ok=True)
    trace_path = os.path.join("perfbench-out", "trace-%s-seed%d.json"
                              % (workload, seed))
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": L["events"] + gc["events"],
                   "displayTimeUnit": "ms"}, f)
    log("trace written to %s (Chrome trace-event JSON)" % trace_path)
    attempted += 1
    return m, attempted, failed, {
        "layers_wall_s": L["wall_s"], "layers_warm_wall_s": L["warm_wall_s"],
        "untraced_layers_wall_s": L["untraced_wall_s"],
        "gc_processes": gc["processes"], "gc_lost_events": gc["lost_events"],
        "violations": violations}


def dir_bytes(d):
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


# --- main ---------------------------------------------------------------------

def build():
    for f in ("dune-project", os.path.join("bin", "vliw_vp.ml"),
              os.path.join("lib", "core", "pipeline.ml")):
        if not os.path.exists(f):
            raise SystemExit("perfbench: run from the root of a vliw-vp "
                             "source checkout (missing %s)" % f)
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/vliw_vp.exe",
                        "./perfbench/tracer/layers.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        raise SystemExit("perfbench: build failed")


def main():
    global WORK
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    WORK = os.path.join(".perfbench_work", "%s-%d" % (a.workload, os.getpid()))
    os.makedirs(WORK)
    try:
        if a.trace:
            metrics, attempted, failed, info = traced(a.workload, a.seed)
        elif a.workload == "serve-mixed":
            metrics, attempted, failed, info = serve_mixed(a.seed, a.seconds)
        else:
            metrics, attempted, failed, info = one_shot(a.workload, a.seed,
                                                        a.seconds)
    finally:
        for p in list(LIVE):
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except OSError:
                p.kill()
            p.wait()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    log("workload %s seed %d%s" % (a.workload, a.seed,
                                   " (traced run)" if a.trace else ""))
    for k, (v, unit) in sorted(metrics.items()):
        log("  %-34s %14.6f %s" % (k, v, unit))
    log("  %-34s %14.6f ratio (%d of %d)" % (
        "failed_ratio", failed / max(1, attempted), failed, attempted))
    log("  info " + json.dumps(info, sort_keys=True, default=str))
    # The result carries exactly the metrics BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    result = {}
    for d in declared:
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            raise SystemExit("perfbench: %s measured in %s, declared in %s"
                             % (d["name"], unit, d["unit"]))
        result[d["name"]] = {"value": value, "unit": unit}
    correct = failed == 0 and info.get("valid", True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
