#!/usr/bin/env python3
"""picpredict benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a picpredict checkout. The first run builds the
repository's `picpredict` (Release) and the benchmark's own tools under
`.bench_build/`; later runs reuse them. Each run then

  1. makes its fixture with the commit under test: `picpredict simulate` on
     a seeded particle bed, `picpredict train`, and `picpredict predict`
     over a fixed rank sweep (the CLI reference for the daemon);
  2. boots `picpredict serve --threads 2` several times with perf_boot
     (set-up time), then once more for the workload;
  3. drives the workload with perf_load (one generator thread), checks every
     reply, scrapes /metricsz, and stops the daemon.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced run (perf_replay
plus a /metricsz scrape). perfbench/README.md describes the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

import argparse
import bisect
import fcntl
import glob
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PICP_BUILD = os.path.join(BUILD, "picp")
TOOLS_BUILD = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(BUILD, "perfbench-traces")
PICPREDICT = os.path.join(PICP_BUILD, "tools", "picpredict")
PERF_LOAD = os.path.join(TOOLS_BUILD, "perf_load")
PERF_REPLAY = os.path.join(TOOLS_BUILD, "perf_replay")
PERF_BOOT = os.path.join(TOOLS_BUILD, "perf_boot")

WORKLOADS = ("warm_hits", "cold_sweep", "mixed_armed")

# Fixture: the bed and mesh of configs/hele_shaw_small.ini (8000 particles,
# 16x16x32 elements), 600 solver iterations sampled every 50: 12 intervals,
# a 2.3 MB trace, so that a run fits its time budget.
MESH = (16, 16, 32, 5)
SAMPLE_EVERY = 50
FILTERS = (0.016, 0.024, 0.032)
MAPPERS = ("bin", "element")
CLI_SWEEP = (16, 128, 1024, 8192)  # predict_s: `predict --ranks` sweep
CLI_FILTER = 0.02                  # used by no workload request
SERVE_THREADS = 2
REFERENCE_BED = 1                  # bed seed of the timings train_s fits
TRAIN_FITS = 4                     # identical fits; train_s = the fastest
BOOTS = 51                         # boots before and after the workload
WINDOW = 1000                      # hits per latency window

HIT_RATE = 4000.0        # open-loop probe rate (req/s) on 4 connections
MISS_RATE = 10.0         # mixed_armed cold-miss rate (req/s)
LATE_LIMIT_US = 200.0    # generator lateness p50 above this: run invalid
REPLAY_MISSES = 12       # solo misses replayed in the traced run

END_TO_END = [
    ("setup_s", "s"), ("hit_p50_us", "us"), ("hit_cpu_us", "us"),
    ("miss_p50_ms", "ms"), ("miss_p90_ms", "ms"), ("miss_per_s", "pred/s"),
    ("daemon_rss_mb", "MB"),
    ("simulate_s", "s"), ("predict_s", "s"),
]

PICSIM_PHASES = ("interpolate", "project", "push", "eq_solve", "ghost",
                 "measure", "trace_append")
KERNELS = ("interpolate", "eq_solve", "push", "project", "create_ghost",
           "migrate", "fluid")
PER_LAYER = [
    ("parse.us_per_req", "us"), ("reactor.us.p50", "us"),
    ("reactor.us.p99", "us"), ("reactor.batch_share", "ratio"),
    ("reactor.shed", "count"), ("queue.us.p50", "us"), ("queue.us.p99", "us"),
    ("handler.us.p50", "us"), ("handler.us.p99", "us"),
    ("cache.hit_us", "us"), ("cache.response.hit_ratio", "ratio"),
    ("cache.workload.hit_ratio", "ratio"),
    ("cache.generations_per_miss", "ratio"),
    ("access_log.us_per_line", "us"), ("registry.observe_us", "us"),
    ("trace.decode_ms", "ms"), ("trace.bytes", "bytes"),
    ("trace.samples", "count"), ("trace.decode_share", "ratio"),
    ("mesh.partition_ms", "ms"), ("mesh.partition_reuse_share", "ratio"),
    ("mapping.build_ms", "ms"), ("mapping.map_ms", "ms"),
    ("mapping.partitions", "count"), ("workload.accumulate_ms", "ms"),
    ("workload.ghost_ms", "ms"), ("workload.comm_ms", "ms"),
    ("workload.ghost_transfers", "count"), ("workload.migrations", "count"),
    ("workload.intervals", "count"), ("core.sim_input_ms", "ms"),
    ("bsst.des_ms", "ms"), ("bsst.events", "count"),
    ("bsst.events_per_s", "1/s"), ("serve.render_ms", "ms"),
    ("replay.miss_p50_ms", "ms"), ("replay.solo_miss_p50_ms", "ms"),
    ("replay.coverage_pct", "%"), ("cold.scaling_eff", "ratio"),
] + [(f"picsim.{p}_s", "s") for p in PICSIM_PHASES] + [
    (f"model.fit_s.{k}", "s") for k in KERNELS] + [
    ("gen.late_us.p99", "us"), ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """The benchmark could not run (build, fixture or daemon failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def last_cpus(n):
    """The last n CPUs this process may use."""
    return set(sorted(os.sched_getaffinity(0))[-n:])


# --- build -------------------------------------------------------------------

def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed; see {logfile}")


def build():
    """Build picpredict and the benchmark tools (incremental, locked)."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no picpredict sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(PICP_BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", ROOT, "-B", PICP_BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], logfile)
        run_logged(["cmake", "--build", PICP_BUILD, "--target", "picpredict",
                    "-j4"], logfile)
        if not os.path.exists(os.path.join(TOOLS_BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", TOOLS_BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", f"-DPICP_ROOT={ROOT}",
                        f"-DPICP_BUILD={PICP_BUILD}"], logfile)
        run_logged(["cmake", "--build", TOOLS_BUILD, "-j4"], logfile)


# --- fixture -----------------------------------------------------------------

def timed(cmd, cwd):
    """Run a command; returns (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return wall, proc.stdout


def cli_predict(work, ranks, mapper, flt):
    """`picpredict predict` -> (wall s, {R: (predicted_s text, events)})."""
    nx, ny, nz, ppd = MESH
    wall, out = timed([PICPREDICT, "predict", "trace.bin", "--models",
                       "models.txt", "--ranks", ",".join(map(str, ranks)),
                       "--mapper", mapper, "--filter", repr(flt),
                       "--nelx", str(nx), "--nely", str(ny), "--nelz", str(nz),
                       "--points-per-dim", str(ppd)], work)
    rows = {}
    for line in out.splitlines():
        f = line.split()
        if len(f) == 5 and f[0].isdigit():
            rows[int(f[0])] = (f[1], int(f[4]))
    return wall, rows


def make_fixture(work, seed, opts):
    """Simulate the bed seeded `seed`, train the daemon's models on its
    timings and run the CLI predict sweep; returns the offline wall times
    and the sweep's rows (the CLI reference for the daemon)."""
    times = {"simulate_s": [], "train_s": [], "predict_s": []}
    simulate(work, opts, times, "", seed)
    timed([PICPREDICT, "train", "timings.csv", "--out", "models.txt"], work)
    return times, predict_reps(work, times, 3)


def predict_reps(work, times, reps):
    """Time `predict` over the rank sweep `reps` times; returns its rows."""
    reference = None
    for _ in range(reps):
        wall, rows = cli_predict(work, CLI_SWEEP, "bin", CLI_FILTER)
        times["predict_s"].append(wall)
        if reference is not None and rows != reference:
            raise BenchError("picpredict predict is not deterministic")
        reference = rows
    return reference


def simulate(work, opts, times, suffix, bed_seed):
    """One timed `picpredict simulate` of the bed seeded `bed_seed`, into
    trace{suffix}.bin and timings{suffix}.csv."""
    nx, ny, nz, ppd = MESH
    ini = f"sim{suffix}.ini"
    with open(os.path.join(work, ini), "w") as f:
        f.write(f"""; perfbench bed, seed {bed_seed}
[mesh]
nelx = {nx}
nely = {ny}
nelz = {nz}
points_per_dim = {ppd}
[bed]
num_particles = {opts.particles}
bottom = 0.06
height = 0.10
radius_fraction = 0.2
seed = {bed_seed}
[run]
num_iterations = {opts.iterations}
sample_every = {SAMPLE_EVERY}
trace_float64 = true
threads = 2
checkpoint_every = 0
[measure]
enabled = true
every = 1
""")
    cmd = [PICPREDICT, "simulate", ini, "--trace", f"trace{suffix}.bin",
           "--timings", f"timings{suffix}.csv"]
    if opts.trace and not suffix:
        cmd += ["--telemetry-dir", "simtel"]
    times["simulate_s"].append(timed(cmd, work)[0])


def offline_reference(work, opts, times):
    """After the workload: `simulate` once more, of the reference bed, and
    TRAIN_FITS identical timed `train` fits on its timings. A fit's search
    path, and so its time, follows the bed: on one bed the fit time of two
    runs agreed within 7%, between beds it differed by 20%. The fits
    therefore use one bed whatever --seed is."""
    simulate(work, opts, times, "2", REFERENCE_BED)
    for _ in range(TRAIN_FITS):
        times["train_s"].append(timed(
            [PICPREDICT, "train", "timings2.csv", "--out", "models2.txt"],
            work)[0])


# --- daemon ------------------------------------------------------------------

class Daemon:
    """One `picpredict serve` process in the run's work directory."""

    def __init__(self, work, ini, env, tag):
        ready = os.path.join(work, f"ready.{tag}")
        self.log = open(os.path.join(work, f"serve.{tag}.log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [PICPREDICT, "serve", "--config", ini, "--threads",
             str(SERVE_THREADS), "--ready-file", ready],
            cwd=work, stdout=self.log, stderr=subprocess.STDOUT, env=env)
        while not os.path.exists(ready):
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited during boot; see {self.log.name}")
            if time.perf_counter() - start > 60:
                raise BenchError("daemon not ready after 60 s")
            time.sleep(0.001)
        with open(ready) as f:
            self.port = int(f.read().strip())

    def request(self, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            if body is None:
                conn.request("GET", path)
            else:
                conn.request("POST", path, body=body,
                             headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def cpu_ns(self):
        """CPU time of every daemon thread so far, in ns."""
        total = 0
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/schedstat"):
            try:
                with open(path) as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # thread exited between glob and open
        return total

    def pin(self, cpus):
        """Restrict every daemon thread to `cpus`."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), cpus)

    def metrics(self):
        status, body = self.request("/metricsz")
        if status != 200:
            raise BenchError(f"/metricsz returned {status}")
        return json.loads(body)["metrics"]

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def boot_times(work, ini, env):
    """setup_s samples: BOOTS daemon boots, spawn to ready file, timed by
    perf_boot with the daemon confined to one CPU (see closed_hits). A run
    takes them twice, before and after its workload, so that one slow
    moment of the host does not set its median."""
    ready = os.path.join(work, "ready.boot")
    cpus = last_cpus(1)
    proc = subprocess.run(
        [PERF_BOOT, str(BOOTS), os.path.join(work, "serve.boot.log"), ready,
         PICPREDICT, "serve", "--config", ini, "--threads",
         str(SERVE_THREADS), "--ready-file", ready],
        cwd=work, env=env, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if proc.returncode != 0:
        raise BenchError(f"perf_boot failed: {proc.stderr[-1000:]}")
    return [float(line) for line in proc.stdout.split()]


def write_serve_ini(work, workload):
    nx, ny, nz, ppd = MESH
    text = f"""; perfbench daemon config for workload {workload}.
; Only what the benchmark must pin is set here; every other key keeps the
; shipped default. No failpoints are armed.
[serve]
trace = {os.path.join(work, 'trace.bin')}
models = {os.path.join(work, 'models.txt')}
threads = {SERVE_THREADS}
"""
    if workload == "mixed_armed":
        text += f"""; mixed_armed runs the daemon as an operator would deploy it:
; one flushed NDJSON access-log line per request,
access_log = {os.path.join(work, 'access.log')}
; Chrome-trace spans for every 16th request,
trace_sample_n = 16
; and spans for every request slower than 50 ms.
slow_request_ms = 50
"""
    text += f"""[mesh]
nelx = {nx}
nely = {ny}
nelz = {nz}
points_per_dim = {ppd}
"""
    path = os.path.join(work, "serve.ini")
    with open(path, "w") as f:
        f.write(text)
    return path


def llc_size():
    """Size of the last-level cache as the kernel reports it."""
    sizes = glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
    if not sizes:
        return "unknown"
    with open(max(sizes)) as f:
        return f.read().strip()


def hist_quantile(hists, q):
    """Prometheus-style quantile over /metricsz histograms sharing bounds."""
    bounds = hists[0]["bounds"]
    counts = [sum(h["counts"][i] for h in hists)
              for i in range(len(bounds) + 1)]
    rank = q * sum(counts)
    seen = 0
    for i, c in enumerate(counts):
        if c > 0 and seen + c >= rank:
            lo = 0.0 if i == 0 else bounds[i - 1]
            hi = bounds[min(i, len(bounds) - 1)]
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return 0.0


# --- inputs ------------------------------------------------------------------

class Requests:
    """Request table shared by every plan of one run."""

    def __init__(self):
        self.items = []   # (method, path, body, (R, mapper, filter))
        self.index = {}

    def add(self, path, cfg, ranks=None):
        body = json.dumps({"ranks": ranks if ranks is not None else cfg[0],
                           "mapper": cfg[1], "filter": cfg[2]},
                          separators=(",", ":"))
        key = (path, body)
        if key not in self.index:
            self.index[key] = len(self.items)
            self.items.append(("POST", path, body, cfg))
        return self.index[key]

    def configs(self, ids):
        """Distinct (R, mapper, filter) workload configs behind `ids`."""
        out = set()
        for i in ids:
            _, _, body, (_, mapper, flt) = self.items[i]
            ranks = json.loads(body)["ranks"]
            for r in ranks if isinstance(ranks, list) else [ranks]:
                out.add((r, mapper, flt))
        return out


def stratified_r(rng, n, lo, hi):
    """n rank counts, one per equal slice of [log lo, log hi], shuffled."""
    a, b = math.log(lo), math.log(hi)
    out = [int(round(math.exp(a + (i + rng.random()) / n * (b - a))))
           for i in range(n)]
    rng.shuffle(out)
    return out


def distinct_sorted(values):
    """Sorted, with each value raised until it is above the one before."""
    out = []
    for v in sorted(values):
        out.append(max(v, out[-1] + 1) if out else v)
    return out


def dealt(rng, n, choices):
    """n of `choices`, dealt in shuffled blocks that hold each choice once,
    so that any len(choices) neighbours hold every choice."""
    out = []
    while len(out) < n:
        out += rng.sample(choices, len(choices))
    return out[:n]


COMBOS = [(m, f) for m in MAPPERS for f in FILTERS]


def hot_set(rng, n, r_hi):
    """n distinct configs, R stratified log-uniform in [16, r_hi]; along R,
    every 6 neighbours use every (mapper, filter) once and every 4 send
    one /v1/workload and three /v1/predict, so that a seed changes which
    config is where, not how much work the set holds. Shuffled: the
    first is the hottest."""
    rs = distinct_sorted(stratified_r(rng, n, 16, r_hi))
    out = [(path, (r,) + combo) for r, combo, path in zip(
        rs, dealt(rng, n, COMBOS),
        dealt(rng, n, ["/v1/predict"] * 3 + ["/v1/workload"]))]
    rng.shuffle(out)
    return out


def sweep_configs(rng, pool_size):
    """Six passes over one pool of rank counts, each visiting every R once,
    in shuffled order, with a (mapper, filter) it has not had: every R
    meets every pair, so R recurs and a seed does not change how much work
    the sweep holds. In each pass one R in three, spread along the pool and
    another each pass, asks /v1/workload (no DES) instead of /v1/predict."""
    pool = distinct_sorted(stratified_r(rng, pool_size, 16, 8192))
    left = [rng.sample(COMBOS, len(COMBOS)) for _ in pool]
    out = []
    for p in range(len(COMBOS)):
        order = list(range(len(pool)))
        rng.shuffle(order)
        out += [("/v1/workload" if (j + p) % 3 == 0 else "/v1/predict",
                 (pool[j],) + left[j].pop()) for j in order]
    return out


def zipf_sampler(rng, items, s=1.1):
    cum, acc = [], 0.0
    for k in range(1, len(items) + 1):
        acc += 1.0 / k ** s
        cum.append(acc)
    return lambda: items[min(bisect.bisect_left(cum, rng.random() * acc),
                             len(items) - 1)]


def poisson_times(rng, rate, duration_s):
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate) * 1e6
        if t >= duration_s * 1e6:
            return out
        out.append(t)


# --- load generation ---------------------------------------------------------

class Load:
    """Runs perf_load plans against the daemon and checks every reply: a
    non-200 is a failure, and a 200 whose body differs from the first
    reply for the same request is a wrong answer."""

    def __init__(self, work, daemon, requests):
        self.work, self.daemon, self.requests = work, daemon, requests
        self.first_hash = {}
        self.sent = set()
        self.answered = set()
        self.attempted = self.failed = self.wrong = 0
        self.plans = 0

    def run(self, opens=(), closed=(), closed_conns=(), closed_limit_s=0,
            conns=4, cpus=None):
        path = os.path.join(self.work, f"plan.{self.plans}")
        self.plans += 1
        with open(path, "w") as f:
            f.write(f"host 127.0.0.1\nport {self.daemon.port}\nconns {conns}\n"
                    f"drain_ms 60000\nclosed_limit_s {closed_limit_s}\n")
            if closed_conns:
                f.write("closed_conns " + " ".join(map(str, closed_conns))
                        + "\n")
            for i, (method, target, body, _) in enumerate(self.requests.items):
                f.write(f"R {i} {method} {target} {body}\n")
            for conn, due, req in sorted(opens, key=lambda o: o[1]):
                f.write(f"O {conn} {due:.1f} {req}\n")
            for req in closed:
                f.write(f"S {req}\n")
        pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
        proc = subprocess.run([PERF_LOAD, path], capture_output=True,
                              text=True, preexec_fn=pin)
        if proc.returncode != 0:
            raise BenchError(f"perf_load failed: {proc.stderr[-1000:]}")
        rows = []
        for line in proc.stdout.splitlines():
            req, conn, kind, due, sent, done, status, h = line.split()
            rows.append((int(req), int(conn), kind, float(due), float(sent),
                         float(done), int(status), h))
        for req, _, _, _, _, _, status, h in rows:
            self.attempted += 1
            self.sent.add(req)
            if status == 200:
                self.answered.add(req)
                if self.first_hash.setdefault(req, h) != h:
                    self.wrong += 1
            else:
                self.failed += 1
        return rows

    def note(self, req, status, body_hash=None):
        """Account for a request sent outside perf_load."""
        self.attempted += 1
        self.sent.add(req)
        if status != 200:
            self.failed += 1
            return
        self.answered.add(req)
        if body_hash is not None and \
                self.first_hash.setdefault(req, body_hash) != body_hash:
            self.wrong += 1


def latencies(rows):
    return [r[5] - r[3] for r in rows if r[6] == 200]


def lateness(rows):
    return [r[4] - r[3] for r in rows if r[2] == "O"]


def windows(rows, key):
    """Consecutive windows of WINDOW successful rows, ordered by `key`."""
    seq = sorted((r for r in rows if r[6] == 200), key=key)
    return [seq[i:i + WINDOW] for i in range(0, len(seq) - WINDOW + 1, WINDOW)]


def windowed_latency(rows, q):
    """Median over windows of each window's q-quantile latency: a host
    stall spoils the windows it hits, not the run."""
    wins = windows(rows, key=lambda r: r[4])
    if not wins:
        return quantile(latencies(rows), q)
    return statistics.median(quantile([r[5] - r[3] for r in w], q)
                             for w in wins)


def closed_hits(load, pick, duration_s, opens=(), cpus=1):
    """One closed-loop client sending hits on connection 0 for
    `duration_s`, plus any open-loop entries, with the daemon and the
    generator confined to `cpus` CPUs; returns (hit rows, all rows, daemon
    CPU ns).

    On a virtual machine, waking a thread on another, idle vCPU costs the
    hypervisor 0.1-5 ms depending on the host's load, which swamps a 50 us
    hit and drifts from minute to minute. On one CPU a hit's cost is its
    code path and same-core context switches."""
    queue = [pick() for _ in range(int(40000 * duration_s))]
    everywhere = os.sched_getaffinity(0)
    load.daemon.pin(last_cpus(cpus))
    try:
        cpu0 = load.daemon.cpu_ns()
        rows = load.run(opens=opens, closed=queue, closed_conns=(0,),
                        closed_limit_s=duration_s, cpus=last_cpus(cpus))
        cpu = load.daemon.cpu_ns() - cpu0
    finally:
        load.daemon.pin(everywhere)
    return [r for r in rows if r[1] == 0], rows, cpu


def open_hits(load, rng, pick, duration_s, rate):
    """Open-loop Poisson hits on 4 connections, timed from when each was
    due. Reported, not gated: see README.md."""
    return load.run(opens=[(i % 4, t, pick()) for i, t in
                           enumerate(poisson_times(rng, rate, duration_s))])


class Samples:
    """Rows and daemon CPU collected over a run's rounds."""

    def __init__(self):
        self.hit, self.miss, self.open = [], [], []
        self.hit_cpu_ns = self.cpu_hits = 0
        # Seconds over which the distinct misses were served (miss_per_s).
        self.miss_busy_s = 0.0
        self.miss_order = []  # distinct miss configs in send order
        self.hot = []         # hot request ids, hottest first

    def add_hits(self, rows, cpu_ns):
        self.hit += rows
        self.hit_cpu_ns += cpu_ns
        self.cpu_hits += len(rows)


# --- workloads ---------------------------------------------------------------
# Measurements are taken in rounds spread over the run, so that a slow
# moment of the host spoils one round rather than a whole metric.

ROUNDS = 3


def run_warm_hits(rng, load, reqs, opts):
    """Bare daemon. The warm-up (C=2 closed loop over the hot set) is the
    run's cold sample; then one closed-loop client sends Zipf-distributed
    hits over the warmed set."""
    out = Samples()
    out.hot = [reqs.add(p, cfg) for p, cfg in
               hot_set(rng, opts.hot_keys, 2048)]
    t0 = time.perf_counter()
    out.miss = load.run(closed=out.hot, closed_conns=(0, 1), conns=2)
    out.miss_busy_s = time.perf_counter() - t0
    out.miss_order = [reqs.items[i][3] for i in out.hot]
    pick = zipf_sampler(rng, out.hot)
    for _ in range(ROUNDS):
        hits, _, cpu = closed_hits(load, pick, 0.6 * opts.seconds / ROUNDS)
        out.add_hits(hits, cpu)
    out.open = open_hits(load, rng, pick, 0.1 * opts.seconds, opts.hit_rate)
    return out


def run_cold_sweep(rng, load, reqs, opts):
    """Bare daemon. Rounds of a C=2 closed-loop sweep of never-seen configs
    and uniform hits over every key swept so far (a wide hot set)."""
    out = Samples()
    ids = [reqs.add(path, cfg) for path, cfg in sweep_configs(rng, opts.pool)]
    done = []
    pick = lambda: done[rng.randrange(len(done))]
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        rows = load.run(closed=ids, closed_conns=(0, 1), conns=2,
                        closed_limit_s=0.65 * opts.seconds / ROUNDS)
        out.miss_busy_s += time.perf_counter() - t0
        out.miss += rows
        sent = {r[0] for r in rows}
        ids = [i for i in ids if i not in sent]
        done += [r[0] for r in sorted(rows, key=lambda r: r[4])
                 if r[6] == 200]
        hits, _, cpu = closed_hits(load, pick, 0.2 * opts.seconds / ROUNDS)
        out.add_hits(hits, cpu)
    out.miss_order = [reqs.items[i][3] for i in done]
    out.hot = done[-200:]  # well inside the 256-entry response cache
    out.open = open_hits(load, rng,
                         lambda: out.hot[rng.randrange(len(out.hot))],
                         0.1 * opts.seconds, opts.hit_rate)
    return out


def run_mixed_armed(rng, load, reqs, opts):
    """Armed daemon. After a warm-up, rounds of: Zipf hits from one
    closed-loop client alone (the armed hot path's CPU per hit), then the
    same client while cold misses arrive on connections 2-3 at a fixed
    rate, every 4th sent on both at once. Every miss has its own R."""
    out = Samples()
    out.hot = [reqs.add(p, cfg) for p, cfg in
               hot_set(rng, opts.hot_keys, 2048)]
    load.run(closed=out.hot, closed_conns=(0, 1), conns=2)  # warm-up
    pick = zipf_sampler(rng, out.hot)
    S = opts.seconds / ROUNDS
    per_round = max(1, round(opts.miss_rate * 0.6 * S))
    used = {reqs.items[i][3][0] for i in out.hot}
    fresh = []  # one R per miss, stratified over the whole run
    for r in stratified_r(rng, ROUNDS * per_round, 16, 1024):
        while r in used:
            r += 1
        used.add(r)
        fresh.append(r)

    def cold_opens():
        # A fixed rate with jittered arrival times: misses overlap only as
        # the pairs below, not as Poisson clumps whose number varies from
        # run to run and dominated the miss tail.
        gap = 0.6 * S * 1e6 / per_round
        opens = []
        for j, t in enumerate((k + 0.5 + rng.uniform(-0.25, 0.25)) * gap
                              for k in range(per_round)):
            req = reqs.add("/v1/predict", (fresh.pop(), rng.choice(MAPPERS),
                                           rng.choice(FILTERS)))
            if j % 4 == 3:
                opens += [(2, t, req), (3, t, req)]
            else:
                opens.append((2 + j % 2, t, req))
        return opens

    for _ in range(ROUNDS):
        calm, _, cpu = closed_hits(load, pick, 0.25 * S)
        out.cpu_hits += len(calm)
        out.hit_cpu_ns += cpu
        # Three CPUs: a miss can hold one worker and a core while the hit
        # client, the reactor and the other worker keep theirs.
        hits, rows, _ = closed_hits(load, pick, 0.6 * S,
                                    opens=cold_opens(), cpus=3)
        out.hit += hits
        miss = [r for r in rows if r[1] != 0]
        out.miss += miss
        # The misses arrive at a fixed rate, so the round's wall time is
        # the schedule's; what the daemon spends is each miss's own span,
        # from when it was due to its last reply (both of a pair).
        spans = {}
        for r in miss:
            due, done = spans.get(r[0], (r[3], r[5]))
            spans[r[0]] = (min(due, r[3]), max(done, r[5]))
        out.miss_busy_s += sum(done - due for due, done in spans.values()) / 1e6
    out.miss_order = [reqs.items[i][3] for i in dict.fromkeys(
        r[0] for r in sorted(out.miss, key=lambda r: r[3]))]
    out.open = open_hits(load, rng, pick, 0.1 * opts.seconds, opts.hit_rate)
    return out


RUNNERS = {"warm_hits": run_warm_hits, "cold_sweep": run_cold_sweep,
           "mixed_armed": run_mixed_armed}


# --- checks ------------------------------------------------------------------

def same_prediction(row, cli):
    return (cli is not None and f"{row['predicted_seconds']:.5f}" == cli[0]
            and row["des_events"] == cli[1])


def check_cli_equals_daemon(daemon, load, reqs, reference, rng, work):
    """The CLI sweep and a seeded sample of the run's own /v1/predict
    replies must equal `picpredict predict` on the same inputs."""
    problems = []
    rid = reqs.add("/v1/predict", (CLI_SWEEP[0], "bin", CLI_FILTER),
                   ranks=list(CLI_SWEEP))
    status, body = daemon.request("/v1/predict", reqs.items[rid][2])
    load.note(rid, status)
    if status == 200:
        for row in json.loads(body)["results"]:
            if not same_prediction(row, reference.get(row["ranks"])):
                problems.append(f"daemon != CLI for sweep R={row['ranks']}")
    predicted = sorted(i for i in load.first_hash
                       if reqs.items[i][1] == "/v1/predict" and i != rid)
    for i in rng.sample(predicted, min(2, len(predicted))):
        status, body = daemon.request("/v1/predict", reqs.items[i][2])
        load.note(i, status, f"{fnv1a(body):016x}")
        if status != 200:
            continue
        r, mapper, flt = reqs.items[i][3]
        _, rows = cli_predict(work, [r], mapper, flt)
        for row in json.loads(body)["results"]:
            if not same_prediction(row, rows.get(row["ranks"])):
                problems.append(f"daemon != CLI for {mapper} R={r} f={flt}")
    return problems


def fnv1a(data):
    h = 1469598103934665603
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


# --- traced run --------------------------------------------------------------

def traced_metrics(opts, work, env, ini, out, reqs, load, daemon, late99,
                   rng):
    """Per-layer metrics: a /metricsz scrape of the workload's daemon, solo
    misses against a fresh daemon, and perf_replay of the same inputs."""
    m = daemon.metrics()
    c = m["counters"]
    h = m["histograms"]
    leaders, members = c.get("serve.batch.leaders", 0), c.get(
        "serve.batch.members", 0)
    queue = [v for k, v in h.items() if k.startswith("serve.red.queue_us.")]
    ratio = lambda a, b: c.get(a, 0) / max(c.get(a, 0) + c.get(b, 0), 1)
    miss_cfgs = reqs.configs(load.answered)
    seen_r, reused = set(), 0
    for cfg in out.miss_order:
        reused += cfg[0] in seen_r
        seen_r.add(cfg[0])
    layer = {
        "reactor.batch_share": members / max(leaders + members, 1),
        "reactor.shed": c.get("serve.rejected_busy", 0)
        + c.get("serve.shed_queue", 0),
        "queue.us.p50": hist_quantile(queue, 0.5) if queue else 0.0,
        "queue.us.p99": hist_quantile(queue, 0.99) if queue else 0.0,
        "cache.response.hit_ratio": ratio("serve.cache.response.hits",
                                          "serve.cache.response.misses"),
        "cache.workload.hit_ratio": ratio("serve.cache.workload.hits",
                                          "serve.cache.workload.misses"),
        "cache.generations_per_miss":
            c.get("serve.workload.generations", 0) / max(len(miss_cfgs), 1),
        "mesh.partition_reuse_share": reused / max(len(out.miss_order), 1),
        "gen.late_us.p99": late99,
    }

    # Solo misses: a fresh daemon, one request at a time, on a seeded
    # sample of the workload's own /v1/predict miss configs.
    predict_cfgs = sorted({reqs.items[r[0]][3] for r in out.miss
                           if reqs.items[r[0]][1] == "/v1/predict"})
    sample = rng.sample(predict_cfgs, min(REPLAY_MISSES, len(predict_cfgs)))
    # Timed through perf_load, as in the workload; the bodies are fetched
    # afterwards, as cache hits.
    ids = [reqs.add("/v1/predict", cfg) for cfg in sample]
    solo = Daemon(work, ini, env, "solo")
    solo_rows = []
    try:
        timed_ms = {r[0]: (r[5] - r[3]) / 1e3 for r in Load(work, solo, reqs).run(
            closed=ids, closed_conns=(0,), conns=1) if r[6] == 200}
        for i in ids:
            status, reply = solo.request("/v1/predict", reqs.items[i][2])
            if i not in timed_ms or status != 200:
                raise BenchError(f"solo miss returned {status}")
            solo_rows.append(json.loads(reply)["results"][0])
    finally:
        solo.stop()
    solo_ms = [timed_ms[i] for i in ids]

    plan = os.path.join(work, "replay.plan")
    os.makedirs(TRACES, exist_ok=True)
    chrome = os.path.join(TRACES, f"{opts.workload}-seed{opts.seed}.json")
    with open(plan, "w") as f:
        f.write(f"serve_ini {ini}\ntimings {os.path.join(work, 'timings.csv')}"
                f"\nwork {work}\nchrome {chrome}\n"
                f"out {os.path.join(work, 'replay.json')}\n")
        for r, mapper, flt in sample:
            f.write(f"miss {r} {mapper} {flt!r}\n")
        for i in out.hot[:16]:
            f.write(f"warm {reqs.items[i][1]} {reqs.items[i][2]}\n")
    proc = subprocess.run([PERF_REPLAY, plan], capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perf_replay failed: {proc.stderr[-2000:]}")
    print(proc.stdout, end="")
    print(f"chrome trace: {chrome}")
    with open(os.path.join(work, "replay.json")) as f:
        replay = json.load(f)
    layer.update(replay["metrics"])
    problems = []
    for row, solo_row in zip(replay["misses"], solo_rows):
        if row["des_events"] != solo_row["des_events"] or \
                row["predicted_seconds"] != solo_row["predicted_seconds"]:
            problems.append(f"replay differs from the daemon at R={row['ranks']}")
    layer["replay.solo_miss_p50_ms"] = quantile(solo_ms, 0.5)
    # Summed over the same misses: a median of a few misses of very
    # different sizes lands on different misses on the two sides.
    layer["replay.coverage_pct"] = (
        100.0 * sum(row["layer_sum_ms"] for row in replay["misses"])
        / sum(solo_ms))
    # C=2 closed-loop throughput over 2x the C=1 throughput, on the same
    # requests: for closed loops, solo latency over latency in the workload.
    in_workload = {}
    for r in out.miss:
        if r[6] == 200:
            in_workload.setdefault(r[0], []).append((r[5] - r[3]) / 1e3)
    pairs = [(ms, statistics.mean(in_workload[i]))
             for ms, i in zip(solo_ms, ids) if i in in_workload]
    layer["cold.scaling_eff"] = (sum(p[0] for p in pairs)
                                 / max(sum(p[1] for p in pairs), 1e-9))

    with open(os.path.join(work, "simtel", "manifest.json")) as f:
        phases = {p["name"]: p["wall_seconds"]
                  for p in json.load(f)["phases"]}
    for p in PICSIM_PHASES:
        layer[f"picsim.{p}_s"] = phases.get(f"picsim.{p}", 0.0)
    missing = [name for name, _ in PER_LAYER if name not in layer]
    if missing:
        problems.append("per-layer metrics not measured: " + ", ".join(missing))
    return layer, problems


# --- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fixture and short phases (self-test only)")
    ap.add_argument("--failpoints", default="",
                    help="PICP_FAILPOINTS for the daemon (self-test only)")
    opts = ap.parse_args()
    opts.particles, opts.iterations = (1000, 150) if opts.smoke else (8000, 600)
    opts.hot_keys = 12 if opts.smoke else 100
    opts.pool = 6 if opts.smoke else 40
    opts.hit_rate = 500.0 if opts.smoke else HIT_RATE
    opts.miss_rate = 4.0 if opts.smoke else MISS_RATE

    try:
        build()
    except BenchError as e:
        log(f"perfbench: build failed: {e}")
        return 2

    work = os.path.join(BUILD, "runs",
                        f"{opts.workload}-s{opts.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    daemons = []

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return run(opts, work, daemons)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)


def run(opts, work, daemons):
    rng = random.Random(opts.seed * 7919 + WORKLOADS.index(opts.workload))
    times, reference = make_fixture(work, opts.seed, opts)

    ini = write_serve_ini(work, opts.workload)
    env = dict(os.environ)
    env.pop("PICP_FAILPOINTS", None)
    if opts.failpoints:
        env["PICP_FAILPOINTS"] = opts.failpoints
        env["PICP_FAILPOINTS_SEED"] = str(opts.seed)
    boots = boot_times(work, ini, env)
    daemons.append(Daemon(work, ini, env, "run"))
    daemon = daemons[-1]

    reqs = Requests()
    load = Load(work, daemon, reqs)
    out = RUNNERS[opts.workload](rng, load, reqs, opts)

    problems = check_cli_equals_daemon(daemon, load, reqs, reference, rng,
                                       work)
    generations = daemon.metrics()["counters"].get(
        "serve.workload.generations", 0)
    distinct = len(reqs.configs(load.answered))
    if generations != distinct:
        problems.append(f"serve.workload.generations = {generations}, but "
                        f"{distinct} distinct workload configs were answered")
    if load.wrong:
        problems.append(f"{load.wrong} repeated request(s) got a different "
                        "body than the first reply")
    boots += boot_times(work, ini, env)
    offline_reference(work, opts, times)
    predict_reps(work, times, 1)
    miss = latencies(out.miss)
    hit = latencies(out.hit)
    if len(miss) < 2 or len(hit) < 2:
        raise BenchError("too few successful requests to measure")
    late = lateness(out.open)
    late99 = quantile(late, 0.99)
    if quantile(late, 0.5) > LATE_LIMIT_US:
        problems.append("invalid run: the generator fell behind its schedule "
                        f"(lateness p50 {quantile(late, 0.5):.0f} us)")
    miss_per_s = len(out.miss_order) / out.miss_busy_s

    e2e = {
        "setup_s": (statistics.median(boots), len(boots)),
        "hit_p50_us": (windowed_latency(out.hit, 0.5), len(hit)),
        "hit_cpu_us": (out.hit_cpu_ns / 1e3 / out.cpu_hits, out.cpu_hits),
        "miss_p50_ms": (quantile(miss, 0.5) / 1e3, len(miss)),
        "miss_p90_ms": (quantile(miss, 0.9) / 1e3, len(miss)),
        "miss_per_s": (miss_per_s, len(out.miss_order)),
        "daemon_rss_mb": (daemon.rss_mb(), 1),
        "simulate_s": (statistics.median(times["simulate_s"]),
                       len(times["simulate_s"])),
        # Identical runs: the fastest is the one the host disturbed least.
        "predict_s": (min(times["predict_s"]), len(times["predict_s"])),
    }
    fail_pct = 100.0 * (load.failed + load.wrong) / max(load.attempted, 1)
    print(f"# {opts.workload} seed {opts.seed} seconds {opts.seconds:g} "
          f"trace {opts.trace}")
    print(f"# nproc {os.cpu_count()}, LLC {llc_size()}, generator 1 thread, "
          f"<= 4 connections, serve --threads {SERVE_THREADS}, trace "
          f"{os.path.getsize(os.path.join(work, 'trace.bin')) / 1e6:.2f} MB")
    for name, unit in END_TO_END:
        value, n = e2e[name]
        print(f"{name:20s} {value:14.4f} {unit:7s} n={n}")
    probe = latencies(out.open)
    print(f"{'hit_open_p50_us':20s} {windowed_latency(out.open, 0.5):14.4f} "
          f"us      n={len(probe)}  (open loop at {opts.hit_rate:g} req/s, "
          "not gated)")
    print(f"{'hit_open_p99_us':20s} {windowed_latency(out.open, 0.99):14.4f} "
          f"us      n={len(probe)}  (not gated)")
    # A fit runs 4 threads that meet every generation; on the machine the
    # benchmark was tuned on, even the fastest of four identical fits moved
    # by up to 50% from run to run with the host's load, so it is printed,
    # not gated (README.md, "Left out").
    print(f"{'train_s':20s} {min(times['train_s']):14.4f} s       "
          f"n={len(times['train_s'])}  (fastest fit, not gated)")
    print(f"{'gen.late_us.p99':20s} {late99:14.1f} us      n={len(late)}")
    print(f"{'fail_pct':20s} {fail_pct:14.4f} %       n={load.attempted}")

    if opts.trace:
        layer, more = traced_metrics(opts, work, env, ini, out, reqs,
                                     load, daemon, late99, rng)
        problems += more
        for name, unit in PER_LAYER:
            print(f"{name:28s} {layer.get(name, float('nan')):16.4f} {unit}")
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    for p in problems:
        print(f"  FAIL: {p}")
    correct = not problems and load.failed == 0
    print(json.dumps({"correct": correct, "attempted": load.attempted,
                      "failed": load.failed + load.wrong,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
