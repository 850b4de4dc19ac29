"""The three phases of a run: a paper-scale PaRMIS cell, a campaign
launched cold / on one worker / warm, and protocol-level serving.

Untraced (end-to-end) phases drive only the shipped programs; traced
phases add the benchmark's in-process layer probes.  Each phase
records its metrics, its operations attempted and failed, and the
correctness gates it checked on ``Context``.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import threading
import time
import types

from . import gen, procs, stats

# Launches of each kind at the nominal run length; a shorter run never
# makes fewer than MIN_REPEATS of a kind.  Warm launches are short and
# noisy, so they get the most samples; the one-worker time is ungated.
LAUNCHES = {"cold": 5, "one": 3, "warm": 9}
MIN_REPEATS = 3
CAMPAIGN_SEEDS_PER_CELL = 1
# The served report is the same for every workload seed (the seed picks
# the requests), so its size — and the server's memory and per-decide
# work — does not vary from run to run.
SERVED_REPORT_SEEDS = 2
SERVED_REPORT_BASE_SEED = 1
RELOAD_PROBES = 30

# Serve phase: fixed offered rates, about 1/5 and 2/5 of the burst
# throughput measured when the benchmark was defined (~6.5k decides/s on
# a 4-vCPU Xeon VM).  At 1/2 the host's slow minutes pushed the server
# near saturation behind each reload, and reload_p50_ms spread 0.85
# over five runs.
LOW_RATE = 1300.0
HIGH_RATE = 2500.0
SESSIONS = 4
WARMUP = (300, 2000.0)           # requests, rate
LOW_REQUESTS = 600
HIGH_REQUESTS = 1500
# The reload period is chosen for the sample count reload_p50_ms needs,
# not taken from a deployment: a real server reloads when a campaign
# lands, far more rarely.
RELOAD_EVERY = 150               # one reload per this many high-rate lines
RELOADS_PER_SESSION = (HIGH_REQUESTS - 1) // RELOAD_EVERY
# Fewest sessions whose pooled reloads still leave MIN_BEYOND samples
# beyond their median, so a short --seconds cannot starve a percentile.
MIN_SESSIONS = -(-2 * stats.MIN_BEYOND // RELOADS_PER_SESSION)
BURST_REQUESTS = 2500
BURST_RATE = 1e9                 # far above capacity: back to back
PHASE_TIMEOUT_MS = 20000
# The run length the repeat counts above are sized for (BENCHMARK.json's
# run_seconds).  --seconds scales the campaign repeats and the serve
# sessions, never below their minimums; the two cells are fixed work.
NOMINAL_SECONDS = 60


class Context:
    """Paths, inputs and accumulated results of one run."""

    def __init__(self, bins, run_dir, workload, seed, workers, modes_path,
                 pins, seconds):
        self.bins = bins
        self.run_dir = run_dir
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.modes_path = modes_path
        self.pins = pins
        self.scale = seconds / NOMINAL_SECONDS
        # The spinning load generator takes two cores; below four the
        # server would have to share one with it.
        self.spin_client = len(os.sched_getaffinity(0)) >= 4
        self.inputs = None
        self.metrics = {}
        self.details = {}
        self.gates = []
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.run_dir, *parts)

    def dir(self, *parts):
        d = self.path(*parts)
        os.makedirs(d, exist_ok=True)
        return d

    def run(self, args, name, **kw):
        return procs.run(self.bins["spawn"], args, self.dir("logs"), name,
                         **kw)

    def gate(self, name, ok, detail=""):
        self.gates.append({"gate": name, "ok": bool(ok), "detail": detail})

    def repeats(self, base, least):
        return max(least, round(base * self.scale))

    def count_cells(self, report):
        cells = report["cells"]
        self.attempted += len(cells)
        self.failed += sum(1 for c in cells if c.get("error"))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


# ---------------------------------------------------------------- set-up


def build_inputs(ctx, d):
    """Generates every input of the run into ``d``; the served report is
    built here with ``campaign``."""
    inputs = types.SimpleNamespace()
    scenarios = os.path.join(d, "scenarios.json")
    ctx.run([ctx.bins["campaign"], "--dump-scenarios=" + scenarios],
            "dump-scenarios")
    docs = load_json(scenarios)

    inputs.cell_plan = os.path.join(d, "cell.json")
    write_json(inputs.cell_plan,
               gen.cell_plan(ctx.workload["cell_scenario"], ctx.seed))

    plan, shares, cells = gen.campaign_plan(docs, ctx.seed,
                                            CAMPAIGN_SEEDS_PER_CELL)
    inputs.campaign_plan = os.path.join(d, "plan.json")
    write_json(inputs.campaign_plan, plan)
    inputs.campaign_cells = cells
    inputs.method_shares = shares

    inputs.report = os.path.join(d, "report.json")
    ctx.run([ctx.bins["campaign"], "--seeds=%d" % SERVED_REPORT_SEEDS,
             "--seed=%d" % SERVED_REPORT_BASE_SEED,
             "--threads=%d" % ctx.workers,
             "--json=" + inputs.report], "served-report")
    inputs.stream = gen.StreamGenerator(
        gen.report_catalogue(load_json(inputs.report)),
        gen.load_modes(ctx.modes_path), ctx.seed)
    return inputs


def setup(ctx, repeats=3):
    """Builds the inputs ``repeats`` times, each into a fresh directory,
    and keeps the last; set-up time is the median."""
    times = []
    for i in range(repeats):
        d = ctx.dir("setup%d" % i)
        t0 = time.perf_counter()
        ctx.inputs = build_inputs(ctx, d)
        times.append(time.perf_counter() - t0)
    ctx.metrics["setup_s"] = statistics.median(times)
    ctx.details["setup_s_samples"] = times
    ctx.details["campaign_method_shares"] = ctx.inputs.method_shares


# ------------------------------------------------------------------ cell


def cell_phase(ctx):
    """The cell at min(4, nproc) threads and at one thread; both digests
    must agree, and equal the pinned digest where one exists."""
    runs = {}
    for metric, threads in (("cell_s", ctx.workers), ("cell_1t_s", 1)):
        out = ctx.path(metric + ".json")
        r = ctx.run([ctx.bins["campaign"], "--plan=" + ctx.inputs.cell_plan,
                     "--threads=%d" % threads, "--json=" + out], metric)
        report = load_json(out)
        ctx.count_cells(report)
        runs[metric] = (r, report)
        ctx.metrics[metric] = r.wall_s
    digest = runs["cell_s"][1]["objectives_digest"]
    digest_1t = runs["cell_1t_s"][1]["objectives_digest"]
    ctx.gate("cell digest at %d threads == at 1 thread" % ctx.workers,
             digest == digest_1t, "%s vs %s" % (digest, digest_1t))
    pinned = ctx.pins.get(ctx.workload["cell_scenario"], {}).get(
        str(ctx.seed))
    if pinned is not None:
        ctx.gate("cell digest == pinned digest for seed %d" % ctx.seed,
                 digest == pinned, "%s vs %s" % (digest, pinned))
    cell = runs["cell_s"][1]["cells"][0]
    ctx.metrics["cell_peak_rss_mb"] = max(r.peak_rss_mb
                                          for r, _ in runs.values())
    ctx.details["cell"] = {"digest": digest, "phv": cell["phv"],
                           "evaluations": cell["evaluations"]}
    return digest, cell


# -------------------------------------------------------------- campaign


def launch(ctx, name, workers, cache):
    out = ctx.path(name + ".json")
    r = ctx.run([ctx.bins["campaign-launch"],
                 "--plan=" + ctx.inputs.campaign_plan,
                 "--workers=%d" % workers, "--cache-dir=" + cache,
                 "--work-dir=" + ctx.path("work-" + name), "--out=" + out],
                name)
    report = load_json(out)
    ctx.count_cells(report)
    return r, report


def campaign_phase(ctx):
    """Cold launches at min(4, nproc) workers, each into an empty cache,
    cold launches at one worker, and warm reruns against the first cold
    cache, interleaved so a slow stretch of the machine hits one sample
    of each rather than every sample of one.  The cold metrics are the
    median of their samples; the warm metric is the fastest sample."""
    cold_cache = ctx.path("cache-cold0")
    counts = {kind: ctx.repeats(n, MIN_REPEATS)
              for kind, n in LAUNCHES.items()}
    samples = {kind: [] for kind in counts}
    for i in range(max(counts.values())):
        if i < counts["cold"]:
            samples["cold"].append(
                launch(ctx, "cold%d" % i, ctx.workers,
                       ctx.path("cache-cold%d" % i)))
        if i < counts["one"]:
            samples["one"].append(
                launch(ctx, "one%d" % i, 1, ctx.path("cache-one%d" % i)))
        if i < counts["warm"]:
            samples["warm"].append(
                launch(ctx, "warm%d" % i, ctx.workers, cold_cache))

    cells = ctx.inputs.campaign_cells
    digest = samples["cold"][0][1]["objectives_digest"]
    for kind, runs in samples.items():
        for i, (_, report) in enumerate(runs):
            ctx.gate("%s launch %d: %d cells, digest == first cold launch"
                     % (kind, i, cells),
                     len(report["cells"]) == cells
                     and report["objectives_digest"] == digest,
                     "%d cells, %s vs %s" % (len(report["cells"]),
                                             report["objectives_digest"],
                                             digest))
            if kind == "warm":
                ctx.gate("warm launch %d is 100%% cache hits" % i,
                         report["cache_hits"] == cells
                         and report["cache_misses"] == 0,
                         "%d hits, %d misses" % (report["cache_hits"],
                                                 report["cache_misses"]))

    walls = {kind: [r.wall_s for r, _ in runs]
             for kind, runs in samples.items()}
    ctx.metrics["campaign_cold_s"] = statistics.median(walls["cold"])
    ctx.metrics["campaign_1w_s"] = statistics.median(walls["one"])
    # A warm launch (~0.12 s) is mostly process start-up and cache reads,
    # which the host's slow stretches made up to 2.5 times slower for a
    # whole run.  Over ten runs the median of 9 warm launches spread 0.21
    # and the fastest of them 0.065.
    ctx.metrics["campaign_warm_s"] = min(walls["warm"])
    ctx.metrics["campaign_peak_rss_mb"] = max(
        r.peak_rss_mb for runs in samples.values() for r, _ in runs)
    ctx.details["campaign"] = {"cells": cells, "digest": digest,
                               "wall_s_samples": walls}


# ----------------------------------------------------------------- serve


class Server:
    """policy-serve on a local socket plus the open-loop client process.
    Every line sent is kept, in order, for the in-process replay."""

    SOCKET = "serve.sock"

    def __init__(self, ctx):
        self.ctx = ctx
        self.sent = []
        self.ops = []
        logs = ctx.dir("logs")
        sock = ctx.path(self.SOCKET)
        if os.path.exists(sock):
            os.unlink(sock)
        self._server_log = open(os.path.join(logs, "policy-serve.err"), "w")
        self.server = subprocess.Popen(
            [ctx.bins["policy-serve"], ctx.inputs.report,
             "--modes=" + ctx.modes_path, "--socket=" + self.SOCKET],
            cwd=ctx.run_dir, stdin=subprocess.DEVNULL,
            stdout=self._server_log, stderr=self._server_log)
        self.client = None
        deadline = time.monotonic() + 30.0
        while not os.path.exists(sock):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise procs.ProgramError("policy-serve did not start")
            time.sleep(0.01)
        self.client = subprocess.Popen(
            [ctx.bins["probe"], "serve-client", self.SOCKET,
             "1" if ctx.spin_client else "0"],
            cwd=ctx.run_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, requests, rate):
        """One open-loop round; ``requests`` is a list of (line, op)."""
        path = self.ctx.path("round.jsonl")
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line, _ in requests))
        self.client.stdin.write("run %s %r %d\n" % (path, rate,
                                                     PHASE_TIMEOUT_MS))
        self.client.stdin.flush()
        lines = []
        while True:
            line = self.client.stdout.readline()
            if not line:
                raise procs.ProgramError("serve-client exited")
            if line.startswith("end "):
                break
            lines.append(line)
        ops = [op for _, op in requests]
        records = stats.parse_records(lines, ops)
        self.sent.extend(line for line, _ in requests)
        self.ops.extend(ops)
        self.ctx.attempted += len(records)
        self.ctx.failed += stats.failed(records)
        return records

    def digest(self):
        self.client.stdin.write("digest\n")
        self.client.stdin.flush()
        line = self.client.stdout.readline()
        if not line.startswith("digest "):
            raise procs.ProgramError("serve-client: no digest reply")
        return json.loads(line[len("digest "):])["digest"]

    def close(self):
        """Ends the session and waits for both processes to exit."""
        try:
            if self.client is not None and self.client.poll() is None:
                self.client.stdin.write("quit\n")
                self.client.stdin.flush()
                self.client.wait(timeout=10)
        finally:
            if self.client is not None and self.client.poll() is None:
                self.client.kill()
                self.client.wait()
            killer = threading.Timer(10.0, self.server.kill)
            killer.start()
            try:
                procs.reap(self.server)
            finally:
                killer.cancel()
                self._server_log.close()

    def abort(self):
        for proc in (self.client, self.server):
            if proc is not None and proc.returncode is None:
                proc.kill()
                procs.reap(proc)
        self._server_log.close()


def check_replay(ctx, socket_digest, info):
    ctx.gate("socket decision digest == in-process replay digest",
             socket_digest == info["digest"],
             "%s vs %s" % (socket_digest, info["digest"]))
    ctx.gate("in-process replay answered every request",
             info["failed"] == 0, "%d failed" % info["failed"])


def decide_requests(ctx, n, batches=True):
    return ctx.inputs.stream.requests(n, batches)


def with_reloads(requests):
    out = []
    for i, request in enumerate(requests):
        if i > 0 and i % RELOAD_EVERY == 0:
            out.append((gen.reload_line(), "reload"))
        out.append(request)
    return out


def decide_records(records):
    """The single-decision requests of a round (not batch, not reload)."""
    return [r for r in records if r.op not in ("batch", "reload")]


def finite(value, cap_us=PHASE_TIMEOUT_MS * 1e3):
    """A failed request's latency is infinite; a reported value is capped
    at the phase timeout, and the failure is counted separately."""
    return value if math.isfinite(value) else cap_us


def burst_rate(records):
    """Completions per second of a burst: requests over the time from the
    first send to the last reply."""
    elapsed_ns = (max(r.recv_ns for r in records)
                  - min(r.sent_ns for r in records))
    return len(records) * 1e9 / elapsed_ns


def burst_round(ctx, server, samples):
    """Decide-only requests back to back.  The server's CPU time is read
    around them, so the report load at start-up and the reloads stay out
    of it."""
    burst = decide_requests(ctx, BURST_REQUESTS, batches=False)
    cpu_before = procs.cpu_time_s(server.server.pid)
    records = server.run(burst, BURST_RATE)
    samples["burst_cpu_s"].append(
        procs.cpu_time_s(server.server.pid) - cpu_before)
    samples["burst"].append(burst_rate(records))


def serve_session(ctx, samples):
    """One policy-serve process and one client connection: a warm-up, then
    the rounds, appended to ``samples``.  The digest the connection
    reports must equal an in-process replay of every line it sent."""
    server = Server(ctx)
    try:
        server.run(decide_requests(ctx, WARMUP[0]), WARMUP[1])
        burst_round(ctx, server, samples)
        records = decide_records(
            server.run(decide_requests(ctx, LOW_REQUESTS), LOW_RATE))
        samples["low"].extend(stats.latencies(records))
        samples["rounds"].append({"low": stats.phase_summary(records)})

        records = server.run(
            with_reloads(decide_requests(ctx, HIGH_REQUESTS)), HIGH_RATE)
        samples["high"].extend(stats.latencies(decide_records(records)))
        samples["reload"].extend(stats.latencies(records, op="reload"))
        samples["rounds"][-1]["high"] = stats.phase_summary(
            decide_records(records))

        burst_round(ctx, server, samples)
        socket_digest = server.digest()
        # Read while the server still runs: its own peak, which wait4
        # would floor at the harness's.
        samples["rss_mb"].append(procs.peak_rss_mb(server.server.pid))
    except BaseException:
        server.abort()
        raise
    server.close()
    check_replay(ctx, socket_digest, replay(ctx, server.sent)["info"])
    for op in server.ops:
        samples["ops"][op] = samples["ops"].get(op, 0) + 1


def serve_phase(ctx):
    """Serve sessions, each its own server process: on this kind of
    machine the server's speed varies from one process to the next and
    from one burst to the next, so every metric pools (or takes the
    median over) several.  Each session runs, over one connection:
    * burst: decide-only requests sent back to back (throughput, and the
      server's CPU time per decide);
    * low: the full request mix at LOW_RATE;
    * high: the mix at HIGH_RATE with a reload every RELOAD_EVERY lines;
    * a second burst.
    Percentiles pool the single-decide requests of all sessions, and the
    CPU time per decide pools the bursts: the host can make one burst cost
    1.5 times another, and a total over several evens that out better
    than a median of them."""
    samples = {"low": [], "high": [], "reload": [], "burst": [],
               "burst_cpu_s": [], "rounds": [], "ops": {}, "rss_mb": []}
    for _ in range(ctx.repeats(SESSIONS, MIN_SESSIONS)):
        serve_session(ctx, samples)
    percentiles = {
        "decide_p50_us": stats.reportable_percentile(samples["low"], 0.5),
        "decide_p99_us": stats.reportable_percentile(samples["low"], 0.99),
        "decide_p99_us_high": stats.reportable_percentile(samples["high"],
                                                          0.99),
        "reload_p50_us": stats.reportable_percentile(samples["reload"], 0.5),
    }
    for name, p in percentiles.items():
        if p is None:
            raise ValueError("%s: too few samples for the percentile" % name)
    for name in ("decide_p50_us", "decide_p99_us", "decide_p99_us_high"):
        ctx.metrics[name] = finite(percentiles[name]["value"])
    ctx.metrics["max_decides_per_s"] = statistics.median(samples["burst"])
    ctx.metrics["reload_p50_ms"] = finite(
        percentiles["reload_p50_us"]["value"]) / 1e3
    ctx.metrics["serve_cpu_us_per_decide"] = (
        sum(samples["burst_cpu_s"]) * 1e6
        / (BURST_REQUESTS * len(samples["burst_cpu_s"])))
    ctx.metrics["serve_peak_rss_mb"] = statistics.median(samples["rss_mb"])
    total = sum(samples["ops"].values())
    ctx.details["serve"] = {
        "requests": total,
        "op_shares": {op: n / total
                      for op, n in sorted(samples["ops"].items())},
        "percentiles": percentiles,
        "rounds": samples["rounds"],
        "burst_decides_per_s": samples["burst"],
        "burst_cpu_us_per_decide": [cpu_s * 1e6 / BURST_REQUESTS
                                    for cpu_s in samples["burst_cpu_s"]],
        "peak_rss_mb": samples["rss_mb"],
    }


def replay(ctx, lines, reloads=None):
    """In-process ServeSession replay of ``lines`` (serve-replay); with a
    reload count it also runs the serve layer probe."""
    path = ctx.path("sent.jsonl")
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))
    args = [ctx.bins["probe"], "serve-replay", ctx.inputs.report,
            ctx.modes_path, path]
    if reloads is not None:
        args.append(str(reloads))
    return probe_output(ctx.run(args, "serve-replay"))


def probe_output(run):
    """The JSON document a probe subcommand prints as its last line."""
    return json.loads(run.stdout.strip().splitlines()[-1])


def clean(ctx):
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
