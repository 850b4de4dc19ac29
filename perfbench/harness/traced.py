"""Traced phases: the per-layer metrics.

Each phase runs an untraced reference through the shipped program and
the benchmark's in-process probe on the same inputs, checks that
both computed the same thing, and reports the probe's layer metrics plus
the tracing overhead: the probe's wall time over the reference's, minus
one, in percent.
"""

import glob
import os

from . import phases, stats


def cell_trace(ctx):
    """The cell through `campaign` at one thread, then in-process under
    the traced method; digest, PHV and evaluation count must agree."""
    out = ctx.path("cell-ref.json")
    ctx.run([ctx.bins["campaign"], "--plan=" + ctx.inputs.cell_plan,
             "--threads=1", "--json=" + out], "cell-ref")
    ref = phases.load_json(out)
    ctx.count_cells(ref)
    cell = ref["cells"][0]
    probe = phases.probe_output(
        ctx.run([ctx.bins["probe"], "trace-cell", ctx.inputs.cell_plan],
                "trace-cell"))
    info = probe["info"]
    ctx.attempted += 1
    ctx.gate("traced cell digest == CLI digest",
             info["digest"] == ref["objectives_digest"],
             "%s vs %s" % (info["digest"], ref["objectives_digest"]))
    ctx.gate("traced cell PHV == CLI PHV", info["phv"] == cell["phv"],
             "%r vs %r" % (info["phv"], cell["phv"]))
    ctx.gate("traced cell evaluations == CLI evaluations",
             info["evaluations"] == cell["evaluations"],
             "%d vs %d" % (info["evaluations"], cell["evaluations"]))
    pinned = ctx.pins.get(ctx.workload["cell_scenario"], {}).get(
        str(ctx.seed))
    if pinned is not None:
        ctx.gate("traced cell digest == pinned digest for seed %d" % ctx.seed,
                 info["digest"] == pinned, "%s vs %s" % (info["digest"],
                                                         pinned))
    ctx.metrics.update(probe["metrics"])
    ctx.metrics["trace.cell_overhead_pct"] = overhead_pct(info["cell_s"],
                                                          cell["wall_s"])
    ctx.details["cell_trace"] = info


def campaign_trace(ctx):
    """The cold launch and a raw single-process run through the CLIs, then
    the in-process launch, per-method runners, cache and merge probes."""
    cold, cold_report = phases.launch(ctx, "cold", ctx.workers,
                                      ctx.path("cache-cold"))
    raw_out = ctx.path("raw.json")
    raw = ctx.run([ctx.bins["campaign"],
                   "--plan=" + ctx.inputs.campaign_plan,
                   "--threads=%d" % ctx.workers, "--json=" + raw_out], "raw")
    raw_report = phases.load_json(raw_out)
    ctx.count_cells(raw_report)
    digest = cold_report["objectives_digest"]
    ctx.gate("launch digest == single-process campaign digest",
             digest == raw_report["objectives_digest"],
             "%s vs %s" % (digest, raw_report["objectives_digest"]))

    job_dirs = glob.glob(os.path.join(ctx.path("work-cold"), "job*"))
    probe = phases.probe_output(ctx.run(
        [ctx.bins["probe"], "trace-campaign", ctx.inputs.campaign_plan,
         ctx.bins["campaign"], ctx.dir("trace-campaign"),
         str(ctx.workers), ctx.path("cache-cold"), job_dirs[0]],
        "trace-campaign"))
    info = probe["info"]
    cells = ctx.inputs.campaign_cells
    ctx.attempted += 2 * cells  # the in-process launch and method groups
    ctx.gate("in-process launch digest == CLI launch digest",
             info["launch_digest"] == digest,
             "%s vs %s" % (info["launch_digest"], digest))
    ctx.gate("merged chunk reports digest == CLI launch digest",
             info["merged_digest"] == digest,
             "%s vs %s" % (info["merged_digest"], digest))
    ctx.metrics.update(probe["metrics"])
    ctx.metrics["orchestrate.overhead_pct"] = overhead_pct(cold.wall_s,
                                                           raw.wall_s)
    ctx.metrics["trace.campaign_overhead_pct"] = overhead_pct(
        info["launch_s"], cold.wall_s)
    ctx.details["campaign_trace"] = info


def serve_trace(ctx):
    """Round-trip times over the socket at the low rate, then the
    in-process probe of the same lines."""
    server = phases.Server(ctx)
    try:
        server.run(phases.decide_requests(ctx, phases.WARMUP[0]),
                   phases.WARMUP[1])
        records = server.run(
            phases.decide_requests(ctx, phases.LOW_REQUESTS), phases.LOW_RATE)
        socket_digest = server.digest()
    except BaseException:
        server.abort()
        raise
    server.close()
    rtt = stats.percentile(
        stats.latencies(phases.decide_records(records)), 0.5)[0]
    probe = phases.replay(ctx, server.sent, phases.RELOAD_PROBES)
    phases.check_replay(ctx, socket_digest, probe["info"])
    ctx.attempted += len(server.sent) + phases.RELOAD_PROBES
    ctx.metrics.update(probe["metrics"])
    ctx.metrics["serve.transport_us"] = (
        phases.finite(rtt) - probe["metrics"]["serve.handle_line_us"])
    ctx.metrics["trace.serve_overhead_pct"] = overhead_pct(
        probe["info"]["timed_replay_s"], probe["info"]["untimed_replay_s"])
    ctx.details["serve_trace"] = probe["info"]


def overhead_pct(traced_s, untraced_s):
    return (traced_s / untraced_s - 1.0) * 100.0
