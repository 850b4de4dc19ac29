#!/usr/bin/env python3
"""PaRMIS end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload paper-te --seed 1 --seconds 60 \
        --trace 0

Run from the repository root.  Builds the programs under test and the
benchmark probe program from source (first run only; later runs rebuild
incrementally), generates the run's inputs from --seed, runs the cell,
campaign and serve phases, checks the correctness gates, and prints one
JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric.  Exits 1 when a gate fails or a metric is
missing, 2 when the checkout cannot be built.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import phases, procs, traced  # noqa: E402

WORKLOADS = {
    "paper-te": {"cell_scenario": "xu3-mibench-te"},
    "thermal-tpp": {"cell_scenario": "xu3-thermal-tpp"},
}
PROGRAMS = ["campaign", "campaign-launch", "policy-serve"]
MODES_FILE = os.path.join("examples", "serve", "modes.json")


def log(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.stderr.flush()


def build(root):
    """Configures (once) and builds the programs and the probe; returns
    their paths and the probe's build description."""
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        args = ["cmake", "-S", HERE, "-B", cmake_dir,
                "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            args += ["-G", "Ninja"]
        subprocess.run(args, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                    "perfbench_probe", "perfbench_spawn"] + PROGRAMS,
                   check=True, stdout=sys.stderr)
    bins = {name: os.path.join(cmake_dir, "parmis", name) for name in PROGRAMS}
    bins["probe"] = os.path.join(cmake_dir, "perfbench_probe")
    bins["spawn"] = os.path.join(cmake_dir, "perfbench_spawn")
    build_info = json.loads(subprocess.run(
        [bins["probe"], "build-info"], check=True, capture_output=True,
        text=True).stdout)
    return bins, build_info, out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_fingerprint(root):
    """The commit when the checkout is a git work tree; otherwise a hash
    of the sources the programs and the benchmark are built from."""
    if os.path.isdir(os.path.join(root, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return {"commit": head.stdout.strip()}
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if "__pycache__" not in d)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"commit": None, "source_sha256": digest.hexdigest()}


def summarize(ctx, wanted):
    """The result line: every wanted metric with its unit, and correct
    only when every gate held and no wanted metric is missing (a missing
    one is recorded as a failed gate)."""
    metrics = {}
    for m in wanted:
        if m["name"] in ctx.metrics:
            metrics[m["name"]] = {"value": ctx.metrics[m["name"]],
                                  "unit": m["unit"]}
        else:
            ctx.gate("metric %s measured" % m["name"], False)
    return {"correct": all(g["ok"] for g in ctx.gates),
            "attempted": ctx.attempted, "failed": ctx.failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds like a failed one, so the children it
    # started are stopped before it exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(root, MODES_FILE))
            and os.path.isfile(spec_path)):
        log("run from the root of a PaRMIS checkout (CMakeLists.txt, src/, "
            "%s and BENCHMARK.json are needed)" % MODES_FILE)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)

    try:
        bins, build_info, out = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    nproc = len(os.sched_getaffinity(0))
    run_dir = os.path.join(out, "runs", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    ctx = phases.Context(bins, run_dir, WORKLOADS[args.workload], args.seed,
                         min(4, nproc), os.path.join(root, MODES_FILE), pins,
                         args.seconds)
    steps = [phases.setup] + ([traced.cell_trace, traced.campaign_trace,
                               traced.serve_trace] if args.trace else
                              [phases.cell_phase, phases.campaign_phase,
                               phases.serve_phase])
    phase_s = {}
    t0 = time.perf_counter()
    try:
        for step in steps:
            t = time.perf_counter()
            step(ctx)
            phase_s[step.__name__] = time.perf_counter() - t
    except (procs.ProgramError, OSError, ValueError, KeyError) as e:
        traceback.print_exc(file=sys.stderr)
        log("run failed: %s (logs kept in %s)" % (e, run_dir))
        return 1
    wall = time.perf_counter() - t0
    phases.clean(ctx)

    result = summarize(ctx, wanted)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_s": wall,
        "phase_s": phase_s,
        "host": {"nproc": nproc, "cpu_model": cpu_model(),
                 "workers": ctx.workers},
        "build": build_info,
        "source": source_fingerprint(root),
        "gates": ctx.gates,
        # Measured, but too noisy on the reference VM to gate (README).
        "ungated": {name: value for name, value in ctx.metrics.items()
                    if name not in result["metrics"]},
        "details": ctx.details,
    }
    for name, m in result["metrics"].items():
        log("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for gate in ctx.gates:
        if not gate["ok"]:
            log("GATE FAILED: %s (%s)" % (gate["gate"], gate["detail"]))
    print("perfbench-report " + json.dumps(report))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
