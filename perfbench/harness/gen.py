"""Seeded input generators: the cell plan, the campaign plan and the serve
request stream.  The same seed gives the same inputs; the programs under
test only ever see what these functions write.

Each generator varies only what leaves the amount of work unchanged
(cell seeds, sensor-noise seeds, which scenario or mode a request names),
so runs with different seeds measure the same work and their spread is
the machine's, not the generator's.
"""

import json
import random

LEARNED_METHODS = ["il", "dypo", "rl", "scalarization"]
GOVERNORS = {"performance", "powersave", "ondemand", "conservative",
             "interactive", "schedutil", "random"}

# Built-in operating modes of parmis-serve-v1 (docs/serving.md): rule and
# the objectives it reads.  User modes come from the modes file.
BUILTIN_MODES = {
    "performance": ("best_for", ["time_s"]),
    "balanced": ("knee_point", []),
    "powersave": ("best_for", ["energy_j"]),
    "thermal-critical": ("weights", ["peak_power_w", "energy_j", "edp_js",
                                     "time_s", "ppw_gips_per_w"]),
}


def dump_line(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=False)


# ------------------------------------------------------------------ cell


def cell_plan(scenario, seed):
    """One paper-scale PaRMIS cell: ``scenario`` x parmis at --full, with
    the workload seed as the cell seed (the digests in pins.json were
    taken at seed 1)."""
    return {
        "schema": "parmis-plan-v2",
        "name": "perfbench-cell",
        "scenarios": [scenario],
        "methods": ["parmis"],
        "seeds_per_cell": 1,
        "base_seed": seed,
        "anchor_limit": 3,
        "full_budget": True,
    }


# -------------------------------------------------------------- campaign


def campaign_plan(scenario_docs, seed, seeds_per_cell):
    """Every registry scenario with its default methods, plus the learned
    baselines on copies of an exynos5422 and a mobile3 scenario reduced to
    the time/energy objectives those baselines support.

    ``scenario_docs`` is the output of ``campaign --dump-scenarios``.
    Returns ``(plan, method_shares, cells)``.
    """
    rng = random.Random("campaign-%d" % seed)
    by_name = {doc["name"]: doc for doc in scenario_docs}
    learned = []
    for template in ("xu3-mibench-te", "mobile3-edp"):
        doc = json.loads(json.dumps(by_name[template]))
        doc["name"] = "perfbench-%s-learned" % doc["platform"]
        doc["description"] = "learned baselines on %s" % template
        doc["objectives"] = ["time_s", "energy_j"]
        doc["methods"] = list(LEARNED_METHODS)
        config = doc.setdefault("platform_config", {})
        config["noise_seed"] = rng.randrange(1, 2 ** 31)
        learned.append(doc)
    plan = {
        "schema": "parmis-plan-v2",
        "name": "perfbench-campaign",
        "scenarios": [doc["name"] for doc in scenario_docs] + learned,
        "seeds_per_cell": seeds_per_cell,
        "base_seed": rng.randrange(1, 2 ** 31),
        "anchor_limit": 3,
    }
    counts = {}
    for doc in scenario_docs + learned:
        for method in doc["methods"]:
            key = "governor" if method in GOVERNORS else method
            counts[key] = counts.get(key, 0) + seeds_per_cell
    total = sum(counts.values())
    shares = {m: c / total for m, c in sorted(counts.items())}
    return plan, shares, total


# ----------------------------------------------------------------- serve


def load_modes(path):
    """Built-in modes plus the user modes of a parmis-modes-v1 file, as
    name -> (rule, objectives read)."""
    modes = dict(BUILTIN_MODES)
    with open(path) as f:
        doc = json.load(f)
    for mode in doc["modes"]:
        if mode["rule"] == "best_for":
            modes[mode["name"]] = ("best_for", [mode["objective"]])
        elif mode["rule"] == "weights":
            modes[mode["name"]] = ("weights", sorted(mode["weights"]))
        else:
            modes[mode["name"]] = (mode["rule"], [])
    return modes


def applicable(mode, objectives):
    """Whether a mode resolves on a scenario tracking ``objectives``: a
    best_for mode needs its objective, a weights mode any of its weighted
    objectives, the knee point nothing."""
    rule, reads = mode
    if rule == "best_for":
        return reads[0] in objectives
    if rule == "weights":
        return any(o in objectives for o in reads)
    return True


def auto_mode(workload):
    """The auto pseudo-mode's dispatch (docs/serving.md)."""
    if workload.get("thermal_headroom_c", 100.0) <= 5:
        return "thermal-critical"
    if workload.get("battery_pct", 100.0) < 20:
        return "powersave"
    if workload.get("load", 0.0) >= 0.9:
        return "performance"
    return "balanced"


def report_catalogue(report):
    """scenario -> objectives of the cells a report serves (failed and
    empty cells are not served)."""
    return {cell["scenario"]: cell["objectives"] for cell in report["cells"]
            if not cell.get("error") and cell["front"]}


class StreamGenerator:
    """Decide requests over a served report.  Each request is one of

    * a named mode (built-in or from the modes file),
    * ``auto`` with workload counters,
    * explicit objective weights,
    * a ``batch`` of such decide bodies,

    with equal odds, and every body names a scenario drawn uniformly and
    no method (the scenario's default serves it).  No source gives a
    deployed client's mix, so these are assumptions: the simplest stream
    holding every request form of parmis-serve-v1.  Every request names
    a mode that resolves on its scenario, so no request fails.
    ``reload`` lines are inserted by the serve phase itself, on its own
    schedule.
    """

    MIX = ("mode", "auto", "weights", "batch")
    BATCH_ITEMS = 2

    def __init__(self, catalogue, modes, seed):
        self.rng = random.Random("serve-%d" % seed)
        self.catalogue = catalogue
        self.scenarios = sorted(catalogue)
        self.modes = modes
        self.next_id = 0

    def _body(self, kind):
        rng = self.rng
        scenario = rng.choice(self.scenarios)
        objectives = self.catalogue[scenario]
        body = {"scenario": scenario}
        if kind == "mode":
            names = sorted(n for n, m in self.modes.items()
                           if applicable(m, objectives))
            body["mode"] = rng.choice(names)
        elif kind == "auto":
            while True:
                workload = {
                    "thermal_headroom_c": round(rng.uniform(0, 40), 1),
                    "battery_pct": round(rng.uniform(0, 100), 1),
                    "load": round(rng.uniform(0, 1), 2),
                }
                if applicable(self.modes[auto_mode(workload)], objectives):
                    break
            body["mode"] = "auto"
            body["workload"] = workload
        else:
            body["weights"] = {o: round(rng.uniform(0.1, 5.0), 2)
                               for o in objectives}
        return body

    def request(self, batches=True):
        """One request line and its kind (mode, auto, weights, batch)."""
        kind = self.rng.choice(self.MIX if batches else self.MIX[:-1])
        self.next_id += 1
        if kind == "batch":
            items = [self._body(self.rng.choice(self.MIX[:-1]))
                     for _ in range(self.BATCH_ITEMS)]
            doc = {"op": "batch", "requests": items, "id": self.next_id}
        else:
            doc = {"op": "decide", **self._body(kind), "id": self.next_id}
        return dump_line(doc), kind

    def requests(self, n, batches=True):
        return [self.request(batches) for _ in range(n)]


def reload_line():
    return dump_line({"op": "reload"})
