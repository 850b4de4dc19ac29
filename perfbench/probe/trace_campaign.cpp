// trace-campaign: the campaign-phase layer probe.
//
//   trace-campaign <plan.json> <campaign-bin> <work-dir> <workers>
//                  <cold-cache-dir> <cold-job-dir>
//
// Four probes over the plan the end-to-end run launches:
//  * orchestrate: the launch again, in-process through JobManager with
//    `workers` campaign worker processes into a fresh cache, every
//    chunk timed by a wrapper around the process backend; steals and
//    retries are the job's lease-table counters;
//  * exec/core/soc: one 1-thread CampaignRunner per method group
//    (parmis, il, dypo, rl, scalarization, the governors), parmis cells
//    running as "parmis-traced" to time initialize/step/evaluate;
//  * cache: lookups of every plan cell in a copy of the cold cache,
//    lookups of keys it does not hold, and stores into an empty cache;
//  * report: load of every chunk report of the cold launch and their
//    merge, whose digest must equal the launch's.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "exec/campaign.hpp"
#include "methods/registry.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/protocol.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "serde/plan.hpp"

#include "probe.hpp"
#include "traced_parmis.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace orch = parmis::orchestrate;
using parmis::json::Value;

/// Process backend whose every chunk attempt is timed.
class TimedBackend final : public orch::ChunkBackend {
 public:
  TimedBackend(orch::ProcessBackend::Config config, Series* chunks,
               std::mutex* mu)
      : inner_(std::move(config)), chunks_(chunks), mu_(mu) {}

  orch::ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                               std::size_t attempt,
                               const std::atomic<bool>& abort) override {
    const std::uint64_t t0 = now_ns();
    orch::ChunkOutcome outcome =
        inner_.run_chunk(index, count, attempt, abort);
    const std::uint64_t ns = now_ns() - t0;
    const std::lock_guard<std::mutex> lock(*mu_);
    chunks_->add(ns);
    return outcome;
  }

 private:
  orch::ProcessBackend inner_;
  Series* chunks_;  // guarded by *mu_
  std::mutex* mu_;
};

/// The method group a cell's method is reported under.
std::string method_group(const std::string& method) {
  for (const char* own : {"parmis", "il", "dypo", "rl", "scalarization"}) {
    if (method == own) return method;
  }
  return "governor";
}

}  // namespace

int trace_campaign_main(const std::vector<std::string>& args) {
  parmis::require(args.size() == 6,
                  "usage: trace-campaign <plan> <campaign-bin> <work-dir> "
                  "<workers> <cold-cache-dir> <cold-job-dir>");
  const parmis::serde::CampaignPlan plan = parmis::serde::load_plan(args[0]);
  const parmis::exec::CampaignConfig config = parmis::serde::to_campaign_config(
      plan, parmis::serde::ScenarioCatalogue());
  const fs::path work_dir = args[2];
  const std::size_t workers = static_cast<std::size_t>(std::stoul(args[3]));
  Output out;

  // ---------------------------------------------------------- orchestrate
  Series chunks;
  std::mutex chunks_mu;
  orch::JobManager::Defaults defaults;
  defaults.workers = workers;
  defaults.work_dir = (work_dir / "launch").string();
  defaults.cache_dir = (work_dir / "launch-cache").string();
  defaults.campaign_bin = args[1];
  defaults.backend_factory =
      [&](const parmis::serde::CampaignPlan&, const std::string&,
          const orch::ProcessBackend::Config& process) {
        return std::make_unique<TimedBackend>(process, &chunks, &chunks_mu);
      };
  orch::JobManager manager(defaults);
  const std::uint64_t launch_t0 = now_ns();
  const std::uint64_t job = manager.submit(plan).id;
  for (;;) {
    const orch::JobProgress::State state = manager.info(job)->progress.state;
    if (state != orch::JobProgress::State::Pending &&
        state != orch::JobProgress::State::Running) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double launch_s = (now_ns() - launch_t0) / 1e9;
  manager.shutdown();
  const orch::JobProgress progress = manager.info(job)->progress;
  parmis::require(progress.state == orch::JobProgress::State::Done,
                  "trace-campaign: launch failed: " + progress.error);
  out.metric("orchestrate.chunk_ms", chunks.mean_ns() / 1e6);
  out.metric("orchestrate.steals", static_cast<double>(progress.stats.steals));
  out.metric("orchestrate.retries",
             static_cast<double>(progress.stats.retries));
  out.info("launch_s", Value::number(launch_s));
  out.info("launch_digest", Value::string(parmis::hex64(progress.report_digest)));

  // ------------------------------------------------------ exec/core/soc
  std::map<std::string, Series> cell_ms;
  CellTrace trace;
  double parmis_cells_ns = 0.0;
  double groups_s = 0.0;
  for (const char* group :
       {"parmis", "il", "dypo", "rl", "scalarization", "governor"}) {
    parmis::exec::CampaignConfig part = config;
    part.num_threads = 1;
    part.cache = nullptr;
    part.scenarios.clear();
    for (parmis::scenario::ScenarioSpec spec : config.scenarios) {
      std::vector<std::string> methods;
      for (const std::string& m : spec.methods) {
        if (method_group(m) != group) continue;
        methods.push_back(m == "parmis" ? kTracedParmis : m);
      }
      if (methods.empty()) continue;
      spec.methods = std::move(methods);
      part.scenarios.push_back(std::move(spec));
    }
    if (part.scenarios.empty()) continue;
    const ScopedCellTrace scope(&trace);
    const parmis::exec::CampaignReport report =
        parmis::exec::CampaignRunner(std::move(part)).run();
    groups_s += report.wall_s;
    for (const parmis::exec::CellResult& cell : report.cells) {
      parmis::require(cell.error.empty(),
                      "trace-campaign: cell failed: " + cell.error);
      cell_ms[group].add(static_cast<std::uint64_t>(cell.wall_s * 1e9));
      if (cell.method == kTracedParmis) parmis_cells_ns += cell.wall_s * 1e9;
    }
  }
  for (const auto& [group, series] : cell_ms) {
    out.metric("exec.cell_ms." + group, series.mean_ns() / 1e6);
  }
  out.metric("core.initialize_ms", trace.initialize.mean_ns() / 1e6);
  out.metric("core.step_ms", trace.step.mean_ns() / 1e6);
  out.metric("soc.evaluate_us", trace.evaluate.mean_ns() / 1e3);
  out.metric("soc.evaluate_share", trace.evaluate.total_ns() / parmis_cells_ns);
  out.info("groups_s", Value::number(groups_s));

  // --------------------------------------------------------------- cache
  const fs::path cache_copy = work_dir / "cache-copy";
  fs::copy(args[4], cache_copy, fs::copy_options::recursive);
  parmis::cache::ResultCache cold(cache_copy.string());
  parmis::cache::ResultCache fresh((work_dir / "cache-store").string());
  Series hit, miss, store;
  std::size_t lookups = 0, hits = 0;
  for (const parmis::scenario::ScenarioSpec& spec : config.scenarios) {
    for (const std::string& method : spec.methods) {
      const std::string method_config =
          parmis::methods::canonical_method_config(method,
                                                   config.method_configs);
      for (std::size_t s = 0; s < config.seeds_per_cell; ++s) {
        const std::uint64_t seed = config.base_seed + s;
        const auto key = parmis::cache::cell_key(
            spec, method, seed, config.anchor_limit, method_config);
        ++lookups;
        const std::optional<parmis::exec::CellResult> cell =
            timed(hit, [&] { return cold.lookup(key); });
        if (!cell.has_value()) continue;
        ++hits;
        timed(store, [&] { fresh.store(key, *cell); });
        // A seed no plan cell uses: a key the cache cannot hold.
        const auto absent = parmis::cache::cell_key(
            spec, method, seed + (1ULL << 40), config.anchor_limit,
            method_config);
        timed(miss, [&] { return cold.lookup(absent); });
      }
    }
  }
  parmis::require(lookups > 0, "trace-campaign: the plan has no cells");
  out.metric("cache.lookup_hit_us", hit.mean_ns() / 1e3);
  out.metric("cache.lookup_miss_us", miss.mean_ns() / 1e3);
  out.metric("cache.store_us", store.mean_ns() / 1e3);
  out.metric("cache.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(lookups));

  // -------------------------------------------------------------- report
  std::vector<parmis::exec::CampaignReport> chunk_reports;
  Series load;
  for (const auto& entry : fs::directory_iterator(args[5])) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("chunk_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    chunk_reports.push_back(timed(load, [&] {
      return parmis::report::load_report(entry.path().string());
    }));
  }
  parmis::require(!chunk_reports.empty(),
                  "trace-campaign: no chunk reports in " + args[5]);
  Series merge;
  const parmis::exec::CampaignReport merged = timed(merge, [&] {
    return parmis::report::merge(std::move(chunk_reports));
  });
  out.metric("report.load_ms", load.mean_ns() / 1e6);
  out.metric("report.merge_ms", merge.mean_ns() / 1e6);
  out.info("merged_digest",
           Value::string(parmis::hex64(merged.objectives_digest())));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
