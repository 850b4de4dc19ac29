// Campaign suite bench: the full scenario catalogue on the parallel
// campaign runner.
//
// Protocol:
//  1. run the >= 8-scenario suite once on 1 thread (reference),
//  2. run it again on N threads (--threads, default: hardware),
//  3. assert the per-cell objective vectors are bitwise identical
//     (digest equality — the determinism contract of exec::ThreadPool),
//  4. report per-scenario PHV by method and the measured wall-clock
//     speedup, plus an intra-cell speedup probe (GlobalEvaluator's
//     pooled per-app fan-out on the 12-app scenario).
//
// With --cache-dir the suite additionally measures cache effectiveness:
// a third, fully cached pass over the same cells, reporting the replay
// speedup and asserting the replayed digest matches the computed one.
//
// A final method-matrix probe iterates the method registry — not a
// hard-coded list — running every registered method whose declared
// capabilities admit a small time/energy scenario on each platform
// variant (tiny learned-baseline budgets via typed method configs), and
// asserts the matrix digest is thread-count-invariant too.
//
// A merge-scale probe keeps report merging off the campaign critical
// path as campaigns grow: it synthesizes --merge-cells cell results
// (default 10k) across --merge-shards shard files (default 16), then
// reports shard write, load+merge wall time, and peak RSS, asserting
// the merged digest matches the directly-assembled campaign's.
//
// Flags: --threads=N  --seeds=K  --csv=path  --full  --cache-dir=path
//        --merge-cells=N  --merge-shards=K
#include <filesystem>
#include <iostream>
#include <memory>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "cache/result_cache.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/policy_search.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "methods/builtin.hpp"
#include "methods/registry.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "scenario/scenario.hpp"
#include "soc/decision.hpp"

namespace {

using namespace parmis;

/// Intra-cell probe: one PaRMIS run on the 12-app global scenario with
/// the evaluator and the acquisition's front sampler wired through a
/// pool of `threads`, returning (wall seconds, PHV of the final front).
std::pair<double, double> intra_cell_run(std::size_t threads) {
  exec::ThreadPool pool(threads);
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-all12-te");
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  runtime::EvaluatorConfig eval_config = scenario::make_evaluator_config(spec);
  eval_config.pool = &pool;

  core::DrmPolicyProblem problem(platform, scenario::make_applications(spec),
                                 scenario::make_objectives(spec), {},
                                 eval_config);
  core::ParmisConfig config = spec.parmis;
  config.pool = &pool;
  auto anchors = problem.anchor_thetas();
  anchors.resize(3);
  config.initial_thetas = std::move(anchors);
  core::Parmis parmis(problem.evaluation_fn(), problem.theta_dim(),
                      problem.num_objectives(), config);
  const Stopwatch wall;
  const core::ParmisResult result = parmis.run();
  return {wall.seconds(),
          result.phv_history.empty() ? 0.0 : result.phv_history.back()};
}

/// One tiny time/energy scenario per platform variant, its method list
/// drawn live from the registry (every method whose capabilities admit
/// the scenario's objectives and the platform's decision space).
exec::CampaignConfig registry_matrix_campaign(std::size_t threads) {
  exec::CampaignConfig config;
  for (const std::string platform :
       {"exynos5422", "manycore16", "mobile3"}) {
    scenario::ScenarioSpec spec =
        scenario::make_scenario("xu3-synthetic-te");
    spec.name = "matrix-" + platform;
    spec.platform = platform;
    spec.generated->num_apps = 2;
    spec.methods.clear();
    const std::size_t space =
        soc::DecisionSpace(soc::SocSpec::by_name(platform)).size();
    const methods::MethodRegistry& registry =
        methods::MethodRegistry::instance();
    for (const auto& name : registry.names()) {
      const methods::MethodCapabilities caps =
          registry.get(name).capabilities();
      if (!caps.supports_all(spec.objectives)) continue;
      if (caps.max_decision_space != 0 &&
          space > caps.max_decision_space) {
        continue;
      }
      spec.methods.push_back(name);
    }
    config.scenarios.push_back(std::move(spec));
  }
  // Tiny learned-baseline budgets so the matrix stays a probe.
  auto rl = std::make_shared<methods::RlMethodConfig>();
  rl->grid_divisions = 2;
  rl->episodes = 4;
  auto il = std::make_shared<methods::IlMethodConfig>();
  il->grid_divisions = 2;
  il->dagger_rounds = 0;
  il->training_passes = 4;
  auto dypo = std::make_shared<methods::DypoMethodConfig>();
  dypo->grid_divisions = 2;
  dypo->num_clusters = 2;
  config.method_configs.set("rl", rl);
  config.method_configs.set("il", il);
  config.method_configs.set("dypo", dypo);
  config.anchor_limit = 1;
  config.num_threads = threads;
  return config;
}

/// Peak resident set size in MiB (0 when the platform has no getrusage).
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
  }
#endif
  return 0.0;
}

/// Merge-scale probe: synthetic cells sliced into shard files on disk,
/// then loaded and merged back.  Returns false on a digest mismatch.
bool merge_scale_probe(std::size_t total_cells, std::size_t num_shards) {
  // Synthesize the full campaign's ordered cell list: plausible 2-D
  // fronts, a handful of scenarios/methods so the global-reference PHV
  // recomputation does real grouping work.
  constexpr std::size_t kScenarios = 4, kMethods = 5;
  exec::CampaignReport full;
  full.shard = exec::ShardSpec{0, 1};
  full.campaign_hash = 0x4D45524745ULL;  // arbitrary shared identity
  full.total_cells = total_cells;
  full.num_threads = 1;
  for (std::size_t i = 0; i < total_cells; ++i) {
    Rng rng(0x9E3779B9ULL + i);
    exec::CellResult cell;
    cell.scenario =
        "merge-scale-" + std::to_string(i % kScenarios);
    cell.platform = "synthetic";
    cell.method = "method-" + std::to_string((i / kScenarios) % kMethods);
    cell.seed = 1 + i / (kScenarios * kMethods);
    cell.objective_names = {"time", "energy"};
    cell.num_apps = 2;
    cell.evaluations = 8;
    const std::size_t points = 4 + rng.uniform_index(8);
    for (std::size_t p = 0; p < points; ++p) {
      const double t = rng.uniform();
      cell.front.push_back({t, 1.0 - t + 0.05 * rng.uniform()});
    }
    cell.best_raw = {cell.front[0][0], cell.front[0][1]};
    full.cells.push_back(std::move(cell));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "parmis_merge_bench";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Slice into shard files exactly like N independent runners would.
  const Stopwatch write_wall;
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < num_shards; ++s) {
    exec::CampaignReport shard;
    shard.campaign_hash = full.campaign_hash;
    shard.total_cells = total_cells;
    shard.shard = exec::ShardSpec{s, num_shards};
    const auto [begin, end] = exec::shard_range(total_cells, shard.shard);
    shard.cells.assign(full.cells.begin() + begin,
                       full.cells.begin() + end);
    paths.push_back((dir / ("shard_" + std::to_string(s) + ".json"))
                        .string());
    report::save_report(paths.back(), shard);
  }
  const double write_s = write_wall.seconds();
  std::uintmax_t bytes = 0;
  for (const auto& p : paths) bytes += std::filesystem::file_size(p);

  const Stopwatch merge_wall;
  std::vector<exec::CampaignReport> shards;
  shards.reserve(paths.size());
  for (const auto& p : paths) shards.push_back(report::load_report(p));
  const exec::CampaignReport merged = report::merge(std::move(shards));
  const double merge_s = merge_wall.seconds();

  // The digest excludes PHV, so the globally-recomputed PHV doubles
  // are compared explicitly against a direct aggregation of the full
  // cell list.
  report::assign_global_phv(full);
  bool ok = merged.objectives_digest() == full.objectives_digest() &&
            merged.cells.size() == full.cells.size();
  for (std::size_t i = 0; ok && i < full.cells.size(); ++i) {
    ok = merged.cells[i].phv == full.cells[i].phv;
  }
  std::cout << "\nmerge scale: " << total_cells << " cells / "
            << num_shards << " shards (" << bytes / (1024 * 1024)
            << " MiB), write " << format_double(write_s, 3)
            << " s, load+merge " << format_double(merge_s, 3) << " s ("
            << format_double(static_cast<double>(total_cells) / merge_s, 0)
            << " cells/s), peak RSS " << format_double(peak_rss_mib(), 1)
            << " MiB, digest match: " << (ok ? "bitwise" : "MISMATCH")
            << "\n";
  std::filesystem::remove_all(dir);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const std::size_t threads = static_cast<std::size_t>(
      args.get_int("threads", static_cast<int>(exec::default_num_threads())));

  exec::CampaignConfig config;
  config.scenarios = scenario::all_scenarios();
  if (full_scale_requested(args)) {
    for (auto& s : config.scenarios) {
      s.parmis = scenario::campaign_parmis_budget(true);
    }
  }
  config.seeds_per_cell = static_cast<std::size_t>(args.get_int("seeds", 1));

  std::cout << "campaign suite: " << config.scenarios.size()
            << " scenarios, " << config.seeds_per_cell
            << " seed(s) per cell\n\n";

  config.num_threads = 1;
  exec::CampaignReport reference = exec::CampaignRunner(config).run();
  config.num_threads = threads;
  exec::CampaignReport parallel = exec::CampaignRunner(config).run();

  const bool identical =
      reference.objectives_digest() == parallel.objectives_digest();

  // Per-scenario PHV by method (seed 0 of each cell).
  Table phv_table({"scenario", "method", "phv", "front", "wall_s"});
  for (const auto& cell : parallel.cells) {
    if (cell.seed != 1) continue;
    phv_table.begin_row()
        .add(cell.scenario)
        .add(cell.method)
        .add(cell.phv, 4)
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.wall_s, 3);
  }
  phv_table.print(std::cout);
  if (args.has("csv")) parallel.save_csv(args.get("csv", "campaign.csv"));

  std::cout << "\ndeterminism: "
            << (identical ? "bitwise-identical objectives at 1 vs "
                          : "DIGEST MISMATCH at 1 vs ")
            << threads << " threads\n"
            << "campaign wall: 1 thread "
            << format_double(reference.wall_s, 3) << " s, " << threads
            << " threads " << format_double(parallel.wall_s, 3)
            << " s, speedup "
            << format_double(parallel.wall_s > 0.0
                                 ? reference.wall_s / parallel.wall_s
                                 : 0.0,
                             2)
            << "x\n";

  bool cache_ok = true;
  if (args.has("cache-dir")) {
    // Cache-effectiveness probe: populate from the parallel run's
    // cells, then replay the whole suite from disk.
    cache::ResultCache cache(args.get("cache-dir", ".parmis-cache"));
    config.cache = &cache;
    const Stopwatch populate_wall;
    const exec::CampaignReport populated = exec::CampaignRunner(config).run();
    const double populate_s = populate_wall.seconds();
    const Stopwatch replay_wall;
    exec::CampaignReport replayed = exec::CampaignRunner(config).run();
    const double replay_s = replay_wall.seconds();
    config.cache = nullptr;
    cache_ok = replayed.cache_hits == replayed.cells.size() &&
               replayed.objectives_digest() == parallel.objectives_digest();
    // A reused --cache-dir serves part of the populate pass from prior
    // entries; report its hit count so the compute time is read
    // honestly (cold compute only when pre-cached is 0).
    std::cout << "\ncache: " << cache.num_entries() << " entries ("
              << cache.total_bytes() << " bytes), replay "
              << replayed.cache_hits << "/" << replayed.cells.size()
              << " hits, compute " << format_double(populate_s, 3) << " s ("
              << populated.cache_hits << " pre-cached) vs replay "
              << format_double(replay_s, 3)
              << " s, digest match: " << (cache_ok ? "bitwise" : "MISMATCH")
              << "\n";
  }

  // Registry-driven method matrix: every registered method that fits.
  const exec::CampaignReport matrix_serial =
      exec::CampaignRunner(registry_matrix_campaign(1)).run();
  const exec::CampaignReport matrix_parallel =
      exec::CampaignRunner(registry_matrix_campaign(threads)).run();
  // Pass requires every cell to succeed AND digest equality — a method
  // that deterministically errors would otherwise match its own broken
  // digest at both thread counts and slip through.
  bool matrix_ok = matrix_serial.objectives_digest() ==
                   matrix_parallel.objectives_digest();
  for (const auto& cell : matrix_parallel.cells) {
    matrix_ok = matrix_ok && cell.error.empty();
  }
  Table matrix_table({"scenario", "method", "phv", "front", "wall_s"});
  for (const auto& cell : matrix_parallel.cells) {
    matrix_table.begin_row()
        .add(cell.scenario)
        .add(cell.error.empty() ? cell.method : cell.method + " FAILED")
        .add(cell.phv, 4)
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.wall_s, 3);
  }
  std::cout << "\nmethod matrix ("
            << methods::MethodRegistry::instance().names().size()
            << " registered methods, capability-filtered per platform):\n";
  matrix_table.print(std::cout);
  std::cout << "matrix determinism: "
            << (matrix_ok ? "bitwise-identical objectives"
                          : "DIGEST MISMATCH")
            << " at 1 vs " << threads << " threads, "
            << matrix_parallel.cells.size() << " cells in "
            << format_double(matrix_parallel.wall_s, 3) << " s\n";

  const bool merge_ok = merge_scale_probe(
      static_cast<std::size_t>(args.get_int("merge-cells", 10000)),
      static_cast<std::size_t>(args.get_int("merge-shards", 16)));

  const auto [serial_s, serial_phv] = intra_cell_run(1);
  const auto [pooled_s, pooled_phv] = intra_cell_run(threads);
  std::cout << "intra-cell (12-app global, pooled evaluator + acquisition): "
            << "1 thread " << format_double(serial_s, 3) << " s, " << threads
            << " threads " << format_double(pooled_s, 3) << " s, speedup "
            << format_double(pooled_s > 0.0 ? serial_s / pooled_s : 0.0, 2)
            << "x, PHV match: "
            << (serial_phv == pooled_phv ? "bitwise" : "MISMATCH") << "\n";

  return identical && cache_ok && matrix_ok && merge_ok &&
                 serial_phv == pooled_phv
             ? 0
             : 1;
}
