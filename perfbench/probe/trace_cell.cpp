// trace-cell: the cell-full layer probe.
//
//   trace-cell <plan.json>
//
// The plan holds one scenario with method parmis (the same file the
// end-to-end run hands to `campaign`).  The cell runs in-process through
// CampaignRunner::run_cell under the "parmis-traced" method, which
// builds the problem exactly as the built-in parmis method does but
// wraps the evaluation function and times initialize() and every
// step().  Its digest, PHV and evaluation count are printed so the
// caller can require them to equal the CLI's.
//
// After the cell, the library calls one step makes are replayed on the
// evaluations Parmis had at iterations 0, 50 and 99 (n = 12, 62 and 111
// at --full): GP fit and hyperparameter search, posterior RFF draws and
// their evaluation, the NSGA-II front sampling over those draws, the
// acquisition constructor, batched scoring of an acq_pool_size pool,
// the refinement's single-point scores, predict_many, and the
// hypervolume of the front so far.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/acquisition.hpp"
#include "exec/campaign.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/rff.hpp"
#include "moo/hypervolume.hpp"
#include "moo/nsga2.hpp"
#include "report/merge.hpp"
#include "scenario/scenario.hpp"
#include "serde/plan.hpp"

#include "probe.hpp"
#include "traced_parmis.hpp"

namespace perfbench {

namespace {

using parmis::json::Value;
namespace num = parmis::num;

/// Timings of the replayed library calls, pooled over the snapshots.
struct Replay {
  Series rff_sample, rff_eval, nsga2, acq_build,
      score, refine, predict_many, hypervolume;
  double nsga2_fn_ns = 0.0;
  double rff_calls_per_acq = 0.0;
  std::size_t pool_size = 0;
};

void replay_snapshot(const parmis::core::ParmisResult& snap,
                     const parmis::core::ParmisConfig& config,
                     std::uint64_t seed, Replay& replay,
                     Series& set_data_n, Series& hyperopt_n) {
  const std::size_t n = snap.thetas.size();
  const std::size_t d = snap.thetas.front().size();
  const std::size_t k = snap.objectives.front().size();
  const num::Vec lower(d, -config.theta_bound);
  const num::Vec upper(d, config.theta_bound);
  parmis::Rng rng(seed);

  num::Matrix X(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) X(r, c) = snap.thetas[r][c];
  }
  // Same kernel, initial lengthscale and noise as Parmis's own models.
  const double init_lengthscale =
      std::sqrt(static_cast<double>(d)) * config.theta_bound * 0.5;
  std::vector<parmis::gp::GpRegressor> models;
  for (std::size_t j = 0; j < k; ++j) {
    models.emplace_back(
        parmis::gp::make_kernel(config.kernel, init_lengthscale),
        config.noise_variance);
    num::Vec y(n);
    for (std::size_t r = 0; r < n; ++r) y[r] = snap.objectives[r][j];
    timed(set_data_n, [&] { models[j].set_data(X, std::move(y)); });
    parmis::Rng hyper_rng = rng.split();
    timed(hyperopt_n, [&] {
      models[j].optimize_hyperparameters(
          hyper_rng, static_cast<int>(config.hyperopt_candidates));
    });
  }

  const auto random_theta = [&] {
    num::Vec theta(d);
    for (auto& v : theta) v = rng.uniform(lower[0], upper[0]);
    return theta;
  };

  // Posterior draws, then the front sampler over them.
  std::vector<parmis::gp::SampledFunction> draws;
  for (const auto& m : models) {
    draws.push_back(timed(replay.rff_sample, [&] {
      return parmis::gp::sample_posterior_function(
          m, rng, config.acquisition.rff_features);
    }));
  }
  std::vector<num::Vec> probes(256);
  for (auto& p : probes) p = random_theta();
  double sink = 0.0;
  for (const auto& f : draws) {
    const std::uint64_t t0 = now_ns();
    for (const auto& p : probes) sink += f(p);
    replay.rff_eval.add((now_ns() - t0) / probes.size());
  }
  std::uint64_t fn_ns = 0;
  std::size_t fn_calls = 0;
  const parmis::moo::MultiObjectiveFn fn = [&](const num::Vec& theta) {
    const std::uint64_t t0 = now_ns();
    num::Vec o(draws.size());
    for (std::size_t j = 0; j < draws.size(); ++j) o[j] = draws[j](theta);
    fn_ns += now_ns() - t0;
    ++fn_calls;
    return o;
  };
  parmis::moo::Nsga2Config nsga = config.acquisition.front_sampler;
  nsga.seed = rng.next_u64();
  const parmis::moo::Nsga2Result front = timed(replay.nsga2, [&] {
    return parmis::moo::nsga2_minimize(fn, lower, upper, nsga);
  });
  parmis::require(!front.pareto_set.empty(), "trace-cell: empty front");
  replay.nsga2_fn_ns += static_cast<double>(fn_ns);
  replay.rff_calls_per_acq = static_cast<double>(
      fn_calls * k * config.acquisition.num_mc_samples);

  // The acquisition the step builds and the pool it scores.
  parmis::Rng acq_rng = rng.split();
  const parmis::core::InformationGainAcquisition acq =
      timed(replay.acq_build, [&] {
        return parmis::core::InformationGainAcquisition(
            models, lower, upper, config.acquisition, acq_rng);
      });
  std::vector<num::Vec> pool(config.acq_pool_size);
  for (auto& p : pool) p = random_theta();
  replay.pool_size = pool.size();
  const std::vector<double> scores =
      timed(replay.score, [&] { return acq.values(pool); });
  timed(replay.refine, [&] {
    for (std::size_t s = 0; s < config.acq_refine_steps; ++s) {
      sink += acq.value(pool[s % pool.size()]);
    }
  });
  num::Matrix queries(pool.size(), d);
  for (std::size_t r = 0; r < pool.size(); ++r) {
    for (std::size_t c = 0; c < d; ++c) queries(r, c) = pool[r][c];
  }
  for (const auto& m : models) {
    const parmis::gp::BatchPrediction p =
        timed(replay.predict_many, [&] { return m.predict_many(queries); });
    sink += p.mean[0];
  }

  const num::Vec ref =
      parmis::moo::default_reference_point(snap.objectives, 0.5);
  for (int rep = 0; rep < 50; ++rep) {
    sink += timed(replay.hypervolume, [&] {
      return parmis::moo::hypervolume(snap.objectives, ref);
    });
  }
  parmis::require(std::isfinite(sink) && !scores.empty(),
                  "trace-cell: non-finite replay result");
}

}  // namespace

int trace_cell_main(const std::vector<std::string>& args) {
  parmis::require(args.size() == 1, "usage: trace-cell <plan.json>");
  const parmis::serde::CampaignPlan plan = parmis::serde::load_plan(args[0]);
  const parmis::exec::CampaignConfig config =
      parmis::serde::to_campaign_config(plan, parmis::serde::ScenarioCatalogue());
  parmis::require(config.scenarios.size() == 1 &&
                      config.scenarios[0].methods ==
                          std::vector<std::string>{"parmis"} &&
                      config.seeds_per_cell == 1,
                  "trace-cell: the plan must hold one parmis cell");
  const parmis::scenario::ScenarioSpec& spec = config.scenarios[0];
  const std::size_t iterations = spec.parmis.max_iterations;
  parmis::require(iterations >= 1, "trace-cell: no iterations");

  CellTrace trace;
  trace.snapshot_iterations = {0, iterations / 2, iterations - 1};
  const std::uint64_t t0 = now_ns();
  parmis::exec::CellResult cell;
  {
    const ScopedCellTrace scope(&trace);
    cell = parmis::exec::CampaignRunner::run_cell(
        spec, kTracedParmis, config.base_seed, config.anchor_limit);
  }
  const double cell_s = (now_ns() - t0) / 1e9;
  parmis::require(cell.error.empty(), "trace-cell: cell failed: " + cell.error);

  // The digest and PHV the CLI reports for the same one-cell campaign.
  cell.method = "parmis";
  parmis::exec::CampaignReport report;
  report.cells.push_back(cell);
  parmis::report::assign_global_phv(report);

  Replay replay;
  Series set_data[3], hyperopt[3];
  for (std::size_t s = 0; s < trace.snapshots.size(); ++s) {
    replay_snapshot(trace.snapshots[s], spec.parmis,
                    config.base_seed ^ (0x5EEDULL + s), replay, set_data[s],
                    hyperopt[s]);
  }

  Output out;
  out.metric("core.cell_initialize_ms", trace.initialize.mean_ns() / 1e6);
  out.metric("core.cell_step_ms", trace.step.mean_ns() / 1e6);
  out.metric("soc.cell_evaluate_share",
             trace.evaluate.total_ns() / (cell_s * 1e9));
  out.metric("moo.nsga2_ms", replay.nsga2.mean_ns() / 1e6);
  out.metric("moo.nsga2_fn_share", replay.nsga2_fn_ns / replay.nsga2.total_ns());
  out.metric("moo.nsga2_step_share",
             replay.nsga2.mean_ns() / trace.step.mean_ns());
  out.metric("gp.rff_eval_us", replay.rff_eval.mean_ns() / 1e3);
  out.metric("gp.rff_evals_per_acq", replay.rff_calls_per_acq);
  out.metric("gp.rff_sample_ms", replay.rff_sample.mean_ns() / 1e6);
  out.metric("core.acq_build_ms", replay.acq_build.mean_ns() / 1e6);
  out.metric("core.acq_score_us_per_candidate",
             replay.score.mean_ns() / 1e3 / replay.pool_size);
  out.metric("core.acq_refine_us", replay.refine.mean_ns() / 1e3);
  out.metric("gp.predict_many_us_per_point",
             replay.predict_many.mean_ns() / 1e3 / replay.pool_size);
  for (std::size_t s = 0; s < trace.snapshots.size(); ++s) {
    const std::string n = std::to_string(trace.snapshots[s].thetas.size());
    out.metric("gp.set_data_ms.n" + n, set_data[s].mean_ns() / 1e6);
    out.metric("gp.hyperopt_ms.n" + n, hyperopt[s].mean_ns() / 1e6);
  }
  out.metric("moo.hypervolume_us", replay.hypervolume.mean_ns() / 1e3);

  out.info("digest", Value::string(parmis::hex64(report.objectives_digest())));
  out.info("phv", Value::number(report.cells[0].phv));
  out.info("evaluations", Value::number(static_cast<double>(cell.evaluations)));
  out.info("cell_s", Value::number(cell_s));
  out.info("objectives",
           Value::number(static_cast<double>(cell.objective_names.size())));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
