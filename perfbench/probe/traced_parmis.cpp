#include "traced_parmis.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "core/policy_search.hpp"
#include "methods/registry.hpp"
#include "runtime/evaluator.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

CellTrace* g_trace = nullptr;

class TracedParmisMethod final : public parmis::methods::Method {
 public:
  std::string name() const override { return kTracedParmis; }
  std::string description() const override {
    return "parmis with benchmark timers around initialize/step/evaluate";
  }

  parmis::methods::MethodOutput run(
      const parmis::methods::CellContext& ctx,
      const parmis::methods::MethodConfig* config) const override {
    parmis::require(config == nullptr && g_trace != nullptr,
                    "parmis-traced: no config and an installed trace");
    CellTrace& trace = *g_trace;
    parmis::core::DrmPolicyProblem problem(ctx.platform, ctx.apps,
                                           ctx.objectives, {},
                                           ctx.eval_config);
    parmis::core::ParmisConfig parmis_config = ctx.spec.parmis;
    parmis_config.seed = ctx.seed;
    std::vector<parmis::num::Vec> anchors = problem.anchor_thetas();
    if (ctx.anchor_limit > 0 && anchors.size() > ctx.anchor_limit) {
      anchors.resize(ctx.anchor_limit);
    }
    parmis_config.initial_thetas = std::move(anchors);
    const parmis::core::EvaluationFn evaluate = problem.evaluation_fn();
    parmis::core::Parmis parmis(
        [&](const parmis::num::Vec& theta) {
          return timed(trace.evaluate, [&] { return evaluate(theta); });
        },
        problem.theta_dim(), ctx.objectives.size(), parmis_config);

    timed(trace.initialize, [&] { parmis.initialize(); });
    for (std::size_t t = 0; t < parmis_config.max_iterations; ++t) {
      if (std::find(trace.snapshot_iterations.begin(),
                    trace.snapshot_iterations.end(),
                    t) != trace.snapshot_iterations.end()) {
        trace.snapshots.push_back(parmis.result());
      }
      timed(trace.step, [&] { parmis.step(); });
    }
    const parmis::core::ParmisResult result = parmis.result();

    parmis::methods::MethodOutput out;
    out.front = result.pareto_front();
    out.evaluations = result.thetas.size();
    out.pareto_thetas = result.pareto_thetas();
    if (!out.pareto_thetas.empty()) {
      // The built-in method's Table II timing run, so the cell does the
      // same work end to end.
      parmis::policy::MlpPolicy deployed =
          problem.make_policy(out.pareto_thetas.front());
      parmis::runtime::EvaluatorConfig timed_config = ctx.eval_config;
      timed_config.measure_decision_overhead = true;
      parmis::runtime::Evaluator evaluator(ctx.platform, timed_config);
      out.decision_overhead_us =
          evaluator.run(deployed, ctx.apps.front()).decision_overhead_us;
    }
    return out;
  }
};

const parmis::methods::MethodRegistrar kRegistrar{
    std::make_unique<TracedParmisMethod>()};

}  // namespace

ScopedCellTrace::ScopedCellTrace(CellTrace* trace) { g_trace = trace; }
ScopedCellTrace::~ScopedCellTrace() { g_trace = nullptr; }

}  // namespace perfbench
