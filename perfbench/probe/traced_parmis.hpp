// The "parmis-traced" campaign method: the built-in parmis method with
// timers around its calls into the core and soc layers.
//
// It builds the DrmPolicyProblem and the Parmis optimizer exactly as
// methods/builtin.cpp's parmis method does (same config, anchors and
// seed), so its cells produce the same fronts and evaluation counts —
// trace-cell checks the digest against the CLI's.  Timings go to the
// CellTrace installed by a ScopedCellTrace; cells must run on the
// installing thread (run_cell directly, or a 1-thread CampaignRunner).
#ifndef PERFBENCH_TRACED_PARMIS_HPP
#define PERFBENCH_TRACED_PARMIS_HPP

#include <cstddef>
#include <vector>

#include "core/parmis.hpp"

#include "probe.hpp"

namespace perfbench {

/// Registry name of the traced method.
inline constexpr const char* kTracedParmis = "parmis-traced";

struct CellTrace {
  Series initialize;  ///< Parmis::initialize(), one sample per cell
  Series step;        ///< Parmis::step(), one sample per iteration
  Series evaluate;    ///< the policy evaluation closure, per call
  /// Iterations before which the optimizer state is snapshotted.
  std::vector<std::size_t> snapshot_iterations;
  std::vector<parmis::core::ParmisResult> snapshots;
};

/// Installs `trace` as the traced method's sink for its lifetime.
class ScopedCellTrace {
 public:
  explicit ScopedCellTrace(CellTrace* trace);
  ~ScopedCellTrace();
  ScopedCellTrace(const ScopedCellTrace&) = delete;
  ScopedCellTrace& operator=(const ScopedCellTrace&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_PARMIS_HPP
