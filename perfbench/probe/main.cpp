// perfbench_probe — the benchmark's own program: the serve phase's
// load generator and the in-process layer probes.  run.py calls it; see
// perfbench/README.md.
//
//   perfbench_probe build-info
//   perfbench_probe serve-client <socket> <spin: 0|1>
//   perfbench_probe serve-replay <report> <modes> <requests> [reloads]
//   perfbench_probe trace-cell <plan>
//   perfbench_probe trace-campaign <plan> <campaign-bin> <work-dir>
//                                   <workers> <cold-cache> <cold-job-dir>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

namespace perfbench {
int serve_client_main(const std::vector<std::string>& args);
int serve_replay_main(const std::vector<std::string>& args);
int trace_cell_main(const std::vector<std::string>& args);
int trace_campaign_main(const std::vector<std::string>& args);
}  // namespace perfbench

namespace {

int build_info() {
#ifdef PARMIS_OBS_ENABLED
  const bool obs = true;
#else
  const bool obs = false;
#endif
  std::printf(
      "{\"build_type\":\"%s\",\"parmis_obs\":%s,\"parmis_batch_simd\":%s}\n",
      PERFBENCH_BUILD_TYPE, obs ? "true" : "false",
      PERFBENCH_BATCH_SIMD ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const std::vector<std::string> args(argv + (argc > 1 ? 2 : 1), argv + argc);
  try {
    if (command == "build-info") return build_info();
    if (command == "serve-client") return perfbench::serve_client_main(args);
    if (command == "serve-replay") return perfbench::serve_replay_main(args);
    if (command == "trace-cell") return perfbench::trace_cell_main(args);
    if (command == "trace-campaign") {
      return perfbench::trace_campaign_main(args);
    }
    std::fprintf(stderr, "perfbench_probe: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", command.c_str(),
                 e.what());
    return 1;
  }
}
