// Shared helpers of the benchmark probe: clocks, sample series, and the
// JSON document every subcommand prints on stdout.
//
// The layer probes time calls into the library's public functions from
// here, outside src/, so the library carries no benchmark spans.
#ifndef PERFBENCH_PROBE_HPP
#define PERFBENCH_PROBE_HPP

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"

namespace perfbench {

inline std::uint64_t now_ns() { return parmis::steady_now_ns(); }

/// The non-empty lines of a request file.
inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  parmis::require(in.good(), "cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// A parmis-serve-v1 reply that succeeded: ok, and no failed batch item
/// ("ok":false cannot occur inside the numbers of a theta array).
inline bool reply_ok(const std::string& line) {
  return line.rfind("{\"ok\":true", 0) == 0 &&
         line.find("\"ok\":false") == std::string::npos;
}

/// Durations of repeated calls to one function, in nanoseconds.
class Series {
 public:
  void add(std::uint64_t ns) { samples_.push_back(static_cast<double>(ns)); }
  std::size_t count() const { return samples_.size(); }
  double total_ns() const {
    double total = 0.0;
    for (double s : samples_) total += s;
    return total;
  }
  double mean_ns() const {
    return samples_.empty() ? 0.0 : total_ns() / samples_.size();
  }
  /// Median (upper middle for even counts); 0 when empty.
  double median_ns() const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    return sorted[sorted.size() / 2];
  }

 private:
  std::vector<double> samples_;
};

/// Times one call and appends its duration to `series`.
template <typename Fn>
auto timed(Series& series, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    series.add(now_ns() - t0);
  } else {
    auto result = fn();
    series.add(now_ns() - t0);
    return result;
  }
}

/// The subcommand's output: {"metrics": {...}, "info": {...}}.
class Output {
 public:
  Output() : metrics_(parmis::json::Value::object()),
             info_(parmis::json::Value::object()) {}
  void metric(const std::string& name, double value) {
    metrics_.set(name, parmis::json::Value::number(value));
  }
  void info(const std::string& name, parmis::json::Value value) {
    info_.set(name, std::move(value));
  }
  std::string dump() const {
    parmis::json::Value doc = parmis::json::Value::object();
    doc.set("metrics", metrics_);
    doc.set("info", info_);
    return parmis::json::dump_compact(doc);
  }

 private:
  parmis::json::Value metrics_;
  parmis::json::Value info_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_HPP
