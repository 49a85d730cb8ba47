// The benchmark's three workloads and the checks and metrics of one
// run. See README.md in this directory for why each workload exists
// and what every metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;   ///< physics-comb | yelp-agg | photo-dse
  std::uint64_t seed = 42;
  double seconds = 10.0;  ///< length of the timed loop (untraced runs)
  unsigned workers = 1;   ///< sweep worker threads (photo-dse)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run: what was checked, what failed, what was measured.
struct RunResult {
  std::uint64_t attempted = 0;  ///< simulated runs checked
  std::uint64_t failed = 0;     ///< of those, runs failing any check
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  /// Counts one simulated run; `problem` empty means it passed.
  void check(const std::string& problem);
  void add(std::string name, double value, std::string unit);
};

bool is_workload(const std::string& name);

/// End-to-end metrics, tracing off: repeated set-up, then repeated
/// simulation calls for `seconds`, reporting the median set-up and the
/// fastest calls.
RunResult run_untraced(const RunOptions& options);

/// Per-layer metrics: one set-up and one pass of the workload with a
/// span around every library call, recorded into `tracer`.
RunResult run_traced(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
