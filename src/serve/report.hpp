/// @file
/// Serving-run report renderers: the stdout summary (throughput,
/// utilization, latency quantiles, class table), the per-request CSV
/// and the hymm-serve-report/2 JSON artifact (docs/schemas.md;
/// validated by scripts/check_schema.py).
#pragma once

#include <iosfwd>

#include "graph/datasets.hpp"
#include "serve/server.hpp"

namespace hymm {

/// Workload identification the writers stamp into every report.
struct ServeReportMeta {
  DatasetSpec spec;    ///< post-scaling dataset the classes were built from
  double scale = 1.0;  ///< applied scale factor
  std::uint64_t seed = 42;  ///< workload + arrival seed
};

/// Human-readable summary: config echo, per-class cost table, queue
/// counters and the p50/p90/p99/max latency block.
void print_serve_summary(const ServeResult& result,
                         const ServeConfig& config,
                         const ServeReportMeta& meta, std::ostream& out);

/// One CSV row per generated request (RFC 4180; dropped requests keep
/// empty timing columns).
void write_serve_csv(const ServeResult& result, std::ostream& out);

/// The hymm-serve-report/2 JSON document: config, classes, summary
/// quantiles, the queue-depth series and every per-request record.
void write_serve_json(const ServeResult& result, const ServeConfig& config,
                      const ServeReportMeta& meta, std::ostream& out);

}  // namespace hymm
