// hymm_diff root-cause engine acceptance suite (obs/diff.hpp): report
// normalization across the supported schemas, the exact-attribution
// guarantee (rows sum to the cycle delta with no residual), and the
// headline acceptance criterion — an injected single-bucket stall
// delta is attributed to the right (phase, bucket) with >= 90% share.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace hymm {
namespace {

// A minimal hymm-bench/2 snapshot: one CR/HyMM run whose phase stall
// vectors are fully spelled out so tests can inject precise deltas.
std::string bench2_snapshot(double agg_dram_latency,
                            double comb_compute = 90000.0,
                            double skipped = 120000.0,
                            double wall_ms = 10.0) {
  std::ostringstream oss;
  oss << R"({
  "schema": "hymm-bench/2",
  "rev": "test",
  "runs": [
    {
      "abbrev": "CR",
      "flow": "HyMM",
      "cycles": )"
      << (comb_compute + 10000.0 + agg_dram_latency + 42000.0 + 8000.0)
      << R"(,
      "sim_wall_ms": )"
      << wall_ms << R"(,
      "skipped_cycles": )"
      << skipped << R"(,
      "combination": {
        "cycles": )"
      << (comb_compute + 10000.0) << R"(,
        "stalls": { "compute": )"
      << comb_compute << R"(, "smq_backlog": 10000 }
      },
      "aggregation": {
        "cycles": )"
      << (agg_dram_latency + 42000.0 + 8000.0) << R"(,
        "stalls": {
          "compute": 42000,
          "dram_latency": )"
      << agg_dram_latency << R"(,
          "merge_rmw": 8000
        }
      }
    }
  ]
})";
  return oss.str();
}

ReportSnapshot parse_snapshot(const std::string& text) {
  const std::optional<JsonValue> doc = json_parse(text);
  EXPECT_TRUE(doc.has_value());
  std::string error;
  const std::optional<ReportSnapshot> report =
      normalize_report(*doc, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

TEST(DiffNormalize, Bench2PhasesCarryStallVectors) {
  const ReportSnapshot report = parse_snapshot(bench2_snapshot(30000.0));
  EXPECT_EQ(report.kind, "bench");
  EXPECT_EQ(report.schema, "hymm-bench/2");
  ASSERT_EQ(report.runs.size(), 1u);
  const RunSnapshot& run = report.runs[0];
  EXPECT_EQ(run.abbrev, "CR");
  EXPECT_EQ(run.flow, "HyMM");
  EXPECT_DOUBLE_EQ(run.skipped_cycles, 120000.0);
  ASSERT_EQ(run.phases.size(), 2u);
  EXPECT_EQ(run.phases[0].name, "combination");
  // Phase cycles are the stall-bucket sum (the accounting invariant).
  EXPECT_DOUBLE_EQ(run.phases[0].cycles, 100000.0);
  EXPECT_EQ(run.phases[1].name, "aggregation");
  EXPECT_DOUBLE_EQ(run.phases[1].stalls.at("dram_latency"), 30000.0);
}

TEST(DiffNormalize, Bench1FallsBackToTotalPhase) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-bench/1",
    "runs": [
      { "abbrev": "CR", "flow": "RWP", "cycles": 500,
        "stalls": { "compute": 300, "dram_latency": 200 } }
    ]
  })");
  ASSERT_EQ(report.runs.size(), 1u);
  ASSERT_EQ(report.runs[0].phases.size(), 1u);
  EXPECT_EQ(report.runs[0].phases[0].name, "total");
  EXPECT_DOUBLE_EQ(report.runs[0].phases[0].cycles, 500.0);
}

TEST(DiffNormalize, RunReportHybridRegionsReplaceAggregation) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-run-report/8",
    "results": [
      {
        "dataset": "Cora", "abbrev": "CR", "scale": 1, "flow": "HyMM",
        "cycles": 1000, "verified": true, "sampled": false,
        "stats": { "skipped_cycles": 640,
                   "stalls": { "compute": 1000 } },
        "combination": { "stalls": { "compute": 400 } },
        "aggregation": { "stalls": { "compute": 600 } },
        "regions": [
          { "stalls": { "compute": 250 } },
          { "stalls": { "compute": 350 } }
        ]
      }
    ]
  })");
  EXPECT_EQ(report.kind, "run-report");
  ASSERT_EQ(report.runs.size(), 1u);
  const RunSnapshot& run = report.runs[0];
  EXPECT_DOUBLE_EQ(run.skipped_cycles, 640.0);
  // combination + region1 + region2; the whole-phase aggregation row
  // is replaced by its exact per-region split.
  ASSERT_EQ(run.phases.size(), 3u);
  EXPECT_EQ(run.phases[1].name, "region1");
  EXPECT_EQ(run.phases[2].name, "region2");
  EXPECT_DOUBLE_EQ(run.phases[1].cycles + run.phases[2].cycles, 600.0);
}

// A minimal hymm-run-report/8 report: one CR/HyMM run with a 2x2
// spatial grid whose per-cell cycles the tests can vary.
std::string report_with_spatial(double cell0_cycles,
                                double cell3_cycles = 100.0) {
  std::ostringstream oss;
  oss << R"({
    "schema": "hymm-run-report/8",
    "results": [
      {
        "dataset": "Cora", "abbrev": "CR", "scale": 1, "flow": "HyMM",
        "cycles": 1000, "verified": true, "sampled": false,
        "stats": { "skipped_cycles": 0,
                   "stalls": { "compute": 1000 } },
        "combination": { "stalls": { "compute": 400 } },
        "aggregation": { "stalls": { "compute": 600 } },
        "spatial": {
          "nodes": 100, "tile": 50, "grid_rows": 2, "grid_cols": 2,
          "regions": {
            "op": { "nnz": [1, 0, 0, 0], "macs": [1, 0, 0, 0],
                    "dmb_hits": [0, 0, 0, 0], "dmb_misses": [1, 0, 0, 0],
                    "cycles": [)"
      << cell0_cycles << R"(, 0, 0, 0],
                    "dram_bytes": [64, 0, 0, 0] },
            "rwp": { "nnz": [0, 0, 0, 2], "macs": [0, 0, 0, 2],
                     "dmb_hits": [0, 0, 0, 0], "dmb_misses": [0, 0, 0, 2],
                     "cycles": [0, 0, 0, )"
      << cell3_cycles << R"(],
                     "dram_bytes": [0, 0, 0, 128] }
          },
          "residual": { "cycles": 0, "dram_bytes": 0, "dmb_hits": 0,
                        "dmb_misses": 0 },
          "pe": { "busy_cycles": [1, 2], "mac_ops": [1, 2],
                  "array_busy_cycles": 3 },
          "imbalance": {
            "pe_busy": { "count": 2, "mean": 1.5, "max": 2,
                         "max_over_mean": 1.333, "cov": 0.333,
                         "gini": 0.167 },
            "row_band_cycles": { "count": 2, "mean": 500, "max": 900,
                                 "max_over_mean": 1.8, "cov": 0.8,
                                 "gini": 0.4 }
          }
        }
      }
    ]
  })";
  return oss.str();
}

TEST(DiffNormalize, RunReportSpatialBecomesARegionSummedTileGrid) {
  const ReportSnapshot report =
      parse_snapshot(report_with_spatial(900.0));
  ASSERT_EQ(report.runs.size(), 1u);
  const TileGrid& tiles = report.runs[0].tiles;
  ASSERT_FALSE(tiles.empty());
  EXPECT_EQ(tiles.rows, 2u);
  EXPECT_EQ(tiles.cols, 2u);
  EXPECT_DOUBLE_EQ(tiles.tile, 50.0);
  // Cells sum across the op and rwp regions.
  ASSERT_EQ(tiles.cycles.size(), 4u);
  EXPECT_DOUBLE_EQ(tiles.cycles[0], 900.0);
  EXPECT_DOUBLE_EQ(tiles.cycles[3], 100.0);
  EXPECT_DOUBLE_EQ(tiles.dram_bytes[0], 64.0);
  EXPECT_DOUBLE_EQ(tiles.dram_bytes[3], 128.0);
}

TEST(DiffNormalize, RunReportWithoutSpatialHasEmptyTiles) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-run-report/8",
    "results": [
      { "dataset": "Cora", "abbrev": "CR", "scale": 1, "flow": "RWP",
        "cycles": 500, "verified": true, "sampled": false,
        "stats": { "stalls": { "compute": 500 } } }
    ]
  })");
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_TRUE(report.runs[0].tiles.empty());
}

TEST(DiffReports, RanksTileDeltasWhenGeometriesMatch) {
  const ReportSnapshot base = parse_snapshot(report_with_spatial(900.0));
  const ReportSnapshot current =
      parse_snapshot(report_with_spatial(600.0, 400.0));
  const std::vector<RunDiff> diffs = diff_reports(base, current);
  ASSERT_EQ(diffs.size(), 1u);
  ASSERT_EQ(diffs[0].tile_rows.size(), 2u);
  // Largest |cycle delta| first: tile (0,0) moved -300, (1,1) +300.
  EXPECT_EQ(diffs[0].tile_rows[0].row, 0u);
  EXPECT_EQ(diffs[0].tile_rows[0].col, 0u);
  EXPECT_DOUBLE_EQ(diffs[0].tile_rows[0].cycle_delta, -300.0);
  EXPECT_EQ(diffs[0].tile_rows[1].row, 1u);
  EXPECT_EQ(diffs[0].tile_rows[1].col, 1u);
  EXPECT_DOUBLE_EQ(diffs[0].tile_rows[1].cycle_delta, 300.0);
}

TEST(DiffReports, SkipsTileDeltasWhenOneSideLacksSpatial) {
  const ReportSnapshot base = parse_snapshot(report_with_spatial(900.0));
  ReportSnapshot current = base;
  current.runs[0].tiles = TileGrid{};
  EXPECT_TRUE(diff_reports(current, base)[0].tile_rows.empty());
}

TEST(DiffPrint, RendersTileDeltaTable) {
  const ReportSnapshot base = parse_snapshot(report_with_spatial(900.0));
  const ReportSnapshot current =
      parse_snapshot(report_with_spatial(600.0, 400.0));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("spatial tiles"), std::string::npos) << text;
  EXPECT_NE(text.find("(0,0)"), std::string::npos) << text;
  EXPECT_NE(text.find("(1,1)"), std::string::npos) << text;
}

TEST(DiffNormalize, RejectsUnsupportedSchema) {
  const std::optional<JsonValue> doc =
      json_parse(R"({ "schema": "hymm-bench/99", "runs": [] })");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_FALSE(normalize_report(*doc, &error).has_value());
  EXPECT_NE(error.find("hymm-bench/99"), std::string::npos);

  // Run reports older than /8 have no writer left and are refused.
  const std::optional<JsonValue> old_report =
      json_parse(R"({ "schema": "hymm-run-report/7", "results": [] })");
  ASSERT_TRUE(old_report.has_value());
  EXPECT_FALSE(normalize_report(*old_report, &error).has_value());
  EXPECT_NE(error.find("hymm-run-report/7"), std::string::npos);
}

// The acceptance criterion: inject a 30000-cycle regression into one
// (phase, bucket) cell and require the diff to rank that cell first
// with >= 90% of the delta attributed to it.
TEST(DiffReports, AttributesInjectedStallDeltaToTheRightCell) {
  const ReportSnapshot base = parse_snapshot(
      bench2_snapshot(/*agg_dram_latency=*/30000.0));
  // Candidate: dram_latency regresses by 30000, compute drifts by a
  // comparatively tiny 500, fast-forward skipped less.
  const ReportSnapshot current = parse_snapshot(bench2_snapshot(
      /*agg_dram_latency=*/60000.0, /*comb_compute=*/90500.0,
      /*skipped=*/110000.0, /*wall_ms=*/14.0));

  const std::vector<RunDiff> diffs = diff_reports(base, current);
  ASSERT_EQ(diffs.size(), 1u);
  const RunDiff& diff = diffs[0];
  EXPECT_DOUBLE_EQ(diff.cycle_delta(), 30500.0);
  EXPECT_DOUBLE_EQ(diff.sim_wall_ms_delta, 4.0);
  EXPECT_DOUBLE_EQ(diff.skipped_cycles_delta, -10000.0);

  // Rows sum exactly to the cycle delta: no residual bucket.
  double row_sum = 0.0;
  for (const DiffRow& row : diff.rows) row_sum += row.delta;
  EXPECT_DOUBLE_EQ(row_sum, diff.cycle_delta());

  // Top-ranked row is the injected cell, holding >= 90% of the delta.
  ASSERT_FALSE(diff.rows.empty());
  const DiffRow& top = diff.rows.front();
  EXPECT_EQ(top.phase, "aggregation");
  EXPECT_EQ(top.cause, "dram_latency");
  EXPECT_DOUBLE_EQ(top.delta, 30000.0);
  EXPECT_GE(top.delta / diff.cycle_delta(), 0.9);
}

TEST(DiffReports, SkipsRunsMissingFromOneSide) {
  const ReportSnapshot base = parse_snapshot(bench2_snapshot(30000.0));
  const ReportSnapshot empty = parse_snapshot(
      R"({ "schema": "hymm-bench/2", "runs": [] })");
  EXPECT_TRUE(diff_reports(base, empty).empty());
  EXPECT_TRUE(diff_reports(empty, base).empty());
}

TEST(DiffPrint, RendersRankedTableAndShares) {
  const ReportSnapshot base = parse_snapshot(bench2_snapshot(30000.0));
  const ReportSnapshot current = parse_snapshot(bench2_snapshot(60000.0));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("CR/HyMM"), std::string::npos);
  EXPECT_NE(text.find("dram_latency"), std::string::npos);
  EXPECT_NE(text.find("aggregation"), std::string::npos);
  EXPECT_NE(text.find("30000"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(DiffPrint, ReportsNoCycleDelta) {
  const ReportSnapshot report = parse_snapshot(bench2_snapshot(30000.0));
  std::ostringstream out;
  print_diff(diff_reports(report, report), out);
  EXPECT_NE(out.str().find("no cycle delta"), std::string::npos);
}

TEST(DiffPrint, CapsRowsAndAggregatesTheRest) {
  // Base/current differ in every bucket; max_rows=1 folds the rest
  // into an "(other)" row so the shares still total 100%.
  const ReportSnapshot base = parse_snapshot(bench2_snapshot(
      30000.0, /*comb_compute=*/90000.0));
  const ReportSnapshot current = parse_snapshot(bench2_snapshot(
      60000.0, /*comb_compute=*/95000.0));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out, /*max_rows=*/1);
  const std::string text = out.str();
  EXPECT_NE(text.find("dram_latency"), std::string::npos);
  EXPECT_NE(text.find("(other)"), std::string::npos);
}

}  // namespace
}  // namespace hymm
