/// @file
/// Run-diff root-cause analysis (the hymm_diff tool, bench/hymm_diff):
/// loads two run reports — hymm-run-report/8 or hymm-bench/1..3
/// snapshots — pairs their runs by (abbrev, flow) and attributes
/// each pair's cycle delta to (phase-or-region x stall bucket). The
/// per-phase stall vectors sum exactly to the per-phase cycle counts
/// (the simulator's cycle-accounting invariant), so the attribution
/// rows sum exactly to the cycle delta: no residual bucket, no
/// estimate. When both reports carry a "spatial" tile grid of the
/// same geometry, the per-tile cycle deltas are ranked as a second
/// table (where in the adjacency did the cycles move).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hymm {

struct JsonValue;

/// One phase (or hybrid region) of a run with its stall breakdown.
/// `cycles` is the sum of the stall buckets, which per-phase equals
/// the simulated cycle count by the accounting invariant.
struct PhaseBreakdown {
  std::string name;  ///< "combination", "aggregation", "region1", "total"
  double cycles = 0.0;  ///< phase cycle count
  std::map<std::string, double> stalls;  ///< stall-cause key -> cycles
};

/// The run report's "spatial" tile grid reduced to what the diff
/// needs: per-tile cycles and DRAM bytes, summed across the hybrid
/// regions (row-major, rows x cols). Empty (rows == 0) when the run
/// carried no spatial attribution.
struct TileGrid {
  std::size_t rows = 0;  ///< grid rows
  std::size_t cols = 0;  ///< grid columns
  double tile = 0.0;  ///< tile edge in nodes
  std::vector<double> cycles;      ///< per-tile cycles, row-major
  std::vector<double> dram_bytes;  ///< per-tile DRAM bytes, row-major

  bool empty() const { return rows == 0; }  ///< no spatial data
};

/// One (dataset, dataflow) run normalized out of either report kind.
struct RunSnapshot {
  std::string abbrev;  ///< dataset abbreviation
  std::string flow;    ///< dataflow name
  double cycles = 0.0;       ///< total simulated cycles
  double sim_wall_ms = 0.0;  ///< host wall-clock of the simulation
  double skipped_cycles = 0.0;  ///< fast-forwarded cycles
  std::vector<PhaseBreakdown> phases;  ///< per-phase stall breakdowns
  TileGrid tiles;  ///< spatial grid when recorded; empty otherwise
};

/// A parsed + normalized report. `kind` is "run-report" or "bench";
/// diffing requires the same kind on both sides (any supported
/// version).
struct ReportSnapshot {
  std::string schema;  ///< schema string of the source document
  std::string kind;    ///< "run-report" or "bench"
  std::vector<RunSnapshot> runs;  ///< normalized runs
};

/// Normalizes a parsed JSON document. For run reports, a hybrid run's
/// aggregation phase is replaced by its per-region split when regions
/// are present (the regions sum exactly to the aggregation phase); a
/// bench/1 snapshot becomes a single "total" phase. Returns nullopt
/// and fills *error on an unsupported schema or malformed document.
std::optional<ReportSnapshot> normalize_report(const JsonValue& doc,
                                               std::string* error);

/// Convenience: read + parse + normalize a report file.
std::optional<ReportSnapshot> load_report(const std::string& path,
                                          std::string* error);

/// One attribution row of a run pair's diff.
struct DiffRow {
  std::string phase;  ///< phase or region name
  std::string cause;  ///< stall-cause key
  double base = 0.0;     ///< cycles in the base report
  double current = 0.0;  ///< cycles in the current report
  double delta = 0.0;  ///< current - base
};

/// One tile of a run pair's spatial-grid diff.
struct TileDiffRow {
  std::size_t row = 0;  ///< tile-grid row (row-band index)
  std::size_t col = 0;  ///< tile-grid column
  double base_cycles = 0.0;     ///< tile cycles in the base report
  double current_cycles = 0.0;  ///< tile cycles in the current report
  double cycle_delta = 0.0;       ///< current - base
  double dram_bytes_delta = 0.0;  ///< current - base
};

/// The diff of one (abbrev, flow) pair present in both reports.
struct RunDiff {
  std::string abbrev;  ///< dataset abbreviation
  std::string flow;    ///< dataflow name
  double base_cycles = 0.0;     ///< total cycles, base side
  double current_cycles = 0.0;  ///< total cycles, current side
  double sim_wall_ms_delta = 0.0;     ///< wall-clock delta
  double skipped_cycles_delta = 0.0;  ///< fast-forward coverage delta
  std::vector<DiffRow> rows;  ///< ranked by |delta|, largest first
  /// Per-tile cycle deltas, ranked by |delta| largest first. Only
  /// filled when both sides carry a spatial grid of identical
  /// geometry (rows, cols, tile); zero-delta tiles are skipped.
  std::vector<TileDiffRow> tile_rows;

  double cycle_delta() const { return current_cycles - base_cycles; }  ///< current - base
};

/// Pairs runs by (abbrev, flow) and builds the ranked attribution rows
/// for each pair. Runs present in only one report are skipped (the
/// printer reports them).
std::vector<RunDiff> diff_reports(const ReportSnapshot& base,
                                  const ReportSnapshot& current);

/// Prints the ranked root-cause table for every diffed run: one row
/// per (phase, stall cause) with base/current cycles, the delta and
/// its share of the total cycle delta. `max_rows` caps the rows shown
/// per run (0 = all).
void print_diff(const std::vector<RunDiff>& diffs, std::ostream& out,
                std::size_t max_rows = 10);

}  // namespace hymm
