#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace hymm {

namespace {

// Reads a "stalls" object into the map; returns the bucket sum.
double read_stalls(const JsonValue* stalls,
                   std::map<std::string, double>* out) {
  double total = 0.0;
  if (stalls == nullptr || !stalls->is_object()) return total;
  for (const auto& [cause, value] : stalls->object_members) {
    if (!value.is_number()) continue;
    (*out)[cause] = value.number_value;
    total += value.number_value;
  }
  return total;
}

// One phase from an object carrying a "stalls" member (a bench/2
// phase object or a run-report SimStats object). The phase's cycles
// are the stall-bucket sum — exactly the phase's simulated cycles by
// the accounting invariant, which is what makes the attribution rows
// sum exactly to the cycle delta.
PhaseBreakdown read_phase(const std::string& name, const JsonValue& obj) {
  PhaseBreakdown phase;
  phase.name = name;
  phase.cycles = read_stalls(obj.find("stalls"), &phase.stalls);
  return phase;
}

void read_region_phases(const JsonValue* regions, RunSnapshot* run) {
  for (std::size_t i = 0; i < regions->array_items.size(); ++i) {
    run->phases.push_back(read_phase("region" + std::to_string(i + 1),
                                     regions->array_items[i]));
  }
}

// Accumulates one region's per-cell array into `out` (resized to
// `cells` on first use; short or missing arrays contribute zeros).
void accumulate_cells(const JsonValue* arr, std::size_t cells,
                      std::vector<double>* out) {
  if (arr == nullptr || !arr->is_array()) return;
  if (out->size() != cells) out->assign(cells, 0.0);
  const std::size_t n = std::min(cells, arr->array_items.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (arr->array_items[i].is_number()) {
      (*out)[i] += arr->array_items[i].number_value;
    }
  }
}

// The "spatial" object reduced to a region-summed tile grid of
// cycles and DRAM bytes. Malformed geometry yields an empty grid.
TileGrid read_tile_grid(const JsonValue* spatial) {
  TileGrid grid;
  if (spatial == nullptr || !spatial->is_object()) return grid;
  const auto rows = static_cast<std::size_t>(spatial->get_number("grid_rows"));
  const auto cols = static_cast<std::size_t>(spatial->get_number("grid_cols"));
  if (rows == 0 || cols == 0) return grid;
  grid.rows = rows;
  grid.cols = cols;
  grid.tile = spatial->get_number("tile");
  const std::size_t cells = rows * cols;
  grid.cycles.assign(cells, 0.0);
  grid.dram_bytes.assign(cells, 0.0);
  const JsonValue* regions = spatial->find("regions");
  if (regions != nullptr && regions->is_object()) {
    for (const auto& [name, region] : regions->object_members) {
      (void)name;
      if (!region.is_object()) continue;
      accumulate_cells(region.find("cycles"), cells, &grid.cycles);
      accumulate_cells(region.find("dram_bytes"), cells, &grid.dram_bytes);
    }
  }
  return grid;
}

std::optional<ReportSnapshot> normalize_run_report(const JsonValue& doc,
                                                   std::string* error) {
  ReportSnapshot report;
  report.schema = doc.get_string("schema");
  report.kind = "run-report";
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    if (error != nullptr) *error = "run report has no \"results\" array";
    return std::nullopt;
  }
  for (const JsonValue& r : results->array_items) {
    RunSnapshot run;
    run.abbrev = r.get_string("abbrev");
    run.flow = r.get_string("flow");
    run.cycles = r.get_number("cycles");
    run.sim_wall_ms = r.get_number("sim_wall_ms");
    if (const JsonValue* stats = r.find("stats")) {
      run.skipped_cycles = stats->get_number("skipped_cycles");
    }
    if (const JsonValue* combination = r.find("combination")) {
      run.phases.push_back(read_phase("combination", *combination));
    }
    const JsonValue* regions = r.find("regions");
    if (regions != nullptr && regions->is_array() &&
        !regions->array_items.empty()) {
      // The hybrid's regions sum exactly to its aggregation phase;
      // the split is strictly more informative, so it replaces the
      // whole-phase row.
      read_region_phases(regions, &run);
    } else if (const JsonValue* aggregation = r.find("aggregation")) {
      run.phases.push_back(read_phase("aggregation", *aggregation));
    }
    run.tiles = read_tile_grid(r.find("spatial"));
    report.runs.push_back(std::move(run));
  }
  return report;
}

std::optional<ReportSnapshot> normalize_bench(const JsonValue& doc,
                                              std::string* error) {
  ReportSnapshot report;
  report.schema = doc.get_string("schema");
  report.kind = "bench";
  const JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    if (error != nullptr) *error = "bench snapshot has no \"runs\" array";
    return std::nullopt;
  }
  for (const JsonValue& r : runs->array_items) {
    RunSnapshot run;
    run.abbrev = r.get_string("abbrev");
    run.flow = r.get_string("flow");
    run.cycles = r.get_number("cycles");
    run.sim_wall_ms = r.get_number("sim_wall_ms");
    run.skipped_cycles = r.get_number("skipped_cycles");
    const JsonValue* combination = r.find("combination");
    const JsonValue* aggregation = r.find("aggregation");
    if (combination != nullptr || aggregation != nullptr) {
      // hymm-bench/2: per-phase breakdown.
      if (combination != nullptr) {
        run.phases.push_back(read_phase("combination", *combination));
      }
      const JsonValue* regions = r.find("regions");
      if (regions != nullptr && regions->is_array() &&
          !regions->array_items.empty()) {
        read_region_phases(regions, &run);
      } else if (aggregation != nullptr) {
        run.phases.push_back(read_phase("aggregation", *aggregation));
      }
    } else {
      // hymm-bench/1: only the whole-run stall vector exists.
      run.phases.push_back(read_phase("total", r));
    }
    report.runs.push_back(std::move(run));
  }
  return report;
}

}  // namespace

std::optional<ReportSnapshot> normalize_report(const JsonValue& doc,
                                               std::string* error) {
  const std::string schema = doc.get_string("schema");
  if (schema == "hymm-run-report/8") {
    return normalize_run_report(doc, error);
  }
  if (schema == "hymm-bench/1" || schema == "hymm-bench/2" ||
      schema == "hymm-bench/3") {
    return normalize_bench(doc, error);
  }
  if (error != nullptr) {
    *error = "unsupported schema \"" + schema + "\"";
  }
  return std::nullopt;
}

std::optional<ReportSnapshot> load_report(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::optional<JsonValue> doc = json_parse(buffer.str());
  if (!doc.has_value()) {
    if (error != nullptr) *error = path + " is not valid JSON";
    return std::nullopt;
  }
  std::string inner;
  std::optional<ReportSnapshot> report = normalize_report(*doc, &inner);
  if (!report.has_value() && error != nullptr) {
    *error = path + ": " + inner;
  }
  return report;
}

std::vector<RunDiff> diff_reports(const ReportSnapshot& base,
                                  const ReportSnapshot& current) {
  std::vector<RunDiff> diffs;
  for (const RunSnapshot& b : base.runs) {
    const auto match =
        std::find_if(current.runs.begin(), current.runs.end(),
                     [&](const RunSnapshot& c) {
                       return c.abbrev == b.abbrev && c.flow == b.flow;
                     });
    if (match == current.runs.end()) continue;
    const RunSnapshot& c = *match;

    RunDiff diff;
    diff.abbrev = b.abbrev;
    diff.flow = b.flow;
    diff.base_cycles = b.cycles;
    diff.current_cycles = c.cycles;
    diff.sim_wall_ms_delta = c.sim_wall_ms - b.sim_wall_ms;
    diff.skipped_cycles_delta = c.skipped_cycles - b.skipped_cycles;

    // Union of (phase, cause) cells across both sides; a phase or
    // cause missing from one side contributes zero there, so the rows
    // still sum exactly to the cycle delta.
    std::map<std::pair<std::string, std::string>,
             std::pair<double, double>>
        cells;
    for (const PhaseBreakdown& phase : b.phases) {
      for (const auto& [cause, cycles] : phase.stalls) {
        cells[{phase.name, cause}].first += cycles;
      }
    }
    for (const PhaseBreakdown& phase : c.phases) {
      for (const auto& [cause, cycles] : phase.stalls) {
        cells[{phase.name, cause}].second += cycles;
      }
    }
    for (const auto& [key, values] : cells) {
      DiffRow row;
      row.phase = key.first;
      row.cause = key.second;
      row.base = values.first;
      row.current = values.second;
      row.delta = values.second - values.first;
      diff.rows.push_back(std::move(row));
    }
    std::stable_sort(diff.rows.begin(), diff.rows.end(),
                     [](const DiffRow& a, const DiffRow& b) {
                       return std::abs(a.delta) > std::abs(b.delta);
                     });

    // Spatial tile-grid delta ranking: only meaningful when both
    // sides attributed over the same geometry (otherwise cell indices
    // name different adjacency blocks).
    if (!b.tiles.empty() && c.tiles.rows == b.tiles.rows &&
        c.tiles.cols == b.tiles.cols && c.tiles.tile == b.tiles.tile) {
      const std::size_t cells = b.tiles.rows * b.tiles.cols;
      for (std::size_t i = 0; i < cells; ++i) {
        TileDiffRow row;
        row.row = i / b.tiles.cols;
        row.col = i % b.tiles.cols;
        row.base_cycles = b.tiles.cycles[i];
        row.current_cycles = c.tiles.cycles[i];
        row.cycle_delta = row.current_cycles - row.base_cycles;
        row.dram_bytes_delta =
            c.tiles.dram_bytes[i] - b.tiles.dram_bytes[i];
        if (row.cycle_delta == 0.0 && row.dram_bytes_delta == 0.0) {
          continue;
        }
        diff.tile_rows.push_back(row);
      }
      std::stable_sort(diff.tile_rows.begin(), diff.tile_rows.end(),
                       [](const TileDiffRow& a, const TileDiffRow& b) {
                         return std::abs(a.cycle_delta) >
                                std::abs(b.cycle_delta);
                       });
    }
    diffs.push_back(std::move(diff));
  }
  return diffs;
}

void print_diff(const std::vector<RunDiff>& diffs, std::ostream& out,
                std::size_t max_rows) {
  for (const RunDiff& diff : diffs) {
    const double delta = diff.cycle_delta();
    out << diff.abbrev << '/' << diff.flow << ": cycles "
        << static_cast<std::int64_t>(diff.base_cycles) << " -> "
        << static_cast<std::int64_t>(diff.current_cycles);
    if (diff.base_cycles > 0) {
      out << " (" << Table::fmt_percent(delta / diff.base_cycles, 2)
          << ')';
    }
    out << ", sim_wall_ms " << Table::fmt(diff.sim_wall_ms_delta, 1)
        << ", skipped_cycles "
        << static_cast<std::int64_t>(diff.skipped_cycles_delta) << '\n';
    std::string line;
    if (delta == 0.0) {
      out << "  no cycle delta\n";
    } else {
      Table table({"phase", "stall", "base", "current", "delta", "share"});
      std::size_t shown = 0;
      double omitted = 0.0;
      std::size_t omitted_rows = 0;
      for (const DiffRow& row : diff.rows) {
        if (row.delta == 0.0) continue;
        if (max_rows != 0 && shown >= max_rows) {
          omitted += row.delta;
          ++omitted_rows;
          continue;
        }
        ++shown;
        table.add_row({row.phase, row.cause,
                       std::to_string(static_cast<std::int64_t>(row.base)),
                       std::to_string(static_cast<std::int64_t>(row.current)),
                       std::to_string(static_cast<std::int64_t>(row.delta)),
                       Table::fmt_percent(row.delta / delta, 1)});
      }
      if (omitted_rows > 0) {
        table.add_row({"(other)", "-", "-", "-",
                       std::to_string(static_cast<std::int64_t>(omitted)),
                       Table::fmt_percent(omitted / delta, 1)});
      }
      std::ostringstream rendered;
      table.print(rendered);
      // Indent the table under the run header.
      std::istringstream lines(rendered.str());
      while (std::getline(lines, line)) out << "  " << line << '\n';
    }

    if (!diff.tile_rows.empty()) {
      out << "  spatial tiles with the largest cycle deltas:\n";
      Table tiles({"tile", "base", "current", "delta", "dram_bytes"});
      std::size_t shown = 0;
      for (const TileDiffRow& row : diff.tile_rows) {
        if (max_rows != 0 && shown >= max_rows) break;
        ++shown;
        tiles.add_row(
            {"(" + std::to_string(row.row) + "," + std::to_string(row.col) +
                 ")",
             std::to_string(static_cast<std::int64_t>(row.base_cycles)),
             std::to_string(static_cast<std::int64_t>(row.current_cycles)),
             std::to_string(static_cast<std::int64_t>(row.cycle_delta)),
             std::to_string(
                 static_cast<std::int64_t>(row.dram_bytes_delta))});
      }
      std::ostringstream tiles_rendered;
      tiles.print(tiles_rendered);
      std::istringstream tile_lines(tiles_rendered.str());
      while (std::getline(tile_lines, line)) out << "  " << line << '\n';
      if (diff.tile_rows.size() > shown) {
        out << "  (" << diff.tile_rows.size() - shown
            << " more tiles omitted)\n";
      }
    }
  }
}

}  // namespace hymm
