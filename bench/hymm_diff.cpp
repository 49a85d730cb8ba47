// Run-diff root-cause tool: diffs two run reports (hymm-run-report/8)
// or two perf snapshots (hymm-bench/1, /2 or /3) and attributes each
// paired run's cycle delta to (phase-or-region x stall bucket),
// printing a ranked attribution table. The per-phase stall vectors
// sum exactly to the per-phase cycles, so the rows sum exactly to the
// delta. When both reports carry the "spatial" tile grid at the same
// geometry, the tiles with the largest cycle deltas are ranked too.
//
//   hymm_diff BASELINE CURRENT [--max-rows N]
//
// Exit status: 0 when the reports were diffed (whatever the deltas),
// 1 when no (abbrev, flow) pair exists in both reports, 2 on usage
// errors, 3 on unreadable/unsupported reports or when the two files
// are different report kinds (a run report vs a bench snapshot).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "obs/diff.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  std::size_t max_rows = 10;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-rows" && i + 1 < argc) {
      max_rows = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--version") {
      std::cout << "hymm_diff\n"
                << "  run-report schema: " << kRunReportSchema
                << "\n"
                << "  bench schema:      " << kBenchSchema
                << " (reads /1 and /2 too)\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "usage: hymm_diff BASELINE CURRENT [--max-rows N]\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::cerr << "usage: hymm_diff BASELINE CURRENT [--max-rows N]\n";
    return 2;
  }

  std::string error;
  const auto base = load_report(positional[0], &error);
  if (!base.has_value()) {
    std::cerr << "hymm_diff: " << error << "\n";
    return 3;
  }
  const auto current = load_report(positional[1], &error);
  if (!current.has_value()) {
    std::cerr << "hymm_diff: " << error << "\n";
    return 3;
  }
  if (base->kind != current->kind) {
    std::cerr << "hymm_diff: cannot diff a " << base->kind << " ("
              << base->schema << ") against a " << current->kind << " ("
              << current->schema << ")\n";
    return 3;
  }

  std::cout << "hymm_diff: " << positional[0] << " (" << base->schema
            << ") -> " << positional[1] << " (" << current->schema
            << ")\n";
  const std::vector<RunDiff> diffs = diff_reports(*base, *current);
  if (diffs.empty()) {
    std::cerr << "hymm_diff: no (dataset, flow) pair present in both "
                 "reports\n";
    return 1;
  }
  print_diff(diffs, std::cout, max_rows);
  return 0;
}
