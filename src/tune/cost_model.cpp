#include "tune/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace hymm {

std::size_t dense_row_lines(std::size_t dense_cols) {
  return (dense_cols + kLaneCount - 1) / kLaneCount;
}

CostEstimate estimate_hybrid_cost(const CsrMatrix& sorted_adjacency,
                                  const AcceleratorConfig& config,
                                  double threshold,
                                  std::size_t dense_cols) {
  HYMM_CHECK(threshold >= 0.0 && threshold <= 1.0);
  HYMM_CHECK(dense_cols > 0);

  CostEstimate e;
  e.threshold = threshold;

  AcceleratorConfig candidate = config;
  candidate.tiling_threshold = threshold;
  const std::size_t lines = dense_row_lines(dense_cols);
  e.partition = partition_regions(sorted_adjacency, candidate, lines);

  const double n = static_cast<double>(e.partition.nodes);
  const double nnz = static_cast<double>(e.partition.total_nnz());
  const double nnz1 = static_cast<double>(e.partition.nnz_region1);
  const double nnz3 = static_cast<double>(e.partition.nnz_region3);
  const double r1 = static_cast<double>(e.partition.region1_rows);
  const double c2 = static_cast<double>(e.partition.region2_cols);
  const double row_bytes = static_cast<double>(lines * kLineBytes);

  // --- Region 1 (OP, outputs pinned on-chip) ---------------------
  // The OP engines stream XW rows for the distinct columns present in
  // the region-1 block. Columns are drawn by nnz1 edges over n
  // possible columns; the expected distinct-column count is the
  // coupon-collector estimate n * (1 - exp(-nnz1 / n)). The pointer
  // -guided prefetch makes that stream sequential, so each distinct
  // row is fetched once. Pinned partial outputs never spill, but the
  // r1 finished rows are written back once.
  const double distinct1 =
      n > 0.0 ? n * (1.0 - std::exp(-nnz1 / n)) : 0.0;
  e.op_bytes = distinct1 * row_bytes + r1 * row_bytes;

  // --- Region 2 (RWP over the hot columns) -----------------------
  // The c2 hot XW rows fit in the DMB by construction (that is the
  // clamp), so each is filled once and then reused for all nnz2
  // accesses.
  e.rwp_hot_bytes = c2 * row_bytes;

  // --- Region 3 (RWP remainder) ----------------------------------
  // Pessimistic: columns beyond c2 are the low-degree tail with
  // little reuse, and whatever reuse LRU salvages is workload
  // dependent — assume every access misses. This term is what makes
  // small thresholds expensive (threshold 0 puts ALL traffic here)
  // and it shrinks monotonically as the boundaries grow.
  e.rwp_cold_bytes = nnz3 * row_bytes;

  // --- Common traffic --------------------------------------------
  // The adjacency itself streams exactly once in every mode (4-byte
  // index + 4-byte value per stored non-zero, as in the SMQ entry
  // layout), and the n - r1 RWP output rows are written back once.
  const double adjacency_bytes = nnz * 8.0;
  const double rwp_output_bytes = (n - r1) * row_bytes;
  e.dram_bytes = e.op_bytes + e.rwp_hot_bytes + e.rwp_cold_bytes +
                 adjacency_bytes + rwp_output_bytes;

  // --- Roofline ---------------------------------------------------
  e.compute_cycles = nnz * static_cast<double>(lines);
  e.memory_cycles =
      e.dram_bytes / static_cast<double>(config.dram_bytes_per_cycle);
  // Cold misses: every distinct region-1 row, every hot-row fill and
  // every pessimistic region-3 access pays dram_latency, overlapped
  // across the MSHR file.
  const double cold_misses = distinct1 + c2 + nnz3;
  e.latency_cycles = cold_misses *
                     static_cast<double>(config.dram_latency) /
                     static_cast<double>(config.dmb_mshr_entries);
  e.cycles =
      std::max({e.compute_cycles, e.memory_cycles, e.latency_cycles});
  return e;
}

std::vector<CostEstimate> estimate_candidates(
    const CsrMatrix& sorted_adjacency, const AcceleratorConfig& config,
    const std::vector<double>& thresholds, std::size_t dense_cols) {
  std::vector<CostEstimate> out;
  out.reserve(thresholds.size());
  for (const double t : thresholds) {
    out.push_back(
        estimate_hybrid_cost(sorted_adjacency, config, t, dense_cols));
  }
  return out;
}

}  // namespace hymm
