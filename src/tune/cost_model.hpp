/// @file
/// Analytical cost model of the hybrid aggregation phase as a
/// function of the tiling threshold. A pure function of the sorted
/// adjacency's degree statistics plus the buffer geometry in
/// AcceleratorConfig — no simulator state — so it is unit-testable
/// against measured cycles and cheap enough to evaluate for every
/// candidate threshold on every graph. Full derivation: docs/tuning.md.
///
/// Shape of the model (roofline over three bounds):
///   - compute: every stored non-zero of A_hat touches one dense XW
///     row of `out_row_lines` 64-byte lines; the 16-lane PE array
///     retires one line per cycle, so nnz * out_row_lines cycles.
///   - DRAM bandwidth: estimated traffic of the three regions (OP
///     merge traffic for region 1, one-shot hot-row fills for
///     region 2, pessimistic all-miss streams for region 3) divided
///     by dram_bytes_per_cycle.
///   - DRAM latency: cold misses overlapped across dmb_mshr_entries
///     in-flight lines.
/// The threshold only moves the traffic term — which is exactly why
/// the measured cycle curve is flat wherever traffic is not the
/// binding bound, and why the model's job is mainly to avoid the
/// regions where it is (e.g. threshold 0 = no pinned OP rows).
#pragma once

#include <cstddef>
#include <vector>

#include "common/config.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"

namespace hymm {

/// One evaluated candidate. All byte/cycle figures are estimates in
/// doubles; `partition` holds the clamped region boundaries actually
/// implied by the candidate threshold (the same partition_regions()
/// clamp the simulator applies, so model and simulator can never
/// disagree about geometry).
struct CostEstimate {
  double threshold = 0.0;      ///< requested candidate threshold
  RegionPartition partition;   ///< clamped boundaries for it

  double op_bytes = 0.0;       ///< region-1 stream + merge traffic
  double rwp_hot_bytes = 0.0;  ///< region-2 one-shot hot-row fills
  double rwp_cold_bytes = 0.0; ///< region-3 pessimistic miss traffic
  double dram_bytes = 0.0;     ///< total, incl. adjacency + outputs

  double compute_cycles = 0.0; ///< MAC lower bound
  double memory_cycles = 0.0;  ///< dram_bytes / dram_bytes_per_cycle
  double latency_cycles = 0.0; ///< cold misses / MSHR parallelism
  double cycles = 0.0;         ///< max of the three bounds
};

/// Lines per dense output/XW row for a given dense column count —
/// the same `ceil(cols / 16)` the accelerator and partition clamp
/// use. Exposed so callers pass partition_regions() a consistent
/// out_row_lines.
std::size_t dense_row_lines(std::size_t dense_cols);

/// Evaluates one candidate threshold on a degree-sorted adjacency.
/// `dense_cols` is the dense operand's column count (the GCN layer
/// dimension). The config's own tiling_threshold is ignored; the
/// candidate is used instead.
CostEstimate estimate_hybrid_cost(const CsrMatrix& sorted_adjacency,
                                  const AcceleratorConfig& config,
                                  double threshold,
                                  std::size_t dense_cols);

/// Evaluates every candidate and returns the estimates in candidate
/// order (no argmin here; the tuner applies its own tie-breaking).
std::vector<CostEstimate> estimate_candidates(
    const CsrMatrix& sorted_adjacency, const AcceleratorConfig& config,
    const std::vector<double>& thresholds, std::size_t dense_cols);

}  // namespace hymm
