/// @file
/// Top-level accelerator model: sequences the combination and
/// aggregation phases of one GCN layer on the shared memory system,
/// dispatching to the RWP / OP / hybrid engines per Table I:
///
///   architecture | combination | aggregation       | graph prep
///   RWP (GROW)   | RWP         | RWP               | none
///   OP (GCNAX)   | OP          | OP                | none
///   HyMM         | RWP         | OP (R1) + RWP     | degree sorting
#pragma once

#include <optional>

#include "common/config.hpp"
#include "core/engine.hpp"
#include "core/hybrid_engine.hpp"
#include "core/sampling.hpp"
#include "graph/csr.hpp"
#include "graph/degree_sort.hpp"
#include "graph/partition.hpp"
#include "linalg/dense.hpp"
#include "sim/checkpoint.hpp"

namespace hymm {

/// How the combination phase of one run interacted with the warm-state
/// checkpoint store (sim/checkpoint.hpp). All-false when no store was
/// passed or the run was ineligible (observer attached).
struct LayerCheckpointInfo {
  bool enabled = false;   ///< a store was passed and the run is eligible
  bool restored = false;  ///< combination state restored from the blob
  bool built = false;     ///< this run simulated the cold combination
  std::string key;        ///< checkpoint_key_hex, empty when disabled
};

/// Outcome of one simulated GCN layer (`Accelerator::run_layer`).
/// A sampled run (LayerRunRequest::sample) has no functional output —
/// its band MACs retire against scratch values — and its counters are
/// the extrapolated estimates described by `sample`.
struct LayerRunResult {
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow that ran

  /// Functional combination output XW in the ORIGINAL node order
  /// (HyMM's internal degree-sorted order is un-permuted before
  /// returning). Empty on sampled runs.
  DenseMatrix combination;
  /// A_hat * XW, pre-activation, original order. Empty on sampled runs.
  DenseMatrix output;

  SimStats stats;              ///< whole-layer counters
  SimStats combination_stats;  ///< combination-phase deltas
  SimStats aggregation_stats;  ///< aggregation-phase deltas

  /// Hybrid-only region split (zeroed otherwise).
  RegionPartition partition;
  /// Hybrid-only per-phase/per-region breakdown (zeroed otherwise).
  HybridAggregationInfo hybrid_info;
  double preprocess_ms = 0.0;  ///< degree-sorting cost (Table II)

  /// Warm-state checkpoint interaction of this run.
  LayerCheckpointInfo checkpoint;

  /// Estimator detail and error bars of a sampled run (enabled=false
  /// on exact runs).
  SampleInfo sample;

  /// Wall-clock the modeled hardware would take at clock_ghz (1e6
  /// cycles = 1 ms at 1 GHz; convention shared repo-wide).
  double runtime_ms(double clock_ghz) const {
    return static_cast<double>(stats.cycles) / (clock_ghz * 1e6);
  }
};

/// Everything one layer run needs. The required inputs are a_hat
/// (n x n sparse), x (n x f sparse) and w (f x d dense; d > 16 spans
/// multiple lines per row). `observer` (optional) collects metrics and
/// trace events for the run; it never affects timing — cycle counts
/// are identical with or without an observer attached.
///
/// `sort` + `sorted_features` optionally supply the hybrid's
/// degree-sorting preprocessing precomputed (the WorkloadCache shares
/// one sort across every cell of a sweep): sort->sorted must be a_hat
/// symmetrically permuted by sort->perm and sorted_features the
/// feature rows under the same permutation. Ignored for the
/// homogeneous dataflows; when absent the hybrid sorts internally.
/// Simulated cycles are identical either way — sorting is host-side
/// preprocessing, only its wall-clock cost (preprocess_ms) differs.
struct LayerRunRequest {
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow to simulate
  const CsrMatrix* a_hat = nullptr;           ///< required: adjacency
  const CsrMatrix* x = nullptr;               ///< required: features
  const DenseMatrix* w = nullptr;             ///< required: weights
  Observer* observer = nullptr;  ///< optional; never affects timing
  const DegreeSortResult* sort = nullptr;  ///< optional precomputed sort
  const CsrMatrix* sorted_features = nullptr;  ///< features under `sort`

  /// Optional warm-state reuse (sim/checkpoint.hpp): runs sharing the
  /// same streamed inputs and timing config simulate the combination
  /// phase once and restore its end state afterwards, bit-identically.
  /// Ignored when an observer is attached — the restored run would
  /// miss the combination phase's trace events and counter samples.
  CheckpointStore* checkpoints = nullptr;

  /// Sampled mode (core/sampling.hpp) when set: each phase simulates a
  /// seeded subset of tile bands and extrapolates. The observer and
  /// checkpoints are ignored and no functional output is produced.
  std::optional<SampleOptions> sample = std::nullopt;
};

/// Key identifying the combination phase's warm state: the streamed
/// feature matrix (structure + values), the dense weights, the engine
/// kind the dataflow runs combination with, and the timing-model hash.
/// `x_used` must be the matrix actually streamed (the degree-sorted
/// features for hybrid runs). The tiling threshold is excluded via
/// timing_config_hash, so runs that differ only in threshold share one
/// checkpoint.
CheckpointKey combination_checkpoint_key(const CsrMatrix& x_used,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow);

/// One accelerator instance: a config plus the layer sequencing logic.
class Accelerator {
 public:
  /// Captures the hardware parameters every layer run uses.
  explicit Accelerator(const AcceleratorConfig& config);

  /// The hardware parameters this instance was built with.
  const AcceleratorConfig& config() const { return config_; }

  /// Simulates one GCN layer H = a_hat * x * w (no activation), in
  /// full or, with request.sample set, as a sampled estimate.
  LayerRunResult run_layer(const LayerRunRequest& request) const;

 private:
  AcceleratorConfig config_;
};

}  // namespace hymm
