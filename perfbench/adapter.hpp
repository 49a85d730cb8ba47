// The benchmark's only contact with the simulator library. Every call
// into hymm's public API that the benchmark makes goes through a
// function here, so an API change (for example the request structs of
// GcnModel::run, Accelerator::run_layer and SweepRunner::run folding
// into one plan type) touches this file pair and nothing else.
//
// Results come back as plain benchmark-side structs: counters are
// copied out of SimStats so the rest of the benchmark can compare and
// sum them without knowing the simulator's types.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stall.hpp"
#include "core/gcn_model.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_sort.hpp"
#include "linalg/dense.hpp"
#include "sim/checkpoint.hpp"
#include "sweep/workload_cache.hpp"

namespace perfbench {

using hymm::CsrMatrix;
using hymm::Dataflow;
using hymm::DenseMatrix;

inline constexpr std::size_t kStallCount = hymm::kStallCauseCount;

/// The simulated dataflows in the order every workload runs them.
inline constexpr std::array<Dataflow, 3> kFlows = {
    Dataflow::kOuterProduct, Dataflow::kRowWiseProduct, Dataflow::kHybrid};

/// Short metric-name key of a dataflow: "op", "rwp" or "hymm".
const char* flow_key(Dataflow flow);

/// Snake-case name of stall bucket `i` ("compute" ... "drain").
const char* stall_key(std::size_t i);

/// Modeled counters of one simulated phase (or a sum of phases).
struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t skipped_cycles = 0;
  std::array<std::uint64_t, kStallCount> stalls{};
  std::uint64_t macs = 0;
  std::uint64_t alu_busy_cycles = 0;
  std::uint64_t dmb_hits = 0;
  std::uint64_t dmb_misses = 0;
  std::uint64_t dmb_spills = 0;
  std::uint64_t lsq_loads = 0;
  std::uint64_t lsq_forwards = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;

  Counters& operator+=(const Counters& other);
  friend bool operator==(const Counters&, const Counters&) = default;

  std::uint64_t stall_sum() const;
  std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
};

/// One simulated GCN layer: per-phase counters and checkpoint use.
struct LayerOutcome {
  Counters combination;
  Counters aggregation;
  bool checkpoint_restored = false;
  bool checkpoint_built = false;

  Counters total() const;
  /// Every phase's stall buckets sum to its cycles.
  bool stalls_balance() const;
};

/// Inputs of a multi-layer GCN workload. Built once per set-up; the
/// simulation calls only read them.
struct GcnInputs {
  hymm::GcnWorkload workload;
  std::unique_ptr<hymm::GcnModel> model;
  hymm::DegreeSortResult sort;
  CsrMatrix sorted_features;
  DenseMatrix golden;
};

// --- set-up steps (each timed separately by the caller) -------------

/// Synthetic stand-in of a Table II dataset ("PH", "YP", "AP").
hymm::GcnWorkload build_graph(const std::string& abbrev, double scale,
                              std::uint64_t seed);
/// Kipf-Welling normalized adjacency with self loops.
CsrMatrix normalize(const CsrMatrix& adjacency);
/// GCN over `a_hat` with seeded random weights in_dim -> dims...
std::unique_ptr<hymm::GcnModel> make_model(CsrMatrix a_hat,
                                           hymm::NodeId in_dim,
                                           const std::vector<hymm::NodeId>& dims,
                                           std::uint64_t seed);
/// Degree sort of the model's adjacency plus the permuted features.
void sort_inputs(GcnInputs& inputs);
/// Host golden inference of the whole network.
DenseMatrix golden_output(const GcnInputs& inputs);

// --- simulation calls ------------------------------------------------

/// Whole-network inference through GcnModel::run (no verification
/// inside the call, no observer, precomputed degree sort).
struct InferenceOutcome {
  std::vector<LayerOutcome> layers;
  DenseMatrix output;
};
InferenceOutcome infer(const GcnInputs& inputs, Dataflow flow);

/// One layer through Accelerator::run_layer. `x` is the layer input in
/// original node order; hybrid runs also take it in degree-sorted
/// order. `checkpoints` may be null.
LayerOutcome run_layer(const GcnInputs& inputs, std::size_t layer,
                       Dataflow flow, const CsrMatrix& x,
                       const CsrMatrix* x_sorted,
                       hymm::CheckpointStore* checkpoints,
                       DenseMatrix* output);

/// An empty in-memory warm-state checkpoint store.
std::unique_ptr<hymm::CheckpointStore> make_checkpoint_store();

/// Host-side step between layers: ReLU, then back to sparse.
CsrMatrix next_layer_input(const DenseMatrix& layer_output);
/// `x` with its rows renumbered by the inputs' degree sort.
CsrMatrix sort_rows(const GcnInputs& inputs, const CsrMatrix& x);

/// Elementwise match against the golden output (GcnModel's tolerance).
bool matches_golden(const DenseMatrix& output, const DenseMatrix& golden);

// --- design-space sweep ------------------------------------------------

using Prepared = std::shared_ptr<const hymm::PreparedWorkload>;

/// Normalized adjacency, weights and golden layer output of `workload`.
Prepared prepare(hymm::GcnWorkload workload, std::uint64_t seed);
/// Forces the prepared workload's lazy degree sort.
void warm_sort(const Prepared& prepared);

struct SweepCellOutcome {
  std::size_t dmb_kb = 0;
  double threshold = 0.0;
  LayerOutcome layer;
  double host_s = 0.0;  ///< the library's own per-cell run_layer wall time
  bool verified = false;
};

struct SweepOutcome {
  std::vector<SweepCellOutcome> cells;  ///< stable grid order
  std::uint64_t checkpoint_builds = 0;
};

/// HyMM-only sweep over DMB size x tiling threshold on `workers`
/// threads, sharing one fresh in-memory checkpoint store.
SweepOutcome run_sweep(const Prepared& prepared,
                       const std::vector<std::size_t>& dmb_kb,
                       const std::vector<double>& thresholds,
                       unsigned workers);

// --- environment -------------------------------------------------------

/// "on", "off" or "check" (HYMM_NO_FASTFWD / HYMM_FASTFWD_CHECK).
std::string fast_forward_mode();

}  // namespace perfbench
