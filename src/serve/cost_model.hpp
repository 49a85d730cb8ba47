/// @file
/// Per-class serving cost library: each request class's multi-layer
/// inference is simulated exactly once (cycle-accurate, verified
/// against the golden model), and every served request of that class
/// is charged exactly that standalone cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "linalg/dense.hpp"
#include "serve/request.hpp"

namespace hymm {

class CheckpointStore;  // sim/checkpoint.hpp

/// One class's standalone cost: the exact multi-layer simulation
/// totals every request of the class is served at.
struct ClassCost {
  std::string name;            ///< RequestClass::name
  double weight = 1.0;         ///< class-mix probability weight
  NodeId nodes = 0;            ///< (sub)graph node count
  Cycle standalone_cycles = 0;          ///< sum of layer cycles
  std::uint64_t standalone_dram_bytes = 0;  ///< sum of layer DRAM bytes
  double preprocess_ms = 0.0;  ///< host-side preprocessing (hybrid sort)
  bool verified = false;       ///< output matched GcnModel::reference
  double max_abs_err = 0.0;    ///< worst element error vs. the reference
};

/// Simulates every class's full multi-layer inference exactly (one
/// GcnModel per class, all sharing `weights`). Classes simulate
/// concurrently on `threads` workers (sweep parallel_for; 0 = auto) —
/// each class writes only its own indexed slot, so results are
/// bit-identical at any thread count. Hybrid runs hand the model a
/// precomputed degree sort through the InferenceRequest passthrough
/// (sorted once per class, not per layer). `checkpoints` (optional)
/// is a warm-state checkpoint store (sim/checkpoint.hpp) threaded
/// into every layer run: repeated serving processes over the same
/// classes restore each layer-0 combination from disk instead of
/// re-simulating its warm-up.
std::vector<ClassCost> simulate_class_costs(
    const std::vector<RequestClass>& classes,
    const std::vector<DenseMatrix>& weights, Dataflow flow,
    const AcceleratorConfig& config, unsigned threads,
    CheckpointStore* checkpoints = nullptr);

}  // namespace hymm
