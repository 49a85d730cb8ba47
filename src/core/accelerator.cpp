#include "core/accelerator.hpp"

#include <bit>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/hooks.hpp"
#include "core/op_engine.hpp"
#include "core/rwp_engine.hpp"
#include "graph/degree_sort.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

namespace {

// The combination phase's warm state: the memory system at the
// phase boundary plus the host-side XW values the phase produced.
std::vector<std::byte> serialize_warm_state(const CheckpointKey& key,
                                            const MemorySystem& ms,
                                            const DenseMatrix& xw) {
  StateWriter w;
  ms.save_state(w);
  w.put_u64(static_cast<std::uint64_t>(xw.rows()));
  w.put_u64(static_cast<std::uint64_t>(xw.cols()));
  for (NodeId r = 0; r < xw.rows(); ++r) {
    for (NodeId c = 0; c < xw.cols(); ++c) w.put_f32(xw.at(r, c));
  }
  return seal_checkpoint(key, w.take());
}

// Restores into a freshly built MemorySystem (same config, regions
// allocated in the canonical order) and the zeroed XW matrix. False
// when the blob fails validation — the caller falls back to a cold
// combination run.
bool restore_warm_state(const std::vector<std::byte>& blob,
                        const CheckpointKey& key, MemorySystem& ms,
                        DenseMatrix& xw) {
  const std::byte* payload = nullptr;
  std::size_t payload_size = 0;
  if (!open_checkpoint(blob, key, &payload, &payload_size)) return false;
  StateReader r(payload, payload_size);
  ms.load_state(r);
  HYMM_CHECK(r.get_u64() == static_cast<std::uint64_t>(xw.rows()));
  HYMM_CHECK(r.get_u64() == static_cast<std::uint64_t>(xw.cols()));
  for (NodeId row = 0; row < xw.rows(); ++row) {
    for (NodeId c = 0; c < xw.cols(); ++c) xw.at(row, c) = r.get_f32();
  }
  HYMM_CHECK_MSG(r.exhausted(), "trailing bytes in checkpoint payload");
  return true;
}

// A layer's validated operands in the order the accelerator streams
// them. For the hybrid that is HyMM's graph preprocessing (Table I):
// the adjacency and features in degree-sorted order — the request's
// precomputed sort, or sorted here — and the adjacency split at the
// global three-region boundaries. Exact and sampled runs share it, so
// both modes check the same inputs.
struct LayerOperands {
  LayerOperands(const LayerRunRequest& request,
                const AcceleratorConfig& config);
  LayerOperands(const LayerOperands&) = delete;
  LayerOperands& operator=(const LayerOperands&) = delete;

  const CsrMatrix* a = nullptr;    // streamed adjacency
  const CsrMatrix* x = nullptr;    // streamed features
  const DenseMatrix* w = nullptr;  // weights
  NodeId n = 0;
  // 64-byte lines per dense row; 1 for the paper's layer dimension 16.
  std::size_t chunks = 1;
  std::span<const NodeId> perm;  // original -> streamed id; hybrid only
  TiledAdjacency tiled;          // the three-region split; hybrid only
  double preprocess_ms = 0.0;    // degree-sorting cost (Table II)

 private:
  DegreeSortResult own_sort_;  // when the hybrid sorts here
  CsrMatrix own_x_;
};

LayerOperands::LayerOperands(const LayerRunRequest& request,
                             const AcceleratorConfig& config)
    : a(request.a_hat), x(request.x), w(request.w) {
  HYMM_CHECK(a != nullptr && x != nullptr && w != nullptr);
  HYMM_CHECK_MSG(!request.sample.has_value() ||
                     (request.sample->fraction > 0.0 &&
                      request.sample->fraction <= 1.0),
                 "sample fraction must be in (0, 1]");
  HYMM_CHECK(a->rows() == a->cols());
  HYMM_CHECK(a->cols() == x->rows());
  HYMM_CHECK(x->cols() == w->rows());
  n = a->rows();
  chunks = (static_cast<std::size_t>(w->cols()) + kLaneCount - 1) /
           kLaneCount;
  if (request.flow != Dataflow::kHybrid) return;

  Timer timer;
  const DegreeSortResult* sort = request.sort;
  if (sort != nullptr) {
    // Precomputed degree sort (shared immutably by the caller, e.g.
    // the sweep executor's WorkloadCache); only the region partition
    // and tiling remain, which depend on this config.
    HYMM_CHECK_MSG(request.sorted_features != nullptr,
                   "LayerRunRequest.sort without sorted_features");
    HYMM_CHECK(sort->perm.size() == n);
    HYMM_CHECK(sort->sorted.rows() == n);
    x = request.sorted_features;
  } else {
    own_sort_ = degree_sort(*a);
    own_x_ = permute_feature_rows(*x, own_sort_.perm);
    sort = &own_sort_;
    x = &own_x_;
  }
  a = &sort->sorted;
  perm = sort->perm;
  tiled = TiledAdjacency::build(*a, partition_regions(*a, config, chunks));
  preprocess_ms =
      request.sort != nullptr ? request.sort->sort_cost_ms : timer.elapsed_ms();
}

// The canonical W / XW / AXW / partial-spill address layout. The
// address map is deterministic, so every MemorySystem that allocates
// it — the layer's own, a checkpoint's cold build — places each line
// at the same address.
struct LayerRegions {
  AddressRegion w;
  AddressRegion xw;
  AddressRegion axw;
  AddressRegion spill;
};

LayerRegions allocate_regions(MemorySystem& ms, const LayerOperands& ops) {
  const std::size_t row_bytes = ops.chunks * kLineBytes;
  AddressMap& map = ms.address_map();
  LayerRegions r;
  r.w = map.allocate("W", static_cast<std::size_t>(ops.w->rows()) * row_bytes,
                     TrafficClass::kWeights);
  r.xw = map.allocate("XW", static_cast<std::size_t>(ops.n) * row_bytes,
                      TrafficClass::kCombined);
  r.axw = map.allocate("AXW", static_cast<std::size_t>(ops.n) * row_bytes,
                       TrafficClass::kOutput);
  r.spill = map.allocate(
      "partial-spill",
      static_cast<std::size_t>((ops.x->nnz() + ops.a->nnz() + 1024) * 128 *
                               ops.chunks),
      TrafficClass::kPartial);
  return r;
}

// Engine parameters of the homogeneous dataflows, one builder per
// (phase x engine), over the whole streamed operand. The hybrid's
// aggregation builders live in hybrid_engine.cpp.
OpEngineParams combination_op_params(const AcceleratorConfig& config,
                                     const LayerRegions& r,
                                     const CscMatrix& x, const DenseMatrix& w,
                                     DenseMatrix& xw) {
  return {.sparse = &x, .sparse_class = TrafficClass::kFeatures,
          .b = &w, .b_region = r.w, .b_class = TrafficClass::kWeights,
          .c = &xw, .c_region = r.xw,
          .c_final_class = TrafficClass::kCombined,
          .spill_region = r.spill,
          .accumulate_in_buffer = config.op_baseline_accumulator,
          .window = config.engine_window};
}

RwpEngineParams combination_rwp_params(const AcceleratorConfig& config,
                                       const LayerRegions& r,
                                       const CsrMatrix& x,
                                       const DenseMatrix& w,
                                       DenseMatrix& xw) {
  return {.sparse = &x, .sparse_class = TrafficClass::kFeatures,
          .b = &w, .b_region = r.w, .b_class = TrafficClass::kWeights,
          .c = &xw, .c_region = r.xw, .c_class = TrafficClass::kCombined,
          .c_store_kind = StoreKind::kAllocate,
          .window = config.engine_window};
}

// Pure OP aggregation: every tile is an OP tile.
OpEngineParams aggregation_op_params(const AcceleratorConfig& config,
                                     const LayerRegions& r,
                                     const CscMatrix& a,
                                     const DenseMatrix& xw,
                                     DenseMatrix& axw) {
  return {.sparse = &a, .sparse_class = TrafficClass::kAdjacency,
          .b = &xw, .b_region = r.xw, .b_class = TrafficClass::kCombined,
          .c = &axw, .c_region = r.axw,
          .c_final_class = TrafficClass::kOutput,
          .spill_region = r.spill,
          .accumulate_in_buffer = config.op_baseline_accumulator,
          .window = config.engine_window,
          .spatial_in_grid = true, .spatial_region = SpatialRegion::kOp};
}

// Pure RWP aggregation: every tile is an RWP tile.
RwpEngineParams aggregation_rwp_params(const AcceleratorConfig& config,
                                       const LayerRegions& r,
                                       const CsrMatrix& a,
                                       const DenseMatrix& xw,
                                       DenseMatrix& axw) {
  return {.sparse = &a, .sparse_class = TrafficClass::kAdjacency,
          .b = &xw, .b_region = r.xw, .b_class = TrafficClass::kCombined,
          .c = &axw, .c_region = r.axw, .c_class = TrafficClass::kOutput,
          .c_store_kind = StoreKind::kThrough,
          .window = config.engine_window,
          .spatial_in_grid = true,
          .spatial_region2 = SpatialRegion::kRwp,
          .spatial_region3 = SpatialRegion::kRwp};
}

// A [begin, end) span of a phase's streamed dimension: rows of the
// streamed CSR for RWP engines, columns of the streamed CSC for OP.
using Band = std::pair<NodeId, NodeId>;

// Runs one engine to completion on `ms` and returns the non-zeros it
// streamed: the whole sparse operand when `band` is null (nothing is
// copied), else a copy of that band rebased to global ids. An empty
// band simulates nothing.
std::uint64_t simulate(MemorySystem& ms, OpEngineParams op,
                       const Band* band) {
  CscMatrix slice;
  if (band != nullptr) {
    slice = op.sparse->submatrix_cols(band->first, band->second);
    if (slice.nnz() == 0) return 0;
    op.sparse = &slice;
    op.col_offset += band->first;
  }
  OpEngine engine(ms, op);
  run_phase(ms, engine);
  return op.sparse->nnz();
}

std::uint64_t simulate(MemorySystem& ms, RwpEngineParams rwp,
                       const Band* band) {
  CsrMatrix slice;
  if (band != nullptr) {
    slice = rwp.sparse->submatrix(band->first, band->second, 0,
                                  rwp.sparse->cols());
    if (slice.nnz() == 0) return 0;
    rwp.sparse = &slice;
    rwp.row_offset += band->first;
  }
  RwpEngine engine(ms, rwp);
  run_phase(ms, engine);
  return rwp.sparse->nnz();
}

// Phase tags of the band-selection seed (core/sampling.hpp).
constexpr std::uint64_t kCombinationTag = 0x636f6d62ULL;  // "comb"
constexpr std::uint64_t kAggregationTag = 0x61676772ULL;  // "aggr"
constexpr std::uint64_t kRegion1Tag = 0x72316f70ULL;      // "r1op"
constexpr std::uint64_t kRegion23Tag = 0x72323372ULL;     // "r23r"

// Sampled mode of one phase: simulates its selected bands back-to-back
// on `ms`, so warm state carries across bands and phases as in an
// exact run, and extrapolates. `run(band)` simulates one band and
// returns its non-zeros. `prologue` and `epilogue` run once around the
// bands (the hybrid's region-1 pin and writeback); the epilogue's cost
// enters the estimate once, unscaled.
PhaseSampleEstimate sample_phase(
    MemorySystem& ms, const SampleOptions& options, NodeId extent,
    std::uint64_t nnz_total, std::uint64_t phase_tag,
    const std::function<std::uint64_t(const Band&)>& run,
    const std::function<void()>& prologue = {},
    const std::function<void()>& epilogue = {}) {
  const BandSelection sel =
      select_phase_bands(options, extent, nnz_total, phase_tag);
  if (prologue) prologue();
  std::vector<BandRun> runs;
  runs.reserve(sel.selected.size());
  for (const Band& band : sel.selected) {
    const SimStats before = ms.snapshot();
    BandRun band_run;
    band_run.nnz = run(band);
    band_run.stats = stats_delta(ms.snapshot(), before);
    runs.push_back(std::move(band_run));
  }
  const SimStats before_epilogue = ms.snapshot();
  if (epilogue) epilogue();
  return extrapolate_phase(runs, sel.bands_total, nnz_total,
                           stats_delta(ms.snapshot(), before_epilogue));
}

}  // namespace

CheckpointKey combination_checkpoint_key(const CsrMatrix& x_used,
                                         const DenseMatrix& w,
                                         const AcceleratorConfig& config,
                                         Dataflow flow) {
  std::uint64_t workload = graph_fingerprint(x_used);
  std::uint64_t w_digest = fingerprint_combine(
      static_cast<std::uint64_t>(w.rows()),
      static_cast<std::uint64_t>(w.cols()));
  for (NodeId r = 0; r < w.rows(); ++r) {
    for (NodeId c = 0; c < w.cols(); ++c) {
      w_digest = fingerprint_combine(
          w_digest, std::bit_cast<std::uint32_t>(w.at(r, c)));
    }
  }
  workload = fingerprint_combine(workload, w_digest);
  // Only the engine kind matters for the combination phase: RWP and
  // hybrid share the RWP combination engine.
  const bool op_combination = flow == Dataflow::kOuterProduct;
  workload = fingerprint_combine(workload,
                                 static_cast<std::uint64_t>(op_combination));
  return CheckpointKey{workload, timing_config_hash(config)};
}


Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
  config_.validate();
}

LayerRunResult Accelerator::run_layer(const LayerRunRequest& request) const {
  const LayerOperands ops(request, config_);
  const Dataflow flow = request.flow;
  const std::optional<SampleOptions>& sample = request.sample;
  // Sampled runs ignore the observer: their bands are not the phases'
  // events, and their counters are estimates.
  Observer* obs = sample ? nullptr : request.observer;
  LayerRunResult result;
  result.flow = flow;
  result.partition = ops.tiled.partition();
  result.preprocess_ms = ops.preprocess_ms;

  // --- Memory system and address space ---
  MemorySystem ms(config_);
  if (obs != nullptr) ms.attach_observer(obs);
  // Spatial heatmap grid over the adjacency this layer streams — the
  // degree-sorted order for hybrid runs (tile coordinates then live
  // in sorted space; docs/schemas.md documents the caveat).
  HYMM_OBS(obs, spatial_begin(ops.n, config_.pe_count));
  const LayerRegions regions = allocate_regions(ms, ops);
  // Sampled band MACs retire into these too; only the sparsity
  // pattern affects timing, so their values never matter there.
  DenseMatrix xw = DenseMatrix::zeros(ops.n, ops.w->cols());
  DenseMatrix axw = DenseMatrix::zeros(ops.n, ops.w->cols());

  // --- Combination phase: XW = X * W ---
  const bool op_combination = flow == Dataflow::kOuterProduct;
  CscMatrix x_csc;  // OP architecture streams X column-wise
  if (op_combination) x_csc = CscMatrix::from_csr(*ops.x);
  const auto combination = [&](MemorySystem& sys, DenseMatrix& out_xw,
                               const Band* band) {
    return op_combination
               ? simulate(sys,
                          combination_op_params(config_, regions, x_csc,
                                                *ops.w, out_xw),
                          band)
               : simulate(sys,
                          combination_rwp_params(config_, regions, *ops.x,
                                                 *ops.w, out_xw),
                          band);
  };
  if (sample) {
    result.sample.combination = sample_phase(
        ms, *sample, op_combination ? x_csc.cols() : ops.x->rows(),
        ops.x->nnz(), kCombinationTag,
        [&](const Band& band) { return combination(ms, xw, &band); });
    result.combination_stats = result.sample.combination.stats;
  } else {
    // Observer runs are ineligible: a restored combination would skip
    // the phase's trace events and counter samples.
    CheckpointStore* ckpt = obs == nullptr ? request.checkpoints : nullptr;
    bool restored = false;
    if (ckpt != nullptr) {
      const CheckpointKey key =
          combination_checkpoint_key(*ops.x, *ops.w, config_, flow);
      result.checkpoint.enabled = true;
      result.checkpoint.key = checkpoint_key_hex(key);
      bool built = false;
      const auto blob = ckpt->get_or_build(
          key,
          [&] {
            // The cold run on a private MemorySystem with the canonical
            // layout, so embedded addresses match every restoring run.
            MemorySystem cold(config_);
            allocate_regions(cold, ops);
            DenseMatrix cold_xw = DenseMatrix::zeros(ops.n, ops.w->cols());
            combination(cold, cold_xw, nullptr);
            std::vector<std::byte> sealed =
                serialize_warm_state(key, cold, cold_xw);
#ifndef NDEBUG
            // Round-trip soundness: restoring the blob and
            // re-serializing must reproduce it byte for byte.
            MemorySystem check(config_);
            DenseMatrix check_xw = DenseMatrix::zeros(ops.n, ops.w->cols());
            HYMM_DCHECK(restore_warm_state(sealed, key, check, check_xw));
            HYMM_DCHECK(serialize_warm_state(key, check, check_xw) ==
                        sealed);
#endif
            return sealed;
          },
          &built);
      result.checkpoint.built = built;
      restored = blob != nullptr && restore_warm_state(*blob, key, ms, xw);
      result.checkpoint.restored = restored;
    }
    if (!restored) combination(ms, xw, nullptr);
    result.combination_stats = ms.snapshot();
    HYMM_OBS(obs, phase_span("combination", 0, ms.now()));
  }
  const Cycle aggregation_start = ms.now();

  // --- Aggregation phase: AXW = A_hat * XW ---
  // W is dead from here on: Section IV-D evicts W before XW, so the
  // combination results survive in the unified buffer instead.
  ms.dmb().demote_class(TrafficClass::kWeights);
  CscMatrix a_csc;
  if (flow == Dataflow::kOuterProduct) a_csc = CscMatrix::from_csr(*ops.a);
  const auto aggregation = [&](const Band* band) {
    return flow == Dataflow::kOuterProduct
               ? simulate(ms,
                          aggregation_op_params(config_, regions, a_csc, xw,
                                                axw),
                          band)
               : simulate(ms,
                          aggregation_rwp_params(config_, regions, *ops.a,
                                                 xw, axw),
                          band);
  };
  const HybridAggregationParams hybrid{
      .tiled = &ops.tiled, .b = &xw, .b_region = regions.xw,
      .b_class = TrafficClass::kCombined, .c = &axw,
      .c_region = regions.axw, .spill_region = regions.spill};
  if (!sample) {
    if (flow == Dataflow::kHybrid) {
      result.hybrid_info = run_hybrid_aggregation(ms, hybrid);
    } else {
      aggregation(nullptr);
    }
  } else if (flow == Dataflow::kHybrid) {
    // Region 1 (OP, outputs pinned across all its bands) then regions
    // 2/3 (RWP), each sampled as its own sub-phase.
    const CscMatrix& r1 = ops.tiled.region1_csc();
    const CsrMatrix& r23 = ops.tiled.region23_csr();
    const PhaseSampleEstimate r1_estimate =
        r1.nnz() > 0
            ? sample_phase(
                  ms, *sample, ops.n, r1.nnz(), kRegion1Tag,
                  [&](const Band& band) {
                    return simulate(ms, region1_op_params(hybrid, config_),
                                    &band);
                  },
                  [&] { pin_region1_outputs(ms, hybrid); },
                  [&] { writeback_region1_outputs(ms); })
            : PhaseSampleEstimate{};
    const PhaseSampleEstimate r23_estimate =
        r23.nnz() > 0
            ? sample_phase(ms, *sample, r23.rows(), r23.nnz(), kRegion23Tag,
                           [&](const Band& band) {
                             return simulate(
                                 ms, region23_rwp_params(hybrid, config_),
                                 &band);
                           })
            : PhaseSampleEstimate{};
    result.sample.aggregation = combine_estimates(r1_estimate, r23_estimate);
  } else {
    result.sample.aggregation =
        sample_phase(ms, *sample, ops.n, ops.a->nnz(), kAggregationTag,
                     [&](const Band& band) { return aggregation(&band); });
  }

  if (sample) {
    result.sample.enabled = true;
    result.sample.fraction = sample->fraction;
    result.sample.seed = sample->seed;
    result.aggregation_stats = result.sample.aggregation.stats;
    result.stats = result.combination_stats;
    result.stats.merge_phase(result.aggregation_stats);
    return result;
  }
  result.stats = ms.snapshot();
  result.aggregation_stats =
      stats_delta(result.stats, result.combination_stats);
  HYMM_OBS(obs, phase_span("aggregation", aggregation_start, ms.now()));

  // --- Return results in the original node order ---
  if (flow == Dataflow::kHybrid) {
    DenseMatrix xw_orig(ops.n, ops.w->cols());
    DenseMatrix axw_orig(ops.n, ops.w->cols());
    for (NodeId old_id = 0; old_id < ops.n; ++old_id) {
      const NodeId new_id = ops.perm[old_id];
      for (NodeId c = 0; c < ops.w->cols(); ++c) {
        xw_orig.at(old_id, c) = xw.at(new_id, c);
        axw_orig.at(old_id, c) = axw.at(new_id, c);
      }
    }
    result.combination = std::move(xw_orig);
    result.output = std::move(axw_orig);
  } else {
    result.combination = std::move(xw);
    result.output = std::move(axw);
  }
  return result;
}

}  // namespace hymm
