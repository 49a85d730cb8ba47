#include "core/hybrid_engine.hpp"

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

OpEngineParams region1_op_params(const HybridAggregationParams& params,
                                 const AcceleratorConfig& config) {
  const bool accumulate = config.near_memory_accumulator;
  return {.sparse = &params.tiled->region1_csc(),
          .sparse_class = TrafficClass::kAdjacency,
          .b = params.b, .b_region = params.b_region,
          .b_class = params.b_class,
          .c = params.c, .c_region = params.c_region,
          .c_final_class = TrafficClass::kOutput,
          .spill_region = params.spill_region,
          .accumulate_in_buffer = accumulate,
          .outputs_pinned = accumulate,
          .window = config.engine_window,
          .spatial_in_grid = true, .spatial_region = SpatialRegion::kOp};
}

RwpEngineParams region23_rwp_params(const HybridAggregationParams& params,
                                    const AcceleratorConfig& config) {
  const RegionPartition& partition = params.tiled->partition();
  // Spatial attribution follows the exact per-MAC region decision,
  // not the proportional region_stats split of run_hybrid_aggregation.
  return {.sparse = &params.tiled->region23_csr(),
          .sparse_class = TrafficClass::kAdjacency,
          .b = params.b, .b_region = params.b_region,
          .b_class = params.b_class,
          .c = params.c, .c_region = params.c_region,
          .c_class = TrafficClass::kOutput,
          .c_store_kind = StoreKind::kThrough,
          .row_offset = partition.region1_rows,
          .region2_col_boundary = partition.region2_cols,
          .window = config.engine_window,
          .spatial_in_grid = true,
          .spatial_region2 = SpatialRegion::kRwp,
          .spatial_region3 = SpatialRegion::kRegion3};
}

void pin_region1_outputs(MemorySystem& ms,
                         const HybridAggregationParams& params) {
  if (!ms.config().near_memory_accumulator) return;
  const std::size_t chunks =
      (static_cast<std::size_t>(params.b->cols()) + kLaneCount - 1) /
      kLaneCount;
  for (NodeId r = 0; r < params.tiled->partition().region1_rows; ++r) {
    const Addr base = params.c_region.line_of(r, chunks);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const bool pinned =
          ms.dmb().pin_partial(base + chunk * kLineBytes, ms.now());
      HYMM_CHECK_MSG(pinned,
                     "region-1 rows exceed the DMB pin capacity — "
                     "partition_regions() must clamp them");
    }
  }
}

void writeback_region1_outputs(MemorySystem& ms) {
  if (ms.config().near_memory_accumulator) {
    ms.dmb().unpin_and_writeback_outputs(ms.now());
  }
}

HybridAggregationInfo run_hybrid_aggregation(
    MemorySystem& ms, const HybridAggregationParams& params) {
  HYMM_CHECK(params.tiled != nullptr);
  HYMM_CHECK(params.b != nullptr && params.c != nullptr);
  const RegionPartition& partition = params.tiled->partition();
  const CscMatrix& op_csc = params.tiled->region1_csc();
  const CsrMatrix& rwp_csr = params.tiled->region23_csr();
  HYMM_CHECK(params.c->rows() == partition.nodes);

  HybridAggregationInfo info;
  info.pinned_rows = partition.region1_rows;

  // --- Phase 1: OP over region 1 with pinned outputs ---
  const Cycle op_start = ms.now();
  const SimStats before_op = ms.snapshot();
  if (partition.region1_rows > 0 && op_csc.nnz() > 0) {
    pin_region1_outputs(ms, params);
    OpEngine engine(ms, region1_op_params(params, ms.config()));
    info.op_phase_cycles = run_phase(ms, engine);
    writeback_region1_outputs(ms);
  }
  const SimStats after_op = ms.snapshot();
  info.op_phase_stats = stats_delta(after_op, before_op);
  HYMM_OBS(ms.observer(), region_span("region1 (OP)", op_start, ms.now()));

  // --- Phase 2: RWP over regions 2 and 3 ---
  const Cycle rwp_start = ms.now();
  if (rwp_csr.nnz() > 0) {
    RwpEngine engine(ms, region23_rwp_params(params, ms.config()));
    info.rwp_phase_cycles = run_phase(ms, engine);
    info.region2_macs = engine.region2_macs();
    info.region3_macs = engine.region3_macs();
  }
  info.rwp_phase_stats = stats_delta(ms.snapshot(), after_op);

  // --- Per-region breakdown ---
  info.region_stats[0] = info.op_phase_stats;
  const std::uint64_t rwp_macs = info.region2_macs + info.region3_macs;
  const double region2_share =
      rwp_macs == 0 ? 0.0
                    : static_cast<double>(info.region2_macs) /
                          static_cast<double>(rwp_macs);
  // Region 2 takes the scaled share; region 3 takes the remainder so
  // the two sum exactly to the RWP phase. MAC counts are exact.
  info.region_stats[1] = scale_stats(info.rwp_phase_stats, region2_share);
  info.region_stats[2] =
      stats_delta(info.rwp_phase_stats, info.region_stats[1]);
  info.region_stats[1].mac_ops = info.region2_macs;
  info.region_stats[2].mac_ops = info.region3_macs;

  if (Observer* obs = ms.observer(); obs != nullptr && rwp_macs > 0) {
    // Sub-span attribution mirrors the counter split: the RWP window
    // is divided proportionally to the per-region MAC counts.
    const Cycle split =
        rwp_start + static_cast<Cycle>(
                        static_cast<double>(ms.now() - rwp_start) *
                        region2_share);
    obs->region_span("region2 (RWP)", rwp_start, split);
    obs->region_span("region3 (RWP)", split, ms.now());
  }
  return info;
}

}  // namespace hymm
