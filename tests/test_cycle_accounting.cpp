// Cycle-accounting profiler tests: every simulated cycle of every
// engine is attributed to exactly one stall cause (run_phase enforces
// one bucket per loop iteration), the taxonomy's groups classify the
// bottleneck, and the accounting is observability — attaching an
// observer or reading the buckets never changes cycle counts.
#include <gtest/gtest.h>

#include <array>

#include "common/stall.hpp"
#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "obs/observer.hpp"

namespace hymm {
namespace {

struct Workload {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

Workload small_workload(std::uint64_t seed) {
  GraphSpec gspec;
  gspec.nodes = 180;
  gspec.edges = gspec.nodes * 8;
  gspec.seed = seed;
  Workload wl;
  wl.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = wl.a_hat.rows();
  fspec.feature_length = 64;
  fspec.density = 0.2;
  fspec.seed = seed + 1;
  wl.x = generate_features(fspec);
  wl.w = DenseMatrix::random(wl.x.cols(), 16, seed + 2);
  return wl;
}

void expect_accounted(const SimStats& s, const std::string& label) {
  EXPECT_EQ(s.stall_total(), std::uint64_t{s.cycles})
      << label << ": stall buckets must sum to the cycle count";
}

TEST(CycleAccounting, BucketsSumToCyclesForEveryFlowAndPhase) {
  const Workload wl = small_workload(7);
  const Accelerator accelerator{AcceleratorConfig{}};
  for (const Dataflow flow :
       {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const LayerRunResult r = accelerator.run_layer(
        {.flow = flow, .a_hat = &wl.a_hat, .x = &wl.x, .w = &wl.w});
    expect_accounted(r.stats, "layer");
    expect_accounted(r.combination_stats, "combination");
    expect_accounted(r.aggregation_stats, "aggregation");
    // A MAC retires on exactly the cycles charged to compute.
    EXPECT_EQ(r.stats.stall(StallCause::kCompute), r.stats.mac_ops);
    EXPECT_GT(r.stats.stall(StallCause::kCompute), 0u);
  }
}

TEST(CycleAccounting, HybridRegionBucketsSumToPhaseTotals) {
  const Workload wl = small_workload(11);
  const Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult r =
      accelerator.run_layer({.flow = Dataflow::kHybrid, .a_hat = &wl.a_hat,
                             .x = &wl.x, .w = &wl.w});

  // Each region's buckets sum to that region's cycle count (the
  // scaled region-2 split preserves the invariant by construction).
  for (std::size_t region = 0; region < 3; ++region) {
    expect_accounted(r.hybrid_info.region_stats[region],
                     "region " + std::to_string(region + 1));
  }
  // Regions 2+3 partition the shared RWP phase bucket-by-bucket, and
  // all three regions partition the aggregation phase.
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    SCOPED_TRACE(stall_cause_key(static_cast<StallCause>(i)));
    EXPECT_EQ(r.hybrid_info.region_stats[1].stall_cycles[i] +
                  r.hybrid_info.region_stats[2].stall_cycles[i],
              r.hybrid_info.rwp_phase_stats.stall_cycles[i]);
    EXPECT_EQ(r.hybrid_info.region_stats[0].stall_cycles[i] +
                  r.hybrid_info.rwp_phase_stats.stall_cycles[i],
              r.aggregation_stats.stall_cycles[i]);
  }
}

TEST(CycleAccounting, ObserverDoesNotChangeCyclesOrBuckets) {
  const Workload wl = small_workload(13);
  const Accelerator accelerator{AcceleratorConfig{}};
  for (const Dataflow flow :
       {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const LayerRunResult bare =
        accelerator.run_layer({.flow = flow, .a_hat = &wl.a_hat, .x = &wl.x,
                               .w = &wl.w});
    ObserverOptions oopts;
    oopts.trace = true;
    oopts.sample_interval = 1;
    Observer obs(oopts);
    obs.begin_run("accounting");
    const LayerRunResult observed =
        accelerator.run_layer({.flow = flow, .a_hat = &wl.a_hat, .x = &wl.x,
                               .w = &wl.w, .observer = &obs});
    EXPECT_EQ(std::uint64_t{bare.stats.cycles},
              std::uint64_t{observed.stats.cycles});
    EXPECT_EQ(bare.stats.stall_cycles, observed.stats.stall_cycles);
    // The stall gauges mirror the final cumulative buckets.
    for (std::size_t i = 0; i < kStallCauseCount; ++i) {
      const std::string name =
          std::string("stall.") +
          stall_cause_key(static_cast<StallCause>(i));
      EXPECT_EQ(obs.metrics().gauge(name).value(),
                static_cast<std::int64_t>(observed.stats.stall_cycles[i]))
          << name;
    }
  }
}

TEST(CycleAccounting, ConstrainedMemorySystemShiftsBlameToMemory) {
  const Workload wl = small_workload(17);
  AcceleratorConfig starved;
  starved.dram_bytes_per_cycle = 8;
  starved.dram_latency = 400;
  starved.dmb_bytes = 8 * kLineBytes;
  const Accelerator slow{starved};
  const Accelerator fast{AcceleratorConfig{}};
  const LayerRunResult r_slow =
      slow.run_layer({.flow = Dataflow::kRowWiseProduct, .a_hat = &wl.a_hat,
                      .x = &wl.x, .w = &wl.w});
  const LayerRunResult r_fast =
      fast.run_layer({.flow = Dataflow::kRowWiseProduct, .a_hat = &wl.a_hat,
                      .x = &wl.x, .w = &wl.w});
  expect_accounted(r_slow.stats, "starved layer");
  const auto memory_share = [](const SimStats& s) {
    return static_cast<double>(stall_group_memory(s.stall_cycles)) /
           static_cast<double>(s.cycles);
  };
  EXPECT_GT(memory_share(r_slow.stats), memory_share(r_fast.stats));
  EXPECT_EQ(r_slow.stats.bottleneck(), Bottleneck::kMemoryBound);
}

TEST(StallTaxonomy, GroupsPartitionTheTaxonomy) {
  std::array<Cycle, kStallCauseCount> stalls{};
  for (std::size_t i = 0; i < kStallCauseCount; ++i) stalls[i] = i + 1;
  const Cycle total = stall_group_compute(stalls) +
                      stall_group_memory(stalls) +
                      stall_group_merge(stalls);
  Cycle expected = 0;
  for (const Cycle c : stalls) expected += c;
  EXPECT_EQ(total, expected);
}

TEST(StallTaxonomy, ClassifiesEachGroupAndBreaksTiesTowardMemory) {
  std::array<Cycle, kStallCauseCount> stalls{};
  stalls[static_cast<std::size_t>(StallCause::kCompute)] = 10;
  EXPECT_EQ(classify_bottleneck(stalls), Bottleneck::kComputeBound);
  stalls[static_cast<std::size_t>(StallCause::kDramLatency)] = 11;
  EXPECT_EQ(classify_bottleneck(stalls), Bottleneck::kMemoryBound);
  stalls[static_cast<std::size_t>(StallCause::kMergeRmw)] = 12;
  EXPECT_EQ(classify_bottleneck(stalls), Bottleneck::kMergeBound);
  // Exact tie between memory and merge resolves to memory.
  stalls[static_cast<std::size_t>(StallCause::kDramLatency)] = 12;
  EXPECT_EQ(classify_bottleneck(stalls), Bottleneck::kMemoryBound);
}

TEST(StallTaxonomy, ScaleStatsPreservesTheAccountingInvariant) {
  SimStats s;
  s.cycles = 1001;
  s.account(StallCause::kCompute, 334);
  s.account(StallCause::kDramLatency, 333);
  s.account(StallCause::kDrain, 334);
  for (const double f : {0.0, 0.1, 1.0 / 3.0, 0.5, 0.999, 1.0}) {
    const SimStats scaled = scale_stats(s, f);
    EXPECT_EQ(scaled.stall_total(), std::uint64_t{scaled.cycles})
        << "fraction " << f;
    const SimStats rest = stats_delta(s, scaled);
    EXPECT_EQ(rest.stall_total(), std::uint64_t{rest.cycles})
        << "fraction " << f;
  }
}

}  // namespace
}  // namespace hymm
