// Randomized property sweep: across graph models, sizes, densities
// and accelerator configurations, every dataflow must (a) compute the
// golden result exactly, (b) keep its counters self-consistent, and
// (c) leave no partial-output state behind.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"

namespace hymm {
namespace {

struct SweepCase {
  std::string name;
  AcceleratorConfig config;
};

std::vector<SweepCase> sweep_configs() {
  std::vector<SweepCase> cases;
  cases.push_back({"paper_default", AcceleratorConfig{}});

  AcceleratorConfig tiny_buffer;
  tiny_buffer.dmb_bytes = 8 * kLineBytes;
  cases.push_back({"tiny_dmb", tiny_buffer});

  AcceleratorConfig fifo;
  fifo.eviction_policy = EvictionPolicy::kFifo;
  cases.push_back({"fifo_eviction", fifo});

  AcceleratorConfig no_accumulator;
  no_accumulator.near_memory_accumulator = false;
  cases.push_back({"hybrid_without_accumulator", no_accumulator});

  AcceleratorConfig op_with_accumulator;
  op_with_accumulator.op_baseline_accumulator = true;
  cases.push_back({"op_with_accumulator", op_with_accumulator});

  AcceleratorConfig no_prefetch;
  no_prefetch.op_prefetch_columns = 0;
  cases.push_back({"no_op_prefetch", no_prefetch});

  AcceleratorConfig tight_queues;
  tight_queues.lsq_entries = 8;
  tight_queues.engine_window = 4;
  tight_queues.dmb_mshr_entries = 2;
  tight_queues.dram_queue_entries = 4;
  tight_queues.dram_write_buffer_lines = 2;
  cases.push_back({"tight_queues", tight_queues});

  AcceleratorConfig slow_dram;
  slow_dram.dram_bytes_per_cycle = 16;
  slow_dram.dram_latency = 200;
  cases.push_back({"slow_dram", slow_dram});

  AcceleratorConfig no_forwarding;
  no_forwarding.lsq_store_to_load_forwarding = false;
  cases.push_back({"no_forwarding", no_forwarding});

  AcceleratorConfig wide_tiling;
  wide_tiling.tiling_threshold = 0.5;
  cases.push_back({"tiling_50pct", wide_tiling});

  AcceleratorConfig zero_tiling;
  zero_tiling.tiling_threshold = 0.0;
  cases.push_back({"tiling_0pct", zero_tiling});
  return cases;
}

CsrMatrix sweep_graph(std::uint64_t seed) {
  // Alternate between the generators to vary the structure.
  if (seed % 3 == 0) {
    RmatSpec spec;
    spec.nodes = 150 + static_cast<NodeId>(seed % 5) * 37;
    spec.edges = spec.nodes * 7;
    spec.seed = seed;
    return generate_rmat_graph(spec);
  }
  if (seed % 3 == 1) {
    return generate_uniform_graph(120 + (seed % 7) * 23, 1100, seed);
  }
  GraphSpec spec;
  spec.nodes = 130 + static_cast<NodeId>(seed % 11) * 29;
  spec.edges = spec.nodes * 9;
  spec.seed = seed;
  return generate_power_law_graph(spec);
}

class ConfigSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigSweep, AllDataflowsVerifyUnderEveryConfig) {
  const SweepCase sweep = sweep_configs()[GetParam()];
  SCOPED_TRACE(sweep.name);

  const std::uint64_t seed = 100 + GetParam();
  const CsrMatrix a_hat = normalize_adjacency(sweep_graph(seed));
  FeatureSpec fspec;
  fspec.nodes = a_hat.rows();
  fspec.feature_length = 48 + (seed % 3) * 16;
  fspec.density = 0.1 + 0.2 * static_cast<double>(seed % 4);
  fspec.seed = seed + 1;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(x.cols(), 16, seed + 2);
  const DenseMatrix expected =
      gcn_layer_reference(a_hat, x, w, false).aggregation;

  const Accelerator accelerator(sweep.config);
  for (const Dataflow flow :
       {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const LayerRunResult r = accelerator.run_layer(
        {.flow = flow, .a_hat = &a_hat, .x = &x, .w = &w});

    // (a) Exact functional result.
    EXPECT_TRUE(DenseMatrix::allclose(r.output, expected, 1e-3, 1e-4))
        << "max err " << DenseMatrix::max_abs_diff(r.output, expected);

    // (b) Counter consistency.
    EXPECT_EQ(r.stats.mac_ops, x.nnz() + a_hat.nnz());
    EXPECT_LE(r.stats.alu_busy_cycles, r.stats.cycles);
    EXPECT_GE(r.stats.cycles, r.stats.mac_ops);  // 1 op/cycle ceiling
    EXPECT_EQ(r.stats.cycles,
              r.combination_stats.cycles + r.aggregation_stats.cycles);
    std::uint64_t class_sum = 0;
    for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
      class_sum +=
          r.stats.dram_read_bytes[c] + r.stats.dram_write_bytes[c];
    }
    EXPECT_EQ(class_sum, r.stats.dram_total_bytes());

    // Cycle accounting: every cycle lands in exactly one stall
    // bucket, per phase and for the whole layer, and compute cycles
    // equal retired MACs.
    EXPECT_EQ(r.stats.stall_total(), std::uint64_t{r.stats.cycles});
    EXPECT_EQ(r.combination_stats.stall_total(),
              std::uint64_t{r.combination_stats.cycles});
    EXPECT_EQ(r.aggregation_stats.stall_total(),
              std::uint64_t{r.aggregation_stats.cycles});
    EXPECT_EQ(r.stats.stall(StallCause::kCompute), r.stats.mac_ops);
    if (flow == Dataflow::kHybrid) {
      for (std::size_t region = 0; region < 3; ++region) {
        const SimStats& rs = r.hybrid_info.region_stats[region];
        EXPECT_EQ(rs.stall_total(), std::uint64_t{rs.cycles})
            << "region " << region + 1;
      }
    }

    // (c) No leaked partial-output state.
    EXPECT_EQ(r.stats.partial_bytes_now, 0u)
        << "unmerged partial bytes left behind";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigSweep,
    ::testing::Range<std::size_t>(0, sweep_configs().size()),
    [](const auto& info) { return sweep_configs()[info.param].name; });

// Seed sweep at the paper's default configuration: many random
// graphs, one invariant bundle.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DataflowsAgreeWithEachOther) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a_hat = normalize_adjacency(sweep_graph(seed));
  FeatureSpec fspec;
  fspec.nodes = a_hat.rows();
  fspec.feature_length = 32;
  fspec.density = 0.25;
  fspec.seed = seed * 13 + 1;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(32, 16, seed * 17 + 2);

  const Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult rwp =
      accelerator.run_layer({.flow = Dataflow::kRowWiseProduct, .a_hat = &a_hat,
                             .x = &x, .w = &w});
  const LayerRunResult op =
      accelerator.run_layer({.flow = Dataflow::kOuterProduct, .a_hat = &a_hat,
                             .x = &x, .w = &w});
  const LayerRunResult hymm =
      accelerator.run_layer({.flow = Dataflow::kHybrid, .a_hat = &a_hat,
                             .x = &x, .w = &w});
  // All three computed the same function.
  EXPECT_TRUE(DenseMatrix::allclose(rwp.output, op.output, 1e-3, 1e-4));
  EXPECT_TRUE(DenseMatrix::allclose(rwp.output, hymm.output, 1e-3, 1e-4));
  // OP without the near-memory accumulator moves the most DRAM bytes.
  EXPECT_GE(op.stats.dram_total_bytes(), rwp.stats.dram_total_bytes());
  EXPECT_GE(op.stats.dram_total_bytes(), hymm.stats.dram_total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace hymm
