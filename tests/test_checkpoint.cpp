// Warm-state checkpoint/restore (sim/checkpoint.hpp): blob framing
// rejects corruption, keys and their graph/config digests are stable
// and ignore aggregation-only knobs, restored runs are bit-identical
// to cold ones, concurrent sweep cells sharing a workload build the
// checkpoint exactly once, and a corrupted persisted file degrades to
// a cold rebuild — never an error.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "graph/datasets.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "sim/checkpoint.hpp"
#include "sweep/sweep.hpp"

namespace hymm {
namespace {

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

Problem make_problem(NodeId nodes = 200, EdgeCount edges = 2400,
                     NodeId features = 64, double density = 0.3,
                     std::uint64_t seed = 42) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = features;
  fspec.density = density;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(features, 16, seed + 2);
  return p;
}

std::vector<std::byte> payload_of(std::initializer_list<int> values) {
  StateWriter w;
  for (int v : values) w.put_u32(static_cast<std::uint32_t>(v));
  return w.take();
}

TEST(CheckpointBlob, SealOpenRoundTrip) {
  const CheckpointKey key{0x1234, 0xabcd};
  const std::vector<std::byte> payload = payload_of({1, 2, 3, 4});
  const std::vector<std::byte> blob = seal_checkpoint(key, payload);

  const std::byte* view = nullptr;
  std::size_t size = 0;
  ASSERT_TRUE(open_checkpoint(blob, key, &view, &size));
  ASSERT_EQ(size, payload.size());
  EXPECT_EQ(std::vector<std::byte>(view, view + size), payload);
}

TEST(CheckpointBlob, RejectsWrongKey) {
  const CheckpointKey key{1, 2};
  const std::vector<std::byte> blob = seal_checkpoint(key, payload_of({7}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  EXPECT_FALSE(open_checkpoint(blob, CheckpointKey{1, 3}, &view, &size));
  EXPECT_FALSE(open_checkpoint(blob, CheckpointKey{9, 2}, &view, &size));
}

TEST(CheckpointBlob, RejectsEveryFlippedByte) {
  const CheckpointKey key{42, 43};
  const std::vector<std::byte> good = seal_checkpoint(key, payload_of({5, 6}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::byte> bad = good;
    bad[i] ^= std::byte{0x01};
    EXPECT_FALSE(open_checkpoint(bad, key, &view, &size))
        << "flip at byte " << i << " accepted";
  }
}

TEST(CheckpointBlob, RejectsTruncation) {
  const CheckpointKey key{42, 43};
  const std::vector<std::byte> good = seal_checkpoint(key, payload_of({5, 6}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, good.size() - 1}) {
    std::vector<std::byte> bad(good.begin(), good.begin() + keep);
    EXPECT_FALSE(open_checkpoint(bad, key, &view, &size))
        << "truncated to " << keep << " bytes accepted";
  }
}

// --- Key digests (graph/fingerprint.hpp) ---

TEST(Fingerprint, StableAndContentSensitive) {
  const Problem p = make_problem();
  const std::uint64_t fp1 = graph_fingerprint(p.a_hat);
  const std::uint64_t fp2 = graph_fingerprint(p.a_hat);
  EXPECT_EQ(fp1, fp2);

  // Any value change moves the fingerprint.
  CsrMatrix perturbed = p.a_hat;
  std::vector<Value> values = perturbed.values();
  values.front() += 1.0f;
  perturbed = CsrMatrix::from_parts(perturbed.rows(), perturbed.cols(),
                                    perturbed.row_ptr(), perturbed.col_idx(),
                                    std::move(values));
  EXPECT_NE(fp1, graph_fingerprint(perturbed));
}

TEST(Fingerprint, ConfigHashIgnoresThresholdAndObservability) {
  AcceleratorConfig base;
  const std::uint64_t h = timing_config_hash(base);

  AcceleratorConfig threshold = base;
  threshold.tiling_threshold = 0.37;
  EXPECT_EQ(h, timing_config_hash(threshold));

  AcceleratorConfig observed = base;
  observed.trace_path = "/tmp/trace.json";
  observed.json_path = "/tmp/report.json";
  observed.obs_sample_interval = 1;
  EXPECT_EQ(h, timing_config_hash(observed));

  AcceleratorConfig resized = base;
  resized.dmb_bytes *= 2;
  EXPECT_NE(h, timing_config_hash(resized));

  AcceleratorConfig repinned = base;
  repinned.dmb_pin_fraction = 0.5;
  EXPECT_NE(h, timing_config_hash(repinned));
}

// The config half deliberately excludes the tiling threshold (it only
// affects aggregation), so sweep cells that differ only in threshold
// share one checkpoint; any timing-relevant knob — or the streamed
// inputs — must split it.
TEST(CheckpointKeying, ThresholdInvariantButTimingSensitive) {
  const Problem p = make_problem();
  AcceleratorConfig base;
  AcceleratorConfig other_threshold = base;
  other_threshold.tiling_threshold = 0.5;
  AcceleratorConfig other_dmb = base;
  other_dmb.dmb_bytes /= 2;

  const Dataflow flow = Dataflow::kRowWiseProduct;
  const CheckpointKey key = combination_checkpoint_key(p.x, p.w, base, flow);
  EXPECT_EQ(combination_checkpoint_key(p.x, p.w, other_threshold, flow), key);
  EXPECT_NE(combination_checkpoint_key(p.x, p.w, other_dmb, flow), key);

  const DenseMatrix other_w = DenseMatrix::random(p.w.rows(), p.w.cols(), 99);
  EXPECT_NE(combination_checkpoint_key(p.x, other_w, base, flow), key);

  // OP streams CSC through a different engine than RWP's CSR pipeline.
  EXPECT_NE(combination_checkpoint_key(p.x, p.w, base,
                                       Dataflow::kOuterProduct),
            key);
}

class CheckpointFlows : public ::testing::TestWithParam<Dataflow> {};

// The headline guarantee: a run that restores the combination phase
// from a checkpoint is bit-identical to the cold run — functional
// outputs, cycles, every stall bucket and DRAM byte.
TEST_P(CheckpointFlows, RestoredRunIsBitIdenticalToCold) {
  const Problem p = make_problem();
  Accelerator acc{AcceleratorConfig{}};

  LayerRunRequest request;
  request.flow = GetParam();
  request.a_hat = &p.a_hat;
  request.x = &p.x;
  request.w = &p.w;
  const LayerRunResult cold = acc.run_layer(request);
  EXPECT_FALSE(cold.checkpoint.enabled);

  CheckpointStore store;
  request.checkpoints = &store;
  const LayerRunResult built = acc.run_layer(request);
  EXPECT_TRUE(built.checkpoint.enabled);
  EXPECT_TRUE(built.checkpoint.built);
  // The builder simulates combination off to the side and restores
  // from its own blob, so even the building run reports restored.
  EXPECT_TRUE(built.checkpoint.restored);
  EXPECT_FALSE(built.checkpoint.key.empty());
  EXPECT_EQ(store.builds(), 1u);

  const LayerRunResult restored = acc.run_layer(request);
  EXPECT_TRUE(restored.checkpoint.restored);
  EXPECT_FALSE(restored.checkpoint.built);
  EXPECT_EQ(restored.checkpoint.key, built.checkpoint.key);
  EXPECT_EQ(store.builds(), 1u);
  EXPECT_GE(store.hits(), 1u);

  for (const LayerRunResult* warm : {&built, &restored}) {
    EXPECT_EQ(warm->stats.cycles, cold.stats.cycles);
    EXPECT_EQ(warm->stats.stall_cycles, cold.stats.stall_cycles);
    EXPECT_EQ(warm->stats.dram_total_bytes(), cold.stats.dram_total_bytes());
    EXPECT_EQ(warm->combination_stats.cycles, cold.combination_stats.cycles);
    EXPECT_EQ(warm->aggregation_stats.cycles, cold.aggregation_stats.cycles);
    EXPECT_EQ(warm->combination, cold.combination);
    EXPECT_EQ(warm->output, cold.output);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, CheckpointFlows,
                         ::testing::Values(Dataflow::kOuterProduct,
                                           Dataflow::kRowWiseProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// A second process (modeled as a fresh store over the same directory)
// restores from disk instead of rebuilding, and a corrupted file on
// disk degrades to a cold rebuild with identical results.
TEST(CheckpointPersistence, DiskRoundTripAndCorruptionFallback) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "hymm_ckpt_persist_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const Problem p = make_problem();
  Accelerator acc{AcceleratorConfig{}};
  LayerRunRequest request;
  request.flow = Dataflow::kHybrid;
  request.a_hat = &p.a_hat;
  request.x = &p.x;
  request.w = &p.w;

  CheckpointStore writer(dir.string());
  request.checkpoints = &writer;
  const LayerRunResult cold = acc.run_layer(request);
  EXPECT_TRUE(cold.checkpoint.built);
  EXPECT_EQ(writer.builds(), 1u);

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u) << "expected exactly one persisted checkpoint";

  // Fresh store, intact file: restored from disk, no rebuild.
  {
    CheckpointStore reader(dir.string());
    request.checkpoints = &reader;
    const LayerRunResult warm = acc.run_layer(request);
    EXPECT_TRUE(warm.checkpoint.restored);
    EXPECT_EQ(reader.builds(), 0u);
    EXPECT_EQ(reader.disk_loads(), 1u);
    EXPECT_EQ(warm.stats.cycles, cold.stats.cycles);
    EXPECT_EQ(warm.stats.stall_cycles, cold.stats.stall_cycles);
    EXPECT_EQ(warm.output, cold.output);
  }

  // Flip one payload byte on disk: the fresh store must notice and
  // fall back to a cold build, still bit-identical.
  {
    std::fstream f(files[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(file_size, 24);
    f.seekg(file_size / 2);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(file_size / 2);
    f.write(&byte, 1);
  }
  {
    CheckpointStore reader(dir.string());
    request.checkpoints = &reader;
    const LayerRunResult rebuilt = acc.run_layer(request);
    EXPECT_TRUE(rebuilt.checkpoint.built);
    EXPECT_EQ(reader.builds(), 1u);
    EXPECT_EQ(rebuilt.stats.cycles, cold.stats.cycles);
    EXPECT_EQ(rebuilt.output, cold.output);
  }

  fs::remove_all(dir);
}

// Sweep integration under a real thread race: four configs differing
// only in the tiling threshold share one workload, so eight workers
// must build the combination checkpoint exactly once — and the
// checkpointed sweep's metrics must match the plain sweep's
// bit-for-bit.
TEST(CheckpointSweep, ConcurrentCellsShareOneBuild) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.1;
  spec.seed = 42;
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (double threshold : {0.1, 0.2, 0.3, 0.4}) {
    AcceleratorConfig config;
    config.tiling_threshold = threshold;
    spec.configs.push_back(config);
  }

  SweepOptions plain;
  plain.threads = 1;
  const SweepRun base = SweepRunner(plain).run(spec);

  CheckpointStore store;
  SweepOptions checkpointed;
  checkpointed.threads = 8;
  checkpointed.checkpoints = &store;
  const SweepRun warm = SweepRunner(checkpointed).run(spec);

  EXPECT_EQ(store.builds(), 1u);
  EXPECT_EQ(store.hits(), 3u);

  ASSERT_EQ(base.cells.size(), warm.cells.size());
  ASSERT_EQ(base.cells.size(), 4u);
  std::size_t builders = 0;
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const ExperimentResult& a = base.cells[i].result;
    const ExperimentResult& b = warm.cells[i].result;
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_TRUE(b.checkpoint.enabled);
    EXPECT_TRUE(b.checkpoint.restored);
    if (b.checkpoint.built) ++builders;
  }
  EXPECT_EQ(builders, 1u);
}

// Two build classes (two DMB sizes x four thresholds) under eight
// workers: builders-first dispatch starts both builds at once, each
// key still builds exactly once, and every cell matches a serial,
// store-less sweep bit-for-bit.
TEST(CheckpointSweep, TwoKeysBuildOnceEachAtEightThreads) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.1;
  spec.seed = 42;
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (const std::size_t kb : {128u, 256u}) {
    for (const double threshold : {0.1, 0.2, 0.3, 0.4}) {
      AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.tiling_threshold = threshold;
      spec.configs.push_back(config);
    }
  }

  SweepOptions plain;
  plain.threads = 1;
  const SweepRun base = SweepRunner(plain).run(spec);

  CheckpointStore store;
  SweepOptions checkpointed;
  checkpointed.threads = 8;
  checkpointed.checkpoints = &store;
  const SweepRun warm = SweepRunner(checkpointed).run(spec);

  EXPECT_EQ(store.builds(), 2u);
  ASSERT_EQ(base.cells.size(), warm.cells.size());
  ASSERT_EQ(base.cells.size(), 8u);
  std::size_t builders = 0;
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const ExperimentResult& a = base.cells[i].result;
    const ExperimentResult& b = warm.cells[i].result;
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(warm.cells[i].cell.index, i);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    EXPECT_TRUE(b.verified);
    EXPECT_TRUE(b.checkpoint.restored);
    if (b.checkpoint.built) ++builders;
  }
  EXPECT_EQ(builders, 2u);
}

}  // namespace
}  // namespace hymm
