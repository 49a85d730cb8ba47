// Sweep-executor invariants: a multi-threaded sweep returns results
// in stable grid order with per-cell counters bit-identical to the
// serial path, the WorkloadCache builds each (spec, scale, seed) key
// exactly once no matter how many threads race on it, and observer
// groups serialize their cells in grid order.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "linalg/gcn.hpp"
#include "sweep/sweep.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {
namespace {

SweepSpec small_grid() {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR"), *find_dataset("AP")};
  AcceleratorConfig small_dmb;
  small_dmb.dmb_bytes = 64 * 1024;
  spec.configs = {AcceleratorConfig{}, small_dmb};
  spec.scale = 0.05;
  spec.seed = 3;
  return spec;
}

// Every counter a perf snapshot or figure reads must be bit-identical
// between a serial and a 4-worker run of the same grid.
TEST(SweepDeterminism, ThreadCountDoesNotChangeResults) {
  const SweepSpec spec = small_grid();

  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepRunner serial(serial_options);
  const SweepRun base = serial.run(spec);

  SweepOptions parallel_options;
  parallel_options.threads = 4;
  SweepRunner parallel(parallel_options);
  const SweepRun threaded = parallel.run(spec);

  ASSERT_EQ(base.cells.size(), threaded.cells.size());
  ASSERT_EQ(base.cells.size(),
            spec.datasets.size() * spec.configs.size() * spec.flows.size());
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const ExperimentResult& a = base.cells[i].result;
    const ExperimentResult& b = threaded.cells[i].result;
    SCOPED_TRACE(a.abbrev + "/" + to_string(a.flow) + " cell " +
                 std::to_string(i));
    EXPECT_EQ(base.cells[i].cell.index, i);
    EXPECT_EQ(threaded.cells[i].cell.index, i);
    EXPECT_EQ(a.abbrev, b.abbrev);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mac_ops, b.mac_ops);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    EXPECT_EQ(a.partial_bytes_peak, b.partial_bytes_peak);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
  }
}

// The threaded sweep must match the historical serial path
// (compare_dataflows) cycle-for-cycle, including the hybrid whose
// degree sort the sweep precomputes and shares.
TEST(SweepDeterminism, MatchesCompareDataflows) {
  const DatasetSpec cr = *find_dataset("CR");

  SweepSpec spec;
  spec.datasets = {cr};
  spec.scale = 0.25;
  spec.seed = 42;
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  const SweepRun run = runner.run(spec);

  const DataflowComparison reference =
      compare_dataflows(cr, AcceleratorConfig{}, spec.flows, 0.25, 42);
  ASSERT_EQ(run.cells.size(), reference.results.size());
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const ExperimentResult& a = run.cells[i].result;
    const ExperimentResult& b = reference.results[i];
    SCOPED_TRACE(to_string(b.flow));
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
  }
}

// Cells expand dataset-major, then config, then flow, with index
// equal to the position — the contract bench_common's [config][dataset]
// indexing decodes.
TEST(SweepSpecTest, CellsExpandInStableGridOrder) {
  const SweepSpec spec = small_grid();
  const std::vector<SweepCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u * 2u * 3u);
  std::size_t i = 0;
  for (std::size_t d = 0; d < spec.datasets.size(); ++d) {
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
      for (const Dataflow flow : spec.flows) {
        SCOPED_TRACE(i);
        EXPECT_EQ(cells[i].index, i);
        EXPECT_EQ(cells[i].spec.abbrev, spec.datasets[d].abbrev);
        EXPECT_EQ(cells[i].config_index, c);
        EXPECT_EQ(cells[i].flow, flow);
        EXPECT_EQ(cells[i].scale, 0.05);
        EXPECT_EQ(cells[i].seed, 3u);
        ++i;
      }
    }
  }
}

// One grid's worth of flows and configs shares a single workload
// build per dataset.
TEST(SweepRunnerTest, CacheBuildsOncePerDataset) {
  const SweepSpec spec = small_grid();
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  runner.run(spec);
  EXPECT_EQ(runner.cache().build_count(), spec.datasets.size());
}

// Cells mapped to one group share an Observer and run serially in
// grid order; groups come back ordered by their first cell.
TEST(SweepRunnerTest, GroupsShareOneObserverAndKeepGridOrder) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.05;

  SweepOptions options;
  options.threads = 4;
  options.observe = true;
  options.group_key = [](const SweepCell&) { return std::string("all"); };
  SweepRunner runner(options);
  const SweepRun run = runner.run(spec);

  ASSERT_EQ(run.groups.size(), 1u);
  const SweepGroup& group = run.groups.front();
  EXPECT_NE(group.observer, nullptr);
  ASSERT_EQ(group.cells.size(), spec.flows.size());
  for (std::size_t i = 0; i < group.cells.size(); ++i) {
    EXPECT_EQ(group.cells[i], i);
  }
  // The shared observer saw one run per flow (pid 0-based, bumped on
  // every begin_run after the first).
  EXPECT_EQ(group.observer->run_pid(),
            static_cast<int>(spec.flows.size()) - 1);
}

// A worker exception surfaces on the calling thread instead of being
// swallowed (here: a grid whose dataset cannot be built).
TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(hits.size(), threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
  // Zero items is a no-op, not a hang.
  parallel_for(0, 4, [](std::size_t) { FAIL() << "body ran for count=0"; });
}

TEST(ParallelForTest, PropagatesTheFirstException) {
  EXPECT_THROW(parallel_for(8, 4,
                            [](std::size_t i) {
                              if (i % 2 == 1) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(SweepRunnerTest, WorkerExceptionsPropagate) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.05;
  spec.configs[0].dmb_bytes = 0;  // rejected by the accelerator's checks
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  EXPECT_THROW(runner.run(spec), std::exception);
}

// The request API is deterministic: running the identical request
// twice produces bit-identical results. (The deprecated positional
// run_experiment overload this used to compare against is gone.)
TEST(ExperimentRequestTest, RepeatedRequestIsDeterministic) {
  PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);

  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.flow = Dataflow::kRowWiseProduct;
  const ExperimentResult first = run_experiment(request);
  const ExperimentResult second = run_experiment(request);

  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.dram_total_bytes, second.dram_total_bytes);
  EXPECT_EQ(first.stats.stall_cycles, second.stats.stall_cycles);
  EXPECT_TRUE(first.verified);
}

// Handing the hybrid its precomputed degree sort must not change the
// simulated cycles — sorting is host-side preprocessing.
TEST(ExperimentRequestTest, PrecomputedSortDoesNotChangeCycles) {
  PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);

  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.flow = Dataflow::kHybrid;
  const ExperimentResult internal_sort = run_experiment(request);

  request.sort = &prepared.sort();
  request.sorted_features = &prepared.sorted_features();
  const ExperimentResult precomputed_sort = run_experiment(request);

  EXPECT_EQ(internal_sort.cycles, precomputed_sort.cycles);
  EXPECT_EQ(internal_sort.dram_total_bytes,
            precomputed_sort.dram_total_bytes);
  EXPECT_EQ(internal_sort.stats.stall_cycles,
            precomputed_sort.stats.stall_cycles);
  EXPECT_TRUE(precomputed_sort.verified);
}

TEST(WorkloadCacheTest, ConcurrentGetsBuildOnce) {
  WorkloadCache cache;
  const DatasetSpec cr = *find_dataset("CR");

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PreparedWorkload>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = cache.get(cr, 0.05, 7);
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(cache.build_count(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // same shared instance, not a copy
  }
}

TEST(WorkloadCacheTest, DistinctKeysBuildSeparately) {
  WorkloadCache cache;
  const DatasetSpec cr = *find_dataset("CR");
  const auto a = cache.get(cr, 0.05, 7);
  const auto b = cache.get(cr, 0.05, 8);   // different seed
  const auto c = cache.get(cr, 0.10, 7);   // different scale
  const auto again = cache.get(cr, 0.05, 7);
  EXPECT_EQ(cache.build_count(), 3u);
  EXPECT_EQ(a, again);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(WorkloadCacheTest, PreparedWorkloadMatchesManualBuild) {
  const DatasetSpec cr = *find_dataset("CR");
  PreparedWorkload prepared(cr, 0.1, 42);

  const GcnWorkload manual = build_workload(cr, 0.1, 42);
  const CsrMatrix a_hat = normalize_adjacency(manual.adjacency);
  const DenseMatrix weights = DenseMatrix::random(
      manual.features.cols(), manual.spec.layer_dim, 42 + 7);

  EXPECT_EQ(prepared.workload().adjacency.nnz(), manual.adjacency.nnz());
  EXPECT_EQ(prepared.a_hat().nnz(), a_hat.nnz());
  ASSERT_EQ(prepared.weights().rows(), weights.rows());
  ASSERT_EQ(prepared.weights().cols(), weights.cols());
  for (NodeId r = 0; r < weights.rows(); ++r) {
    for (NodeId c = 0; c < weights.cols(); ++c) {
      EXPECT_EQ(prepared.weights().at(r, c), weights.at(r, c));
    }
  }
}

// Dispatch order is a pure function of the cells and groups, so it is
// tested directly rather than through timing. The photo-dse shape
// (perfbench): one workload, hybrid only, 3 DMB sizes x 5 thresholds,
// DMB-major, every cell its own group. The checkpoint key ignores the
// threshold, so each DMB size is one build class and its first cell
// (groups 0, 5, 10) must start before any cell that restores from it.
TEST(SweepDispatch, PhotoDseGridStartsEveryBuildFirst) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("AP")};
  spec.scale = 1.0;
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (const std::size_t kb : {128u, 256u, 512u}) {
    for (const double threshold : {0.05, 0.1, 0.2, 0.35, 0.5}) {
      AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.tiling_threshold = threshold;
      spec.configs.push_back(config);
    }
  }
  const std::vector<SweepCell> cells = spec.cells();
  const std::vector<SweepGroup> groups = group_cells(cells, nullptr);
  ASSERT_EQ(groups.size(), 15u);
  EXPECT_EQ(dispatch_order(cells, groups),
            (std::vector<std::size_t>{0, 5, 10, 1, 2, 3, 4, 6, 7, 8, 9, 11,
                                      12, 13, 14}));
}

// Bench-style grouping (one group per dataset x config, all three
// flows inside): with configs that differ only in the threshold, each
// dataset's first group holds all of that dataset's build classes, so
// both start before any other group — the two workload builds overlap.
TEST(SweepDispatch, BenchGroupsStartEachDatasetsFirstGroupFirst) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR"), *find_dataset("AP")};
  spec.scale = 0.05;
  spec.configs.clear();
  for (const double threshold : {0.1, 0.2, 0.3}) {
    AcceleratorConfig config;
    config.tiling_threshold = threshold;
    spec.configs.push_back(config);
  }
  const std::vector<SweepCell> cells = spec.cells();
  const std::vector<SweepGroup> groups =
      group_cells(cells, [](const SweepCell& cell) {
        return cell.spec.abbrev + "#" + std::to_string(cell.config_index);
      });
  ASSERT_EQ(groups.size(), 6u);
  EXPECT_EQ(groups[0].key, "CR#0");
  EXPECT_EQ(groups[3].key, "AP#0");
  EXPECT_EQ(dispatch_order(cells, groups),
            (std::vector<std::size_t>{0, 3, 1, 2, 4, 5}));
}

// One build class: only the first group builds, so dispatch keeps grid
// order.
TEST(SweepDispatch, SingleBuildClassKeepsGridOrder) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.05;
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (const double threshold : {0.1, 0.2, 0.3, 0.4}) {
    AcceleratorConfig config;
    config.tiling_threshold = threshold;
    spec.configs.push_back(config);
  }
  const std::vector<SweepCell> cells = spec.cells();
  const std::vector<SweepGroup> groups = group_cells(cells, nullptr);
  EXPECT_EQ(dispatch_order(cells, groups),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

}  // namespace
}  // namespace hymm
