#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

std::vector<SweepCell> SweepSpec::cells() const {
  std::vector<SweepCell> cells;
  const std::size_t dataset_count = datasets.size() + workloads.size();
  cells.reserve(dataset_count * configs.size() * flows.size());
  HYMM_CHECK_MSG(!configs.empty(), "SweepSpec with no configs");
  HYMM_CHECK_MSG(!flows.empty(), "SweepSpec with no flows");
  HYMM_CHECK_MSG(dataset_count > 0, "SweepSpec with no workloads");
  const auto expand = [&](const DatasetSpec& spec, double effective_scale,
                          std::shared_ptr<const PreparedWorkload> prepared) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      for (const Dataflow flow : flows) {
        SweepCell cell;
        cell.index = cells.size();
        cell.spec = spec;
        cell.scale = effective_scale;
        cell.seed = seed;
        cell.config_index = c;
        cell.config = configs[c];
        cell.flow = flow;
        cell.prepared = prepared;
        cells.push_back(std::move(cell));
      }
    }
  };
  for (const DatasetSpec& spec : datasets) {
    expand(spec, scale.value_or(default_scale(spec)), nullptr);
  }
  for (const std::shared_ptr<const PreparedWorkload>& prepared : workloads) {
    HYMM_CHECK(prepared != nullptr);
    expand(prepared->workload().spec, prepared->workload().scale, prepared);
  }
  return cells;
}

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HYMM_THREADS")) {
    const unsigned parsed = static_cast<unsigned>(
        parse_u64_value("HYMM_THREADS", env, 0, 4096));
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned workers = std::min<unsigned>(
      resolve_thread_count(threads), static_cast<unsigned>(count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::vector<SweepGroup> group_cells(
    const std::vector<SweepCell>& cells,
    const std::function<std::string(const SweepCell&)>& group_key) {
  std::vector<SweepGroup> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  for (const SweepCell& cell : cells) {
    const std::string key = group_key ? group_key(cell)
                                      : "cell:" + std::to_string(cell.index);
    const auto [it, inserted] = group_index.emplace(key, groups.size());
    if (inserted) groups.push_back(SweepGroup{key, {}, nullptr});
    groups[it->second].cells.push_back(cell.index);
  }
  return groups;
}

std::vector<std::size_t> dispatch_order(const std::vector<SweepCell>& cells,
                                        const std::vector<SweepGroup>& groups) {
  // Build class: workload identity x timing config x dataflow. Cells of
  // one class share a CheckpointKey and a WorkloadCache entry; a missed
  // sharing only costs wall time, never correctness.
  const auto build_class = [](const SweepCell& cell) {
    std::ostringstream key;
    if (cell.prepared != nullptr) {
      key << "prepared:" << cell.prepared.get();
    } else {
      key << WorkloadCache::key_of(cell.spec, cell.scale, cell.seed);
    }
    key << '|' << timing_config_hash(cell.config) << '|'
        << to_string(cell.flow);
    return key.str();
  };
  std::unordered_set<std::string> seen;
  std::vector<std::size_t> builders;
  std::vector<std::size_t> restorers;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    bool first_holder = false;
    for (const std::size_t index : groups[gi].cells) {
      if (seen.insert(build_class(cells[index])).second) first_holder = true;
    }
    (first_holder ? builders : restorers).push_back(gi);
  }
  builders.insert(builders.end(), restorers.begin(), restorers.end());
  return builders;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

SweepRun SweepRunner::run(const SweepSpec& spec) {
  const std::vector<SweepCell> cells = spec.cells();

  SweepRun run;
  run.cells.resize(cells.size());
  run.groups = group_cells(cells, options_.group_key);

  // --- Execute groups on a worker pool, builders first ---
  std::mutex start_mutex;
  const auto run_group = [&](SweepGroup& group) {
    if (options_.observe) {
      group.observer = std::make_shared<Observer>(options_.observer_options);
    }
    if (options_.on_group_start) {
      const std::lock_guard<std::mutex> lock(start_mutex);
      options_.on_group_start(cells[group.cells.front()]);
    }
    for (const std::size_t index : group.cells) {
      const SweepCell& cell = cells[index];
      const std::shared_ptr<const PreparedWorkload> prepared =
          cell.prepared != nullptr
              ? cell.prepared
              : cache_.get(cell.spec, cell.scale, cell.seed);
      if (group.observer != nullptr) {
        group.observer->begin_run(to_string(cell.flow) + "/" +
                                  prepared->workload().spec.abbrev);
      }
      ExperimentRequest request;
      request.workload = &prepared->workload();
      request.a_hat = &prepared->a_hat();
      request.weights = &prepared->weights();
      request.reference = &prepared->reference();
      request.flow = cell.flow;
      request.config = cell.config;
      request.observer = group.observer.get();
      request.checkpoints = options_.checkpoints;
      request.sample = options_.sample;
      request.sample_seed = cell.seed;
      if (cell.flow == Dataflow::kHybrid) {
        request.sort = &prepared->sort();
        request.sorted_features = &prepared->sorted_features();
      }
      SweepCellResult& slot = run.cells[index];
      slot.cell = cell;
      slot.scaled_spec = prepared->workload().spec;
      slot.result = run_experiment(request);
    }
  };

  const std::vector<std::size_t> order = dispatch_order(cells, run.groups);
  parallel_for(order.size(), options_.threads,
               [&](std::size_t i) { run_group(run.groups[order[i]]); });
  return run;
}

}  // namespace hymm
