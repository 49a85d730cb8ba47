#include "adapter.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/config.hpp"
#include "core/accelerator.hpp"
#include "core/engine.hpp"
#include "linalg/gcn.hpp"
#include "sim/stats.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace {

Counters counters_of(const hymm::SimStats& s) {
  Counters c;
  c.cycles = s.cycles;
  c.skipped_cycles = s.skipped_cycles;
  for (std::size_t i = 0; i < kStallCount; ++i) c.stalls[i] = s.stall_cycles[i];
  c.macs = s.mac_ops;
  c.alu_busy_cycles = s.alu_busy_cycles;
  c.dmb_hits = s.dmb_read_hits + s.dmb_accumulate_hits;
  c.dmb_misses = s.dmb_read_misses + s.dmb_accumulate_misses;
  c.dmb_spills = s.dmb_partial_spills;
  c.lsq_loads = s.lsq_loads;
  c.lsq_forwards = s.lsq_forwards;
  c.dram_read_bytes = s.dram_total_read_bytes();
  c.dram_write_bytes = s.dram_total_write_bytes();
  return c;
}

LayerOutcome layer_of(const hymm::LayerRunResult& r) {
  LayerOutcome out;
  out.combination = counters_of(r.combination_stats);
  out.aggregation = counters_of(r.aggregation_stats);
  out.checkpoint_restored = r.checkpoint.restored;
  out.checkpoint_built = r.checkpoint.built;
  return out;
}

}  // namespace

const char* flow_key(Dataflow flow) {
  switch (flow) {
    case Dataflow::kOuterProduct: return "op";
    case Dataflow::kRowWiseProduct: return "rwp";
    case Dataflow::kHybrid: return "hymm";
  }
  return "?";
}

const char* stall_key(std::size_t i) {
  return hymm::stall_cause_key(static_cast<hymm::StallCause>(i));
}

Counters& Counters::operator+=(const Counters& o) {
  cycles += o.cycles;
  skipped_cycles += o.skipped_cycles;
  for (std::size_t i = 0; i < kStallCount; ++i) stalls[i] += o.stalls[i];
  macs += o.macs;
  alu_busy_cycles += o.alu_busy_cycles;
  dmb_hits += o.dmb_hits;
  dmb_misses += o.dmb_misses;
  dmb_spills += o.dmb_spills;
  lsq_loads += o.lsq_loads;
  lsq_forwards += o.lsq_forwards;
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  return *this;
}

std::uint64_t Counters::stall_sum() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t s : stalls) sum += s;
  return sum;
}

Counters LayerOutcome::total() const {
  Counters t = combination;
  t += aggregation;
  return t;
}

bool LayerOutcome::stalls_balance() const {
  return combination.stall_sum() == combination.cycles &&
         aggregation.stall_sum() == aggregation.cycles;
}

hymm::GcnWorkload build_graph(const std::string& abbrev, double scale,
                              std::uint64_t seed) {
  const auto spec = hymm::find_dataset(abbrev);
  HYMM_CHECK_MSG(spec.has_value(), "unknown dataset " << abbrev);
  return hymm::build_workload(*spec, scale, seed);
}

CsrMatrix normalize(const CsrMatrix& adjacency) {
  return hymm::normalize_adjacency(adjacency);
}

std::unique_ptr<hymm::GcnModel> make_model(
    CsrMatrix a_hat, hymm::NodeId in_dim,
    const std::vector<hymm::NodeId>& dims, std::uint64_t seed) {
  return std::make_unique<hymm::GcnModel>(hymm::GcnModel::with_random_weights(
      std::move(a_hat), in_dim, dims, seed));
}

void sort_inputs(GcnInputs& inputs) {
  inputs.sort = hymm::degree_sort(inputs.model->a_hat());
  inputs.sorted_features =
      hymm::permute_feature_rows(inputs.workload.features, inputs.sort.perm);
}

DenseMatrix golden_output(const GcnInputs& inputs) {
  return inputs.model->reference(inputs.workload.features);
}

InferenceOutcome infer(const GcnInputs& inputs, Dataflow flow) {
  hymm::GcnModel::InferenceRequest request;
  request.flow = flow;
  request.features = &inputs.workload.features;
  request.verify = false;
  request.sort = &inputs.sort;
  request.sorted_features = &inputs.sorted_features;
  hymm::GcnModel::InferenceResult result = inputs.model->run(request);
  InferenceOutcome out;
  for (const hymm::LayerRunResult& layer : result.layers) {
    out.layers.push_back(layer_of(layer));
  }
  out.output = std::move(result.output);
  return out;
}

LayerOutcome run_layer(const GcnInputs& inputs, std::size_t layer,
                       Dataflow flow, const CsrMatrix& x,
                       const CsrMatrix* x_sorted,
                       hymm::CheckpointStore* checkpoints,
                       DenseMatrix* output) {
  const hymm::Accelerator accelerator{hymm::AcceleratorConfig{}};
  hymm::LayerRunRequest request;
  request.flow = flow;
  request.a_hat = &inputs.model->a_hat();
  request.x = &x;
  request.w = &inputs.model->weights().at(layer);
  request.checkpoints = checkpoints;
  if (flow == Dataflow::kHybrid) {
    HYMM_CHECK(x_sorted != nullptr);
    request.sort = &inputs.sort;
    request.sorted_features = x_sorted;
  }
  hymm::LayerRunResult result = accelerator.run_layer(request);
  if (output != nullptr) *output = std::move(result.output);
  return layer_of(result);
}

std::unique_ptr<hymm::CheckpointStore> make_checkpoint_store() {
  return std::make_unique<hymm::CheckpointStore>();
}

CsrMatrix next_layer_input(const DenseMatrix& layer_output) {
  DenseMatrix h = layer_output;
  hymm::relu_inplace(h);
  return hymm::dense_to_csr(h);
}

CsrMatrix sort_rows(const GcnInputs& inputs, const CsrMatrix& x) {
  return hymm::permute_feature_rows(x, inputs.sort.perm);
}

bool matches_golden(const DenseMatrix& output, const DenseMatrix& golden) {
  return output.rows() == golden.rows() && output.cols() == golden.cols() &&
         DenseMatrix::allclose(output, golden, /*rtol=*/1e-3, /*atol=*/1e-4);
}

Prepared prepare(hymm::GcnWorkload workload, std::uint64_t seed) {
  return std::make_shared<const hymm::PreparedWorkload>(std::move(workload),
                                                        seed);
}

void warm_sort(const Prepared& prepared) { (void)prepared->sort(); }

SweepOutcome run_sweep(const Prepared& prepared,
                       const std::vector<std::size_t>& dmb_kb,
                       const std::vector<double>& thresholds,
                       unsigned workers) {
  hymm::SweepSpec spec;
  spec.workloads = {prepared};
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (const std::size_t kb : dmb_kb) {
    for (const double threshold : thresholds) {
      hymm::AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.tiling_threshold = threshold;
      spec.configs.push_back(config);
    }
  }
  hymm::CheckpointStore checkpoints;
  hymm::SweepOptions options;
  options.threads = workers;
  options.checkpoints = &checkpoints;
  hymm::SweepRunner runner(options);
  const hymm::SweepRun run = runner.run(spec);

  SweepOutcome out;
  for (const hymm::SweepCellResult& cell : run.cells) {
    SweepCellOutcome c;
    c.dmb_kb = cell.cell.config.dmb_bytes / 1024;
    c.threshold = cell.cell.config.tiling_threshold;
    c.layer.combination = counters_of(cell.result.combination_stats);
    c.layer.aggregation = counters_of(cell.result.aggregation_stats);
    c.layer.checkpoint_restored = cell.result.checkpoint.restored;
    c.layer.checkpoint_built = cell.result.checkpoint.built;
    c.host_s = cell.result.sim_wall_ms / 1e3;
    c.verified = cell.result.verified;
    out.cells.push_back(c);
  }
  out.checkpoint_builds = checkpoints.builds();
  return out;
}

std::string fast_forward_mode() {
  switch (hymm::fast_forward_mode()) {
    case hymm::FastForwardMode::kOff: return "off";
    case hymm::FastForwardMode::kOn: return "on";
    case hymm::FastForwardMode::kCheck: return "check";
  }
  return "?";
}

}  // namespace perfbench
