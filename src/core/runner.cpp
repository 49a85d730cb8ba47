#include "core/runner.hpp"

#include <chrono>

#include "common/check.hpp"

namespace hymm {

ExperimentResult run_experiment(const ExperimentRequest& request) {
  HYMM_CHECK(request.workload != nullptr && request.a_hat != nullptr &&
             request.weights != nullptr && request.reference != nullptr);
  const GcnWorkload& workload = *request.workload;
  const AcceleratorConfig& config = request.config;
  const DenseMatrix& reference_output = *request.reference;

  Accelerator accelerator(config);
  LayerRunRequest layer_request;
  layer_request.flow = request.flow;
  layer_request.a_hat = request.a_hat;
  layer_request.x = &workload.features;
  layer_request.w = request.weights;
  layer_request.observer = request.observer;
  layer_request.sort = request.sort;
  layer_request.sorted_features = request.sorted_features;
  layer_request.checkpoints = request.checkpoints;
  if (request.sample > 0.0) {
    // Sampled mode: seeded band subset + extrapolation instead of the
    // full cycle-accurate run. No functional output, so the result is
    // never verified; observer and checkpoints do not apply.
    layer_request.sample = SampleOptions{.fraction = request.sample,
                                         .seed = request.sample_seed};
  }
  const auto sim_begin = std::chrono::steady_clock::now();
  const LayerRunResult layer = accelerator.run_layer(layer_request);
  const auto sim_end = std::chrono::steady_clock::now();

  ExperimentResult r;
  r.sim_wall_ms =
      std::chrono::duration<double, std::milli>(sim_end - sim_begin)
          .count();
  r.dataset = workload.spec.name;
  r.abbrev = workload.spec.abbrev;
  r.scale = workload.scale;
  r.flow = request.flow;
  r.cycles = layer.stats.cycles;
  r.alu_utilization = layer.stats.alu_utilization();
  r.dmb_hit_rate = layer.stats.dmb_hit_rate();
  r.dram_total_bytes = layer.stats.dram_total_bytes();
  r.dram_read_bytes = layer.stats.dram_read_bytes;
  r.dram_write_bytes = layer.stats.dram_write_bytes;
  r.partial_bytes_peak = layer.stats.partial_bytes_peak;
  r.mac_ops = layer.stats.mac_ops;
  r.dram_peak_bytes_per_cycle = config.dram_bytes_per_cycle;
  r.combination_cycles = layer.combination_stats.cycles;
  r.aggregation_cycles = layer.aggregation_stats.cycles;
  r.preprocess_ms = layer.preprocess_ms;
  r.partition = layer.partition;
  r.stats = layer.stats;
  r.combination_stats = layer.combination_stats;
  r.aggregation_stats = layer.aggregation_stats;
  r.hybrid_info = layer.hybrid_info;
  r.checkpoint = layer.checkpoint;
  r.sample = layer.sample;
  if (r.sample.enabled) return r;  // nothing to verify or observe
  r.max_abs_err =
      DenseMatrix::max_abs_diff(layer.output, reference_output);
  r.verified = DenseMatrix::allclose(layer.output, reference_output,
                                     /*rtol=*/1e-3, /*atol=*/1e-4);
  if (request.observer != nullptr) {
    r.histograms = request.observer->take_run_histograms();
    if (request.observer->timeseries_enabled()) {
      r.timeseries = request.observer->take_timeseries();
    }
    if (request.observer->spatial_enabled()) {
      r.spatial = request.observer->take_spatial();
      if (!r.spatial.empty()) {
        // Conservation invariants of the spatial attribution: the
        // per-lane model retires exactly one array op per busy cycle,
        // every DRAM line lands in a tile or the residual, and every
        // accounted cycle is attributed somewhere. Checked once per
        // run, so they stay on in Release builds.
        HYMM_CHECK(r.spatial.array_busy_cycles ==
                   layer.stats.alu_busy_cycles);
        HYMM_CHECK(r.spatial.total_dram_bytes() ==
                   layer.stats.dram_total_bytes());
        HYMM_CHECK(r.spatial.total_cycles() == layer.stats.cycles);
      }
    }
  }
  return r;
}

const ExperimentResult& DataflowComparison::by_flow(Dataflow flow) const {
  for (const ExperimentResult& r : results) {
    if (r.flow == flow) return r;
  }
  HYMM_CHECK_MSG(false, "dataflow " << to_string(flow) << " not in run");
  return results.front();  // unreachable
}

DataflowComparison compare_dataflows(const DatasetSpec& spec,
                                     const AcceleratorConfig& config,
                                     const std::vector<Dataflow>& flows,
                                     double scale, std::uint64_t seed,
                                     Observer* obs) {
  const double effective_scale = scale < 0.0 ? default_scale(spec) : scale;
  const GcnWorkload workload = build_workload(spec, effective_scale, seed);

  const CsrMatrix a_hat = normalize_adjacency(workload.adjacency);
  const DenseMatrix weights = DenseMatrix::random(
      workload.spec.feature_length, workload.spec.layer_dim, seed + 7);
  const GcnLayerResult golden = gcn_layer_reference(
      a_hat, workload.features, weights, /*apply_relu=*/false);

  DataflowComparison comparison;
  comparison.spec = workload.spec;
  comparison.scale = effective_scale;
  for (const Dataflow flow : flows) {
    if (obs != nullptr) {
      obs->begin_run(to_string(flow) + "/" + workload.spec.abbrev);
    }
    ExperimentRequest request;
    request.workload = &workload;
    request.a_hat = &a_hat;
    request.weights = &weights;
    request.reference = &golden.aggregation;
    request.flow = flow;
    request.config = config;
    request.observer = obs;
    comparison.results.push_back(run_experiment(request));
  }
  return comparison;
}

}  // namespace hymm
