#include "serve/cost_model.hpp"

#include "common/check.hpp"
#include "core/gcn_model.hpp"
#include "graph/degree_sort.hpp"
#include "sweep/sweep.hpp"

namespace hymm {

namespace {

ClassCost simulate_one(const RequestClass& cls,
                       const std::vector<DenseMatrix>& weights,
                       Dataflow flow, const AcceleratorConfig& config,
                       CheckpointStore* checkpoints) {
  const GcnModel model(cls.a_hat, weights);

  GcnModel::InferenceRequest request;
  request.flow = flow;
  request.features = &cls.features;
  request.config = config;
  request.verify = true;
  request.checkpoints = checkpoints;
  // Hybrid: sort once here and share it across the model's layers via
  // the request passthrough.
  DegreeSortResult sort;
  CsrMatrix sorted_features;
  if (flow == Dataflow::kHybrid) {
    sort = degree_sort(cls.a_hat);
    sorted_features = permute_feature_rows(cls.features, sort.perm);
    request.sort = &sort;
    request.sorted_features = &sorted_features;
  }
  const GcnModel::InferenceResult result = model.run(request);

  ClassCost cost;
  cost.name = cls.name;
  cost.weight = cls.weight;
  cost.nodes = cls.nodes;
  cost.standalone_cycles = result.total_cycles;
  cost.standalone_dram_bytes = result.total_dram_bytes;
  cost.preprocess_ms = result.total_preprocess_ms;
  cost.verified = result.verified;
  cost.max_abs_err = result.max_abs_err;
  return cost;
}

}  // namespace

std::vector<ClassCost> simulate_class_costs(
    const std::vector<RequestClass>& classes,
    const std::vector<DenseMatrix>& weights, Dataflow flow,
    const AcceleratorConfig& config, unsigned threads,
    CheckpointStore* checkpoints) {
  HYMM_CHECK_MSG(!classes.empty(), "no request classes");
  std::vector<ClassCost> costs(classes.size());
  // Indexed slots: each class writes only costs[i], so the result is
  // bit-identical at any thread count.
  parallel_for(classes.size(), threads, [&](std::size_t i) {
    costs[i] = simulate_one(classes[i], weights, flow, config, checkpoints);
  });
  return costs;
}

}  // namespace hymm
