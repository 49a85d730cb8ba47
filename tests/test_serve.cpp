// Serving-pipeline invariants: a fixed seed produces bit-identical
// per-request cycle/latency sequences at any worker thread count and
// with fast-forward disabled, the bounded queue drops (never blocks)
// under overload, every served request follows the single-server
// FIFO reference schedule at its class's standalone cost, and the
// hymm-serve-report/2 JSON is valid.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/gcn_model.hpp"
#include "linalg/gcn.hpp"
#include "obs/json.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"

namespace hymm {
namespace {

GcnWorkload tiny_workload() {
  const DatasetSpec spec = *find_dataset("CR");
  return build_workload(spec, /*scale=*/0.05, /*seed=*/42);
}

std::vector<DenseMatrix> tiny_weights(const GcnWorkload& workload,
                                      const CsrMatrix& a_hat) {
  return GcnModel::with_random_weights(a_hat, workload.spec.feature_length,
                                       {16, 8}, 42)
      .weights();
}

ServeConfig tiny_config() {
  ServeConfig config;
  config.requests = 48;
  config.arrival_rate = 50'000.0;  // busy but not saturated
  config.queue_capacity = 64;
  config.seed = 42;
  return config;
}

// The per-request schedule two runs produced must be bit-identical.
void expect_identical_records(const ServeResult& a, const ServeResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const RequestRecord& ra = a.requests[i];
    const RequestRecord& rb = b.requests[i];
    EXPECT_EQ(ra.class_index, rb.class_index) << "request " << i;
    EXPECT_EQ(ra.dropped, rb.dropped) << "request " << i;
    EXPECT_EQ(ra.arrival, rb.arrival) << "request " << i;
    EXPECT_EQ(ra.start, rb.start) << "request " << i;
    EXPECT_EQ(ra.completion, rb.completion) << "request " << i;
    EXPECT_EQ(ra.service_cycles, rb.service_cycles) << "request " << i;
    EXPECT_EQ(ra.latency_cycles, rb.latency_cycles) << "request " << i;
  }
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
}

// Every served request must follow the single-server FIFO reference:
// service at its class's standalone cost, starting when it arrives or
// when the previously served request completes (whichever is later),
// and completing in arrival order.
void expect_fifo_reference(const ServeResult& result) {
  Cycle previous_completion = 0;
  std::uint64_t served = 0;
  for (const RequestRecord& r : result.requests) {
    if (r.dropped) continue;
    ++served;
    EXPECT_EQ(r.service_cycles,
              result.class_costs[r.class_index].standalone_cycles)
        << "request " << r.id;
    EXPECT_EQ(r.start, std::max(r.arrival, previous_completion))
        << "request " << r.id;
    EXPECT_EQ(r.completion, r.start + r.service_cycles) << "request " << r.id;
    EXPECT_GT(r.completion, previous_completion) << "request " << r.id;
    previous_completion = r.completion;
  }
  EXPECT_EQ(served, result.served);
  EXPECT_EQ(result.makespan, previous_completion);
}

class ServeFixture : public ::testing::Test {
 protected:
  ServeFixture()
      : workload_(tiny_workload()),
        classes_(build_request_classes(workload_, 42)),
        weights_(tiny_weights(workload_, classes_.front().a_hat)) {}

  GcnWorkload workload_;
  std::vector<RequestClass> classes_;
  std::vector<DenseMatrix> weights_;
};

TEST_F(ServeFixture, DeterministicAcrossThreadCounts) {
  ServeConfig config = tiny_config();
  config.threads = 1;
  const ServeResult serial = run_serve(classes_, weights_, config);
  config.threads = 4;
  const ServeResult parallel = run_serve(classes_, weights_, config);
  expect_identical_records(serial, parallel);
}

TEST_F(ServeFixture, DeterministicUnderFastForwardOff) {
  const ServeConfig config = tiny_config();
  const ServeResult fast = run_serve(classes_, weights_, config);
  const FastForwardMode prior = fast_forward_mode();
  set_fast_forward_mode(FastForwardMode::kOff);
  const ServeResult slow = run_serve(classes_, weights_, config);
  set_fast_forward_mode(prior);
  expect_identical_records(fast, slow);
}

TEST_F(ServeFixture, BoundedQueueDropsUnderOverload) {
  ServeConfig config = tiny_config();
  config.queue_capacity = 1;
  config.arrival_rate = 10'000'000.0;  // far beyond service capacity
  const ServeResult result = run_serve(classes_, weights_, config);
  EXPECT_GT(result.dropped, 0u);
  EXPECT_GT(result.served, 0u);
  EXPECT_EQ(result.served + result.dropped, config.requests);
  for (const RequestRecord& r : result.requests) {
    if (r.dropped) continue;
    EXPECT_GE(r.start, r.arrival);
    EXPECT_EQ(r.latency_cycles, r.wait_cycles + r.service_cycles);
  }
}

// Batching equivalence: the per-class simulations behind the serving
// run are real verified inferences — every class's output matched
// GcnModel::reference within the model's standard tolerance.
TEST_F(ServeFixture, EveryClassCostIsVerifiedAgainstReference) {
  const ServeResult result =
      run_serve(classes_, weights_, tiny_config());
  ASSERT_EQ(result.class_costs.size(), classes_.size());
  for (const ClassCost& cost : result.class_costs) {
    EXPECT_TRUE(cost.verified)
        << cost.name << " max err " << cost.max_abs_err;
    EXPECT_GT(cost.standalone_cycles, 0u);
    EXPECT_GT(cost.standalone_dram_bytes, 0u);
  }
}

TEST_F(ServeFixture, ServedRequestsFollowTheFifoReference) {
  ServeConfig config = tiny_config();
  config.arrival_rate = 1'000'000.0;  // saturating: the queue builds up
  const ServeResult saturated = run_serve(classes_, weights_, config);
  EXPECT_GT(saturated.utilization(), 0.9);
  expect_fifo_reference(saturated);

  config.queue_capacity = 1;  // one waiting slot: most arrivals drop
  const ServeResult bounded = run_serve(classes_, weights_, config);
  EXPECT_GT(bounded.dropped, 0u);
  expect_fifo_reference(bounded);
}

TEST_F(ServeFixture, ServeReportJsonIsValid) {
  const ServeConfig config = tiny_config();
  const ServeResult result = run_serve(classes_, weights_, config);
  const ServeReportMeta meta{workload_.spec, workload_.scale, config.seed};
  std::ostringstream json;
  write_serve_json(result, config, meta, json);
  EXPECT_TRUE(json_is_valid(json.str())) << json.str().substr(0, 400);
  std::ostringstream csv;
  write_serve_csv(result, csv);
  // Header plus one row per generated request.
  std::size_t lines = 0;
  for (const char c : csv.str()) lines += c == '\n';
  EXPECT_EQ(lines, 1 + result.requests.size());
  std::ostringstream summary;
  print_serve_summary(result, config, meta, summary);
  EXPECT_NE(summary.str().find("throughput"), std::string::npos);
}

TEST(ServeRequest, SampledSubgraphIsDeterministicAndWellFormed) {
  const GcnWorkload workload = tiny_workload();
  const SampledSubgraph a =
      sample_subgraph(workload.adjacency, workload.features, 40, 7);
  const SampledSubgraph b =
      sample_subgraph(workload.adjacency, workload.features, 40, 7);
  EXPECT_EQ(a.adjacency.rows(), 40u);
  EXPECT_EQ(a.features.rows(), 40u);
  EXPECT_EQ(a.adjacency.nnz(), b.adjacency.nnz());
  EXPECT_EQ(a.features.nnz(), b.features.nnz());
  const SampledSubgraph other =
      sample_subgraph(workload.adjacency, workload.features, 40, 8);
  // A different seed samples a different neighbourhood (node count is
  // fixed; edge structure almost surely differs on a power-law graph).
  EXPECT_NE(a.adjacency.nnz(), other.adjacency.nnz());
}

TEST(ServeConfigChecks, RejectsDegenerateConfigs) {
  const GcnWorkload workload = tiny_workload();
  const std::vector<RequestClass> classes =
      build_request_classes(workload, 42);
  const std::vector<DenseMatrix> weights =
      tiny_weights(workload, classes.front().a_hat);
  ServeConfig config = tiny_config();
  config.requests = 0;
  EXPECT_THROW(run_serve(classes, weights, config), CheckError);
  config = tiny_config();
  config.arrival_rate = 0.0;
  EXPECT_THROW(run_serve(classes, weights, config), CheckError);
  config = tiny_config();
  config.queue_capacity = 0;
  EXPECT_THROW(run_serve(classes, weights, config), CheckError);
}

// An arrival rate so low that the Poisson clock would pass 2^64 (or
// whose mean gap is not even finite) must be rejected, naming the
// rate, instead of wrapping the arrival timestamps.
TEST(ServeConfigChecks, RejectsArrivalClockOverflow) {
  const GcnWorkload workload = tiny_workload();
  const std::vector<RequestClass> classes =
      build_request_classes(workload, 42);
  const std::vector<DenseMatrix> weights =
      tiny_weights(workload, classes.front().a_hat);
  for (const double rate : {1e-9, 1e-300}) {
    ServeConfig config = tiny_config();
    config.arrival_rate = rate;
    try {
      run_serve(classes, weights, config);
      ADD_FAILURE() << "rate " << rate << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("arrival rate"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace hymm
