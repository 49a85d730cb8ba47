// Edge-case coverage for the full accelerator stack: degenerate
// graphs, empty features, isolated nodes, single-element problems and
// pathological configurations.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"

namespace hymm {
namespace {

const Dataflow kAllFlows[] = {Dataflow::kOuterProduct,
                              Dataflow::kRowWiseProduct, Dataflow::kHybrid};

void expect_layer_matches_reference(const CsrMatrix& a_hat,
                                    const CsrMatrix& x,
                                    const DenseMatrix& w,
                                    const AcceleratorConfig& config =
                                        AcceleratorConfig{}) {
  const DenseMatrix expected =
      gcn_layer_reference(a_hat, x, w, false).aggregation;
  const Accelerator accelerator(config);
  for (const Dataflow flow : kAllFlows) {
    const LayerRunResult r = accelerator.run_layer(
        {.flow = flow, .a_hat = &a_hat, .x = &x, .w = &w});
    EXPECT_TRUE(DenseMatrix::allclose(r.output, expected, 1e-3, 1e-4))
        << to_string(flow);
    EXPECT_EQ(r.stats.partial_bytes_now, 0u) << to_string(flow);
  }
}

TEST(EdgeCases, EmptyAdjacencyProducesZeroOutput) {
  const NodeId n = 10;
  const CsrMatrix empty_a = CsrMatrix::from_coo(CooMatrix(n, n));
  FeatureSpec fspec;
  fspec.nodes = n;
  fspec.feature_length = 20;
  fspec.density = 0.5;
  fspec.seed = 1;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(20, 16, 2);
  expect_layer_matches_reference(empty_a, x, w);
}

TEST(EdgeCases, EmptyFeaturesProduceZeroOutput) {
  GraphSpec gspec;
  gspec.nodes = 12;
  gspec.edges = 40;
  gspec.seed = 3;
  const CsrMatrix a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  const CsrMatrix x = CsrMatrix::from_coo(CooMatrix(12, 8));  // all zero
  const DenseMatrix w = DenseMatrix::random(8, 16, 4);
  expect_layer_matches_reference(a_hat, x, w);
}

TEST(EdgeCases, BothEmpty) {
  const CsrMatrix a = CsrMatrix::from_coo(CooMatrix(4, 4));
  const CsrMatrix x = CsrMatrix::from_coo(CooMatrix(4, 4));
  const DenseMatrix w = DenseMatrix::random(4, 4, 5);
  expect_layer_matches_reference(a, x, w);
}

TEST(EdgeCases, TwoNodeGraph) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.0f);
  coo.add(1, 0, 1.0f);
  const CsrMatrix a_hat =
      normalize_adjacency(CsrMatrix::from_coo(std::move(coo)));
  CooMatrix xf(2, 3);
  xf.add(0, 0, 0.5f);
  xf.add(1, 2, -0.25f);
  const CsrMatrix x = CsrMatrix::from_coo(std::move(xf));
  const DenseMatrix w = DenseMatrix::random(3, 16, 6);
  expect_layer_matches_reference(a_hat, x, w);
}

TEST(EdgeCases, IsolatedNodesAndHub) {
  // A star plus isolated nodes: many empty rows/columns.
  CooMatrix coo(20, 20);
  for (NodeId i = 1; i <= 5; ++i) {
    coo.add(0, i, 1.0f);
    coo.add(i, 0, 1.0f);
  }
  const CsrMatrix a_hat =
      normalize_adjacency(CsrMatrix::from_coo(std::move(coo)));
  FeatureSpec fspec;
  fspec.nodes = 20;
  fspec.feature_length = 10;
  fspec.density = 0.4;
  fspec.seed = 7;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(10, 12, 8);
  expect_layer_matches_reference(a_hat, x, w);
}

TEST(EdgeCases, NarrowLayerDimensions) {
  GraphSpec gspec;
  gspec.nodes = 30;
  gspec.edges = 150;
  gspec.seed = 9;
  const CsrMatrix a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = 30;
  fspec.feature_length = 16;
  fspec.density = 0.3;
  fspec.seed = 10;
  const CsrMatrix x = generate_features(fspec);
  // Output dims 1 and 3: partial lines.
  for (const NodeId d : {NodeId{1}, NodeId{3}}) {
    const DenseMatrix w = DenseMatrix::random(16, d, 11 + d);
    expect_layer_matches_reference(a_hat, x, w);
  }
}

TEST(EdgeCases, DenseAdjacency) {
  // A fully connected small graph: every row of A is dense.
  const NodeId n = 12;
  CooMatrix coo(n, n);
  for (NodeId r = 0; r < n; ++r) {
    for (NodeId c = 0; c < n; ++c) {
      if (r != c) coo.add(r, c, 1.0f);
    }
  }
  const CsrMatrix a_hat =
      normalize_adjacency(CsrMatrix::from_coo(std::move(coo)));
  FeatureSpec fspec;
  fspec.nodes = n;
  fspec.feature_length = 8;
  fspec.density = 1.0;
  fspec.seed = 12;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(8, 16, 13);
  expect_layer_matches_reference(a_hat, x, w);
}

TEST(EdgeCases, SingleLineDmb) {
  // The smallest legal buffer still produces correct results.
  AcceleratorConfig config;
  config.dmb_bytes = kLineBytes;
  config.dmb_pin_fraction = 1.0;
  GraphSpec gspec;
  gspec.nodes = 25;
  gspec.edges = 120;
  gspec.seed = 14;
  const CsrMatrix a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = 25;
  fspec.feature_length = 12;
  fspec.density = 0.4;
  fspec.seed = 15;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(12, 16, 16);
  expect_layer_matches_reference(a_hat, x, w, config);
}

TEST(EdgeCases, NegativeWeightsAndValues) {
  // Signed arithmetic through every path.
  CooMatrix coo(6, 6);
  coo.add(0, 1, -2.0f);
  coo.add(1, 0, -2.0f);
  coo.add(2, 3, 1.5f);
  coo.add(3, 2, 1.5f);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  CooMatrix xf(6, 4);
  xf.add(0, 0, -1.0f);
  xf.add(1, 1, 2.0f);
  xf.add(3, 3, -3.0f);
  const CsrMatrix x = CsrMatrix::from_coo(std::move(xf));
  const DenseMatrix w = DenseMatrix::random(4, 8, 17);
  // Use the raw (unnormalized) adjacency: negative edge weights.
  expect_layer_matches_reference(a, x, w);
}

TEST(EdgeCases, RepeatedRunsAreDeterministic) {
  GraphSpec gspec;
  gspec.nodes = 40;
  gspec.edges = 200;
  gspec.seed = 18;
  const CsrMatrix a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = 40;
  fspec.feature_length = 24;
  fspec.density = 0.25;
  fspec.seed = 19;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(24, 16, 20);
  const Accelerator accelerator{AcceleratorConfig{}};
  for (const Dataflow flow : kAllFlows) {
    const LayerRunResult a = accelerator.run_layer(
        {.flow = flow, .a_hat = &a_hat, .x = &x, .w = &w});
    const LayerRunResult b = accelerator.run_layer(
        {.flow = flow, .a_hat = &a_hat, .x = &x, .w = &w});
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << to_string(flow);
    EXPECT_EQ(a.stats.dram_total_bytes(), b.stats.dram_total_bytes());
    EXPECT_EQ(a.output, b.output);
  }
}

}  // namespace
}  // namespace hymm
