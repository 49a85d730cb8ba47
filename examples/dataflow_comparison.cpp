// Where does each dataflow win? Sweeps the degree skew of a fixed-
// size graph from uniform to heavily power-law and reports the
// crossover between the row-wise product, the outer product and
// HyMM's hybrid — the observation that motivates the paper's
// Section III.
#include <iostream>

#include "common/table.hpp"
#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"

int main() {
  using namespace hymm;

  constexpr NodeId kNodes = 6000;
  constexpr EdgeCount kEdges = 90000;
  const Accelerator accelerator{AcceleratorConfig{}};

  std::cout << "Dataflow comparison vs degree skew (" << kNodes
            << " nodes, " << kEdges << " edges, dense-ish features)\n\n";

  Table table({"Skew", "Top-20% share", "OP cycles", "RWP cycles",
               "HyMM cycles", "Best"});
  for (const double skew : {0.0, 0.4, 0.8, 1.0, 1.2, 1.5}) {
    GraphSpec gspec;
    gspec.nodes = kNodes;
    gspec.edges = kEdges;
    gspec.skew = skew;
    gspec.seed = 5;
    const CsrMatrix adjacency = skew == 0.0
                                    ? generate_uniform_graph(kNodes, kEdges, 5)
                                    : generate_power_law_graph(gspec);
    const CsrMatrix a_hat = normalize_adjacency(adjacency);
    FeatureSpec fspec;
    fspec.nodes = kNodes;
    fspec.feature_length = 128;
    fspec.density = 0.3;
    fspec.seed = 6;
    const CsrMatrix features = generate_features(fspec);
    const DenseMatrix weights = DenseMatrix::random(128, 16, 7);

    Cycle cycles[3] = {};
    const Dataflow flows[3] = {Dataflow::kOuterProduct,
                               Dataflow::kRowWiseProduct, Dataflow::kHybrid};
    for (int i = 0; i < 3; ++i) {
      cycles[i] =
          accelerator.run_layer({.flow = flows[i], .a_hat = &a_hat,
                                 .x = &features, .w = &weights})
              .stats.cycles;
    }
    int best = 0;
    for (int i = 1; i < 3; ++i) {
      if (cycles[i] < cycles[best]) best = i;
    }
    table.add_row({Table::fmt(skew, 1),
                   Table::fmt_percent(
                       top_degree_edge_share(adjacency, 0.20), 1),
                   std::to_string(cycles[0]), std::to_string(cycles[1]),
                   std::to_string(cycles[2]), to_string(flows[best])});
  }
  table.print(std::cout);
  std::cout << "\nThe more skewed the degrees, the more the hybrid's "
               "region-1 OP phase has to work with — on uniform graphs "
               "it converges to plain RWP.\n";
  return 0;
}
