/// @file
/// Request classes for the GCN serving model: the kinds of inference
/// query an open-loop client mix can issue against one shared
/// GcnModel — the full graph, or a sampled subgraph (the
/// "neighbourhood query" shape of production GNN serving). Every
/// class is immutable after construction and shared read-only by the
/// cost library and the request generator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"

namespace hymm {

/// One kind of inference request the serving mix can draw: a named
/// (sub)graph with its normalized adjacency and feature rows. The
/// layer weights are NOT part of the class — every class runs the
/// same shared weight chain.
struct RequestClass {
  std::string name;        ///< e.g. "full", "half", "small"
  double weight = 1.0;     ///< class-mix probability weight (> 0)
  NodeId nodes = 0;        ///< node count of the (sub)graph
  CsrMatrix a_hat;         ///< normalized (sub)adjacency, self-loops added
  CsrMatrix features;      ///< feature rows of the class's nodes
};

/// Induced-subgraph sample of `target_nodes` nodes grown by BFS from
/// seeded random start nodes (new starts are drawn when a component
/// is exhausted), with node ids rebased to visit order. Returns the
/// raw induced adjacency and the matching feature rows; deterministic
/// for a fixed (adjacency, features, target_nodes, seed).
struct SampledSubgraph {
  CsrMatrix adjacency;  ///< induced subgraph, ids rebased to [0, target)
  CsrMatrix features;   ///< the sampled nodes' feature rows, same order
};

/// Draws the sample (see SampledSubgraph). target_nodes is clamped to
/// [1, adjacency.rows()].
SampledSubgraph sample_subgraph(const CsrMatrix& adjacency,
                                const CsrMatrix& features,
                                NodeId target_nodes, std::uint64_t seed);

/// The standard serving class mix over one workload, heaviest query
/// rarest: "full" (the whole graph, weight 1), "half" (a ~50% BFS
/// sample, weight 3) and "small" (a ~12.5% BFS sample, weight 6).
/// Samples are deterministic in `seed`; subgraph adjacencies are
/// normalized independently (the induced subgraph of a normalized
/// matrix is not itself correctly normalized).
std::vector<RequestClass> build_request_classes(const GcnWorkload& workload,
                                                std::uint64_t seed);

}  // namespace hymm
