// PageRank and personalized PageRank over the repo's CSR substrate.
//
// Power iteration on the undirected random walk: with A the weighted
// adjacency matrix, D the weighted degree diagonal and t the teleport
// distribution,
//
//   x' = d * A (x / deg) + (d * dangling(x) + (1 - d)) * t
//
// where dangling(x) is the probability mass sitting on degree-zero vertices
// (it has nowhere to walk, so it teleports). Global PageRank uses the uniform
// teleport t = 1/n; PERSONALIZED PageRank restricts t to a source set, which
// localizes the stationary mass around those sources. Every step is one SpMV
// on the existing CSRMatrix kernel plus chunk-ordered elementwise work, so
// scores are bit-identical across thread counts, ThreadLimit(1) included
// (the PR 1/2 discipline; tests/apps/test_pagerank.cpp pins golden hashes).
//
// The iteration map is a contraction with factor d in l1, so the l1 change
// per step both bounds the distance to the fixed point (within d/(1-d)) and
// decides convergence.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/vector_ops.hpp"

namespace spar::apps {

/// Knobs of the PageRank power iteration.
struct PageRankOptions {
  /// Walk probability d (teleport probability 1 - d).
  double damping = 0.85;
  /// Stop when the l1 change of the score vector drops below this. The map
  /// contracts with factor d in l1, so 1e-13 here pins the fixed point well
  /// below the 1e-12 oracle comparison in tests/apps.
  double tolerance = 1e-13;
  /// Power iteration cap (the contraction makes ~200 ample for d = 0.85).
  std::size_t max_iterations = 400;
  /// Teleport support: empty = uniform over all vertices (global PageRank);
  /// otherwise teleport mass is split uniformly over these vertices
  /// (personalized PageRank). Duplicates accumulate. Must be valid ids.
  std::vector<graph::Vertex> sources;
};

/// Outcome of a PageRank run.
struct PageRankReport {
  linalg::Vector scores;       ///< stationary distribution (sums to 1)
  std::size_t iterations = 0;  ///< power steps run
  bool converged = false;      ///< l1 change met tolerance
  double delta = 0.0;          ///< achieved final l1 change
};

/// (Personalized) PageRank of `g` by deterministic power iteration. Works on
/// any graph, connected or not (degree-zero vertices contribute their mass
/// through the teleport). Bit-identical across thread counts.
PageRankReport pagerank(const graph::Graph& g, const PageRankOptions& options = {});

/// Vertices sorted by descending score, ties broken by vertex id -- the
/// canonical ranking used for rank-correlation / top-k comparisons in the
/// quality-on-task evaluation. Deterministic total order.
std::vector<graph::Vertex> ranking(const linalg::Vector& scores);

}  // namespace spar::apps
