// Incremental sparsification in the Koutis-Miller-Peng style (the paper's
// refs [15, 16], the lineage its solver improves on): keep a low-stretch
// spanning tree T, estimate every off-tree edge's leverage by its *tree
// stretch* st_T(e) = w_e * dist_T(u, v) (an upper bound on w_e R_e by
// Rayleigh monotonicity, exactly the Lemma 1 reasoning with t = 1 and a tree
// instead of a spanner bundle), and oversample off-tree edges proportionally
// to stretch.
//
// This gives the "mildly sparser" incremental sparsifier used inside
// near-m-log-n solvers: T survives whole, heavy-stretch edges are kept with
// near-certainty, and the expected edge count is
//   (n - 1) + O(total_stretch * log n / eps^2)  [KMP oversampling lemma].
//
// Included both as a feature (it shares all substrates with Algorithm 1) and
// as a third comparator for E6: solve-free like the paper's method, but
// tree-based like the prior work.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "spanner/low_stretch_tree.hpp"

namespace spar::sparsify {

struct IncrementalOptions {
  double epsilon = 1.0;
  /// Number of with-replacement samples; 0 = auto:
  /// ceil(0.5 * total_stretch * log2(n) / eps^2).
  std::size_t num_samples = 0;
  std::uint64_t seed = 1;
  spanner::LowStretchTreeOptions tree;
};

struct IncrementalResult {
  graph::Graph sparsifier;
  std::size_t tree_edges = 0;
  std::size_t off_tree_edges = 0;   ///< candidates
  std::size_t distinct_sampled = 0; ///< distinct off-tree edges kept
  double total_stretch = 0.0;       ///< sum of off-tree stretches
  std::size_t samples_drawn = 0;
};

/// Requires a connected input graph.
IncrementalResult incremental_sparsify(const graph::Graph& g,
                                       const IncrementalOptions& options = {});

}  // namespace spar::sparsify
