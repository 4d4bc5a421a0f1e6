// Low-stretch spanning trees (Remark 2 of the paper): replacing each bundle
// component by a tree drops the sparsifier size by an O(log n) factor, at the
// price of a larger (but still polylogarithmic) stretch against which the
// leverage bound of Lemma 1 is certified.
//
// The construction is an AKPW-style (Alon-Karp-Peleg-West) cluster
// contraction: edges are bucketed by length (resistance) into geometric
// classes; for each class, the current contracted graph restricted to that
// class is decomposed into low-hop-diameter BFS balls whose BFS trees join
// the spanning tree, and the balls are contracted. Average stretch is
// polylogarithmic in practice; benches measure it (the paper's remark only
// needs "low-stretch", not a specific constant).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace spar::spanner {

struct LowStretchTreeOptions {
  std::uint64_t seed = 1;  ///< seeds the ball-center order of each round
};

/// Edge ids of a spanning forest of g (one tree per connected component).
std::vector<graph::EdgeId> low_stretch_tree_ids(const graph::Graph& g,
                                                const LowStretchTreeOptions& options = {});

graph::Graph low_stretch_tree(const graph::Graph& g,
                              const LowStretchTreeOptions& options = {});

}  // namespace spar::spanner
