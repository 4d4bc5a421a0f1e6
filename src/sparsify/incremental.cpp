#include "sparsify/incremental.hpp"

#include <algorithm>
#include <cmath>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

using graph::EdgeId;
using graph::Graph;
using graph::Vertex;

namespace {

// Auto sample count: ceil(kSampleFactor * total_stretch * log2(n) / eps^2).
constexpr double kSampleFactor = 0.5;

}  // namespace

IncrementalResult incremental_sparsify(const Graph& g,
                                       const IncrementalOptions& options) {
  SPAR_CHECK(options.epsilon > 0.0, "incremental_sparsify: epsilon must be positive");
  const Vertex n = g.num_vertices();
  SPAR_CHECK(n >= 2, "incremental_sparsify: need at least 2 vertices");

  IncrementalResult result;

  // 1. Low-stretch spanning tree.
  spanner::LowStretchTreeOptions topt = options.tree;
  if (topt.seed == spanner::LowStretchTreeOptions{}.seed)
    topt.seed = support::mix64(options.seed, 0x17ee5ULL);
  const std::vector<EdgeId> tree_ids = spanner::low_stretch_tree_ids(g, topt);
  SPAR_CHECK(tree_ids.size() == static_cast<std::size_t>(n) - 1,
             "incremental_sparsify: input graph must be connected");
  std::vector<bool> in_tree(g.num_edges(), false);
  for (EdgeId id : tree_ids) in_tree[id] = true;
  result.tree_edges = tree_ids.size();

  // 2. Tree stretches of off-tree edges: group queries per source vertex,
  // one tree Dijkstra covers all queries from that source.
  const Graph tree = g.filtered(in_tree);
  const graph::CSRGraph tree_csr(tree);
  std::vector<EdgeId> off_tree;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (!in_tree[id]) off_tree.push_back(id);
  result.off_tree_edges = off_tree.size();

  std::sort(off_tree.begin(), off_tree.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).u < g.edge(b).u;
  });
  std::vector<double> stretch(off_tree.size(), 0.0);
  {
    std::size_t i = 0;
    while (i < off_tree.size()) {
      const Vertex source = g.edge(off_tree[i]).u;
      const auto dist = graph::dijkstra(tree_csr, source);
      while (i < off_tree.size() && g.edge(off_tree[i]).u == source) {
        const auto& e = g.edge(off_tree[i]);
        SPAR_DASSERT(dist[e.v] != graph::kInfDist);
        stretch[i] = e.w * dist[e.v];
        result.total_stretch += stretch[i];
        ++i;
      }
    }
  }

  // 3. Oversample off-tree edges with p_e ~ st_T(e).
  Graph sparsifier(n);
  for (EdgeId id : tree_ids)
    sparsifier.add_edge(g.edge(id).u, g.edge(id).v, g.edge(id).w);

  if (!off_tree.empty() && result.total_stretch > 0.0) {
    const std::size_t q =
        options.num_samples != 0
            ? options.num_samples
            : static_cast<std::size_t>(std::ceil(
                  kSampleFactor * result.total_stretch *
                  std::log2(std::max<double>(n, 2.0)) /
                  (options.epsilon * options.epsilon)));
    result.samples_drawn = q;

    std::vector<double> cumulative(off_tree.size());
    double running = 0.0;
    for (std::size_t i = 0; i < off_tree.size(); ++i) {
      running += stretch[i] / result.total_stretch;
      cumulative[i] = running;
    }
    cumulative.back() = 1.0;

    std::vector<double> accumulated(off_tree.size(), 0.0);
    support::Rng rng(support::mix64(options.seed, 0x5a3bULL));
    for (std::size_t s = 0; s < q; ++s) {
      const double u = rng.uniform();
      const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
      const auto idx = static_cast<std::size_t>(it - cumulative.begin());
      const double p = stretch[idx] / result.total_stretch;
      accumulated[idx] += g.edge(off_tree[idx]).w / (static_cast<double>(q) * p);
    }
    for (std::size_t i = 0; i < off_tree.size(); ++i) {
      if (accumulated[i] > 0.0) {
        const auto& e = g.edge(off_tree[i]);
        sparsifier.add_edge(e.u, e.v, accumulated[i]);
        ++result.distinct_sampled;
      }
    }
  }

  result.sparsifier = std::move(sparsifier);
  return result;
}

}  // namespace spar::sparsify
