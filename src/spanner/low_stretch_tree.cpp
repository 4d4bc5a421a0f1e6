#include "spanner/low_stretch_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "graph/union_find.hpp"
#include "support/rng.hpp"

namespace spar::spanner {

using graph::EdgeId;
using graph::Graph;
using graph::UnionFind;
using graph::Vertex;

namespace {

// Geometric growth factor between length classes.
constexpr double kClassGrowth = 4.0;

}  // namespace

std::vector<EdgeId> low_stretch_tree_ids(const Graph& g,
                                         const LowStretchTreeOptions& options) {
  const Vertex n = g.num_vertices();
  const auto edges = g.edges();
  std::vector<EdgeId> tree;
  if (n == 0 || edges.empty()) return tree;

  // BFS ball radius in hops per contraction round: ceil(log2 n).
  const std::size_t radius = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::log2(std::max<double>(n, 2)))));

  // Bucket edges into geometric length classes (length = resistance = 1/w).
  double min_len = 1.0 / edges[0].w;
  for (const graph::Edge& e : edges) min_len = std::min(min_len, 1.0 / e.w);
  const double log_growth = std::log(kClassGrowth);
  std::vector<std::vector<EdgeId>> classes;
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const double len = 1.0 / edges[id].w;
    const auto cls = static_cast<std::size_t>(
        std::max(0.0, std::floor(std::log(len / min_len) / log_growth + 1e-12)));
    if (cls >= classes.size()) classes.resize(cls + 1);
    classes[cls].push_back(id);
  }

  UnionFind uf(n);
  support::Rng rng(options.seed);

  // Edges whose endpoints are still in different clusters after a round are
  // carried into the next class (AKPW moves unfinished edges up a level); the
  // final class loops until nothing crosses, so the result spans every
  // component. Each round with crossing edges contracts at least one pair
  // (radius >= 1), so the loop terminates.
  std::vector<EdgeId> carry;
  for (std::size_t cls = 0; cls < classes.size() || !carry.empty();) {
    std::vector<EdgeId> cls_edges = std::move(carry);
    carry.clear();
    if (cls < classes.size()) {
      cls_edges.insert(cls_edges.end(), classes[cls].begin(), classes[cls].end());
    }
    if (cls_edges.empty()) {
      ++cls;
      continue;
    }
    // Collect the class subgraph over contracted super-vertices.
    std::unordered_map<std::size_t, Vertex> root_to_local;
    std::vector<std::size_t> local_to_root;
    auto local_id = [&](std::size_t root) {
      const auto [it, inserted] =
          root_to_local.try_emplace(root, static_cast<Vertex>(local_to_root.size()));
      if (inserted) local_to_root.push_back(root);
      return it->second;
    };
    struct LocalArc {
      Vertex to;
      EdgeId id;
    };
    std::vector<std::vector<LocalArc>> adj;
    for (EdgeId id : cls_edges) {
      const std::size_t ru = uf.find(edges[id].u);
      const std::size_t rv = uf.find(edges[id].v);
      if (ru == rv) continue;  // already inside one cluster
      const Vertex lu = local_id(ru);
      const Vertex lv = local_id(rv);
      if (std::max<std::size_t>(lu, lv) >= adj.size())
        adj.resize(std::max<std::size_t>(lu, lv) + 1);
      adj[lu].push_back({lv, id});
      adj[lv].push_back({lu, id});
    }
    if (adj.empty()) {
      ++cls;
      continue;
    }

    // Random-order BFS balls of bounded hop radius; the BFS tree edges are
    // spanning-tree edges and the touched super-vertices contract together.
    const auto local_n = static_cast<Vertex>(adj.size());
    std::vector<Vertex> order(local_n);
    std::iota(order.begin(), order.end(), Vertex{0});
    for (Vertex i = local_n; i > 1; --i)
      std::swap(order[i - 1], order[static_cast<Vertex>(rng.below(i))]);

    std::vector<std::size_t> hop(local_n, static_cast<std::size_t>(-1));
    std::queue<Vertex> frontier;
    for (Vertex seed_local : order) {
      if (hop[seed_local] != static_cast<std::size_t>(-1)) continue;
      hop[seed_local] = 0;
      frontier.push(seed_local);
      while (!frontier.empty()) {
        const Vertex v = frontier.front();
        frontier.pop();
        if (hop[v] >= radius) continue;
        for (const LocalArc& arc : adj[v]) {
          if (hop[arc.to] != static_cast<std::size_t>(-1)) continue;
          hop[arc.to] = hop[v] + 1;
          tree.push_back(arc.id);
          uf.unite(local_to_root[v], local_to_root[arc.to]);
          frontier.push(arc.to);
        }
      }
    }

    // Edges still crossing clusters retry at the next level.
    for (EdgeId id : cls_edges) {
      if (uf.find(edges[id].u) != uf.find(edges[id].v)) carry.push_back(id);
    }
    ++cls;
  }

  std::sort(tree.begin(), tree.end());
  return tree;
}

Graph low_stretch_tree(const Graph& g, const LowStretchTreeOptions& options) {
  std::vector<bool> keep(g.num_edges(), false);
  for (EdgeId id : low_stretch_tree_ids(g, options)) keep[id] = true;
  return g.filtered(keep);
}

}  // namespace spar::spanner
