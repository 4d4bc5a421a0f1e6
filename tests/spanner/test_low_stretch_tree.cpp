#include "spanner/low_stretch_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/union_find.hpp"
#include "spanner/stretch.hpp"

namespace spar::spanner {
namespace {

using graph::Graph;

TEST(LowStretchTree, SpansConnectedGraph) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = graph::connected_erdos_renyi(120, 0.08, seed);
    const Graph t = low_stretch_tree(g, {.seed = seed});
    EXPECT_EQ(t.num_edges(), g.num_vertices() - 1u) << "seed " << seed;
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(t)));
  }
}

TEST(LowStretchTree, IsAcyclic) {
  const Graph g = graph::randomize_weights(graph::complete_graph(50), 2.0, 3);
  const auto ids = low_stretch_tree_ids(g, {.seed = 9});
  graph::UnionFind uf(g.num_vertices());
  for (graph::EdgeId id : ids)
    EXPECT_TRUE(uf.unite(g.edge(id).u, g.edge(id).v)) << "cycle detected";
}

TEST(LowStretchTree, ForestOnDisconnectedGraph) {
  Graph g(7);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  const Graph t = low_stretch_tree(g, {.seed = 1});
  EXPECT_EQ(t.num_edges(), 4u);  // 2 + 2 edges; vertex 6 isolated
}

TEST(LowStretchTree, EmptyAndTrivialInputs) {
  EXPECT_EQ(low_stretch_tree(Graph(0), {}).num_edges(), 0u);
  EXPECT_EQ(low_stretch_tree(Graph(5), {}).num_edges(), 0u);
}

TEST(LowStretchTree, TreeInputReturnedWhole) {
  const Graph g = graph::binary_tree(31);
  const Graph t = low_stretch_tree(g, {.seed = 5});
  EXPECT_EQ(t.num_edges(), g.num_edges());
}

TEST(LowStretchTree, Deterministic) {
  const Graph g = graph::connected_erdos_renyi(80, 0.1, 7);
  const auto a = low_stretch_tree_ids(g, {.seed = 42});
  const auto b = low_stretch_tree_ids(g, {.seed = 42});
  EXPECT_EQ(a, b);
}

TEST(LowStretchTree, AverageStretchBeatsWorstCaseEnvelope) {
  // On a sqrt(n) x sqrt(n) grid the MST-style worst tree has average stretch
  // ~sqrt(n); a low-stretch tree should stay well below that.
  const std::size_t side = 16;
  const Graph g = graph::grid2d(side, side);
  const Graph t = low_stretch_tree(g, {.seed = 3});
  const StretchReport report = stretch_over_graph(g, t);
  EXPECT_EQ(report.disconnected_pairs, 0u);
  const double n = double(g.num_vertices());
  EXPECT_LT(report.mean_stretch, std::sqrt(n));
}

TEST(LowStretchTree, RespectsWeightClasses) {
  // A graph with one very heavy (low-resistance) backbone: the tree should
  // strongly prefer heavy edges (they are in the earliest class).
  Graph g(6);
  for (graph::Vertex v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1, 100.0);
  g.add_edge(0, 5, 0.001);
  g.add_edge(1, 4, 0.001);
  const Graph t = low_stretch_tree(g, {.seed = 1});
  ASSERT_EQ(t.num_edges(), 5u);
  for (const auto& e : t.edges()) EXPECT_DOUBLE_EQ(e.w, 100.0);
}

}  // namespace
}  // namespace spar::spanner
