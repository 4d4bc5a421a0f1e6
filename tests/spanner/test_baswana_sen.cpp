#include "spanner/baswana_sen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "spanner/stretch.hpp"
#include "support/error.hpp"

namespace spar::spanner {
namespace {

using graph::CSRGraph;
using graph::EdgeId;
using graph::Graph;

TEST(AutoSpannerK, MatchesCeilLog2) {
  EXPECT_EQ(auto_spanner_k(2), 1u);
  EXPECT_EQ(auto_spanner_k(3), 2u);
  EXPECT_EQ(auto_spanner_k(4), 2u);
  EXPECT_EQ(auto_spanner_k(5), 3u);
  EXPECT_EQ(auto_spanner_k(1024), 10u);
  EXPECT_EQ(auto_spanner_k(1025), 11u);
}

TEST(BaswanaSen, TreeInputIsFullyKept) {
  // A spanner of a tree must keep every edge (removing any disconnects).
  const Graph g = graph::binary_tree(31);
  const Graph h = spanner(g, {.k = 0, .seed = 3});
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(BaswanaSen, KeepsGraphConnected) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = graph::connected_erdos_renyi(150, 0.1, seed);
    const Graph h = spanner(g, {.k = 0, .seed = seed});
    EXPECT_TRUE(graph::is_connected(CSRGraph(h))) << "seed " << seed;
  }
}

TEST(BaswanaSen, K1ReturnsWholeGraph) {
  const Graph g = graph::complete_graph(12);
  const Graph h = spanner(g, {.k = 1, .seed = 1});
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(BaswanaSen, RejectsKAboveCap) {
  // Each clustering level costs a round however few edges live: k = SIZE_MAX
  // would spin, so k is capped and the error names it.
  const Graph g = graph::grid2d(8, 8);
  for (const std::size_t k : {kMaxSpannerK + 1, std::numeric_limits<std::size_t>::max()}) {
    try {
      (void)spanner(g, {.k = k, .seed = 1});
      ADD_FAILURE() << "k = " << k << " was accepted";
    } catch (const spar::Error& e) {
      EXPECT_NE(std::string(e.what()).find("k = "), std::string::npos) << e.what();
    }
  }
  EXPECT_TRUE(graph::is_connected(CSRGraph(spanner(g, {.k = kMaxSpannerK, .seed = 1}))));
}

TEST(BaswanaSen, RespectsAliveMask) {
  const Graph g = graph::complete_graph(20);
  std::vector<bool> alive(g.num_edges(), false);
  // Only a spanning cycle is alive.
  std::vector<EdgeId> cycle_ids;
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const auto& e = g.edge(id);
    if (e.v == e.u + 1 || (e.u == 0 && e.v == 19)) {
      alive[id] = true;
      cycle_ids.push_back(id);
    }
  }
  const CSRGraph csr(g);
  const auto ids = baswana_sen_spanner(csr, &alive, {.k = 0, .seed = 5});
  for (EdgeId id : ids) EXPECT_TRUE(alive[id]) << "spanner used a dead edge";
}

TEST(BaswanaSen, DeterministicForFixedSeed) {
  const Graph g = graph::connected_erdos_renyi(100, 0.15, 9);
  const CSRGraph csr(g);
  const auto a = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 77});
  const auto b = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 77});
  EXPECT_EQ(a, b);
}

TEST(BaswanaSen, DifferentSeedsGiveDifferentSpanners) {
  const Graph g = graph::complete_graph(40);
  const CSRGraph csr(g);
  const auto a = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 1});
  const auto b = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 2});
  EXPECT_NE(a, b);
}

TEST(BaswanaSen, WorkCounterAccumulates) {
  support::WorkCounter work;
  const Graph g = graph::connected_erdos_renyi(100, 0.2, 3);
  const CSRGraph csr(g);
  baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 1, .work = &work});
  // At least one scan of all arcs must be accounted.
  EXPECT_GE(work.total(), 2 * g.num_edges());
}

TEST(BaswanaSen, HandlesDisconnectedInput) {
  Graph g(10);
  for (graph::Vertex v = 0; v < 4; ++v)
    for (graph::Vertex u = v + 1; u < 5; ++u) g.add_edge(v, u, 1.0);
  for (graph::Vertex v = 5; v < 9; ++v)
    for (graph::Vertex u = v + 1; u < 10; ++u) g.add_edge(v, u, 1.0);
  const Graph h = spanner(g, {.k = 0, .seed = 3});
  // Each clique stays internally connected.
  graph::Vertex components = 0;
  graph::connected_components(CSRGraph(h + Graph(10)), &components);
  EXPECT_EQ(components, 2u);
}

TEST(BaswanaSen, EmptyGraph) {
  const Graph g(5);
  const Graph h = spanner(g, {.k = 0, .seed = 1});
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(BaswanaSen, MultigraphKeepsOnlyUsefulParallels) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  const Graph h = spanner(g, {.k = 2, .seed = 1});
  EXPECT_GE(h.num_edges(), 1u);
  EXPECT_LE(h.num_edges(), 3u);
  // The heaviest (lowest-resistance) parallel edge is always kept.
  bool has_heavy = false;
  for (const auto& e : h.edges()) has_heavy |= e.w == 5.0;
  EXPECT_TRUE(has_heavy);
}

// ---- Property sweep: stretch and size guarantees across families ----------

struct SpannerCase {
  std::string name;
  Graph graph;
};

class SpannerProperty : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static Graph family_graph(int family, std::uint64_t seed) {
    switch (family) {
      case 0:
        return graph::connected_erdos_renyi(180, 0.08, seed);
      case 1:
        return graph::randomize_weights(graph::connected_erdos_renyi(150, 0.1, seed),
                                        2.0, seed + 1);
      case 2:
        return graph::grid2d(14, 14);
      case 3:
        return graph::randomize_weights(graph::complete_graph(60), 1.5, seed);
      case 4:
        return graph::dumbbell(40, 0.01, seed);
      case 5:
        return graph::preferential_attachment(200, 3, seed);
      default:
        return graph::watts_strogatz(160, 3, 0.2, seed);
    }
  }
};

TEST_P(SpannerProperty, StretchBoundHolds) {
  const auto [family, seed] = GetParam();
  const Graph g = family_graph(family, seed);
  const std::size_t k = auto_spanner_k(g.num_vertices());
  const CSRGraph csr(g);
  const auto ids = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = seed});
  std::vector<bool> mask(g.num_edges(), false);
  for (EdgeId id : ids) mask[id] = true;
  const StretchReport report = stretch_over_subgraph(g, mask);
  EXPECT_EQ(report.disconnected_pairs, 0u);
  EXPECT_LE(report.max_stretch, double(2 * k - 1) + 1e-9)
      << "family " << family << " seed " << seed;
}

TEST_P(SpannerProperty, SizeWithinTheoryEnvelope) {
  const auto [family, seed] = GetParam();
  const Graph g = family_graph(family, seed);
  const std::size_t n = g.num_vertices();
  const std::size_t k = auto_spanner_k(n);
  const CSRGraph csr(g);
  const auto ids = baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = seed});
  // Expected size O(k n^{1+1/k}) <= 2kn for auto-k; allow a generous 4x
  // envelope over the expectation for single-sample runs.
  const double envelope = 8.0 * double(k) * double(n);
  EXPECT_LE(double(ids.size()), envelope) << "family " << family;
  EXPECT_LE(ids.size(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpannerProperty,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return "family" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Stretch bound with explicitly small k (loose spanners).
class SpannerSmallK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpannerSmallK, StretchRespects2kMinus1) {
  const std::size_t k = GetParam();
  const Graph g =
      graph::randomize_weights(graph::connected_erdos_renyi(120, 0.12, k), 1.0, k);
  const CSRGraph csr(g);
  const auto ids = baswana_sen_spanner(csr, nullptr, {.k = k, .seed = 31});
  std::vector<bool> mask(g.num_edges(), false);
  for (EdgeId id : ids) mask[id] = true;
  const StretchReport report = stretch_over_subgraph(g, mask);
  EXPECT_EQ(report.disconnected_pairs, 0u);
  EXPECT_LE(report.max_stretch, double(2 * k - 1) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(KSweep, SpannerSmallK, ::testing::Values(2, 3, 4, 6));

TEST(BaswanaSen, LargerKGivesSparserSpanners) {
  const Graph g = graph::complete_graph(128);
  const CSRGraph csr(g);
  const auto k2 = baswana_sen_spanner(csr, nullptr, {.k = 2, .seed = 5});
  const auto k7 = baswana_sen_spanner(csr, nullptr, {.k = 7, .seed = 5});
  EXPECT_LT(k7.size(), k2.size());
}

}  // namespace
}  // namespace spar::spanner
