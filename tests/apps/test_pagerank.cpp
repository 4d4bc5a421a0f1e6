// Oracle matrix for the PageRank app (PR 10):
//
//  1. the power-iteration scores are held against a NAIVE double-loop
//     reference (plain serial loops over the edge list, no CSR, no parallel
//     substrate) to 1e-12 on a (family x damping x seed) parameter grid;
//  2. distribution invariants: scores sum to 1, are strictly positive under
//     uniform teleport, dangling (degree-zero) vertices keep their teleport
//     mass, personalized teleport localizes around the sources;
//  3. determinism: scores are bit-identical at 1/2/4 threads, ThreadLimit(1)
//     included (golden hash -- re-record via BUILDING.md
//     "Re-baselining" after deliberate algorithm changes).
#include "apps/pagerank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace spar::apps {
namespace {

using graph::Graph;

std::uint64_t vector_hash(const linalg::Vector& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The oracle: the same fixed-point map, written as the obvious double loop
// over the raw edge list -- no CSR, no SpMV, no parallel reduction. Iterated
// far past the app's tolerance so the comparison at 1e-12 is meaningful.
linalg::Vector naive_pagerank(const Graph& g, const PageRankOptions& opt) {
  const std::size_t n = g.num_vertices();
  std::vector<double> deg(n, 0.0);
  for (const auto& e : g.edges()) {
    deg[e.u] += e.w;
    deg[e.v] += e.w;
  }
  std::vector<double> teleport(n, 0.0);
  if (opt.sources.empty()) {
    for (std::size_t i = 0; i < n; ++i) teleport[i] = 1.0 / double(n);
  } else {
    for (const graph::Vertex s : opt.sources)
      teleport[s] += 1.0 / double(opt.sources.size());
  }
  std::vector<double> x(n, 1.0 / double(n));
  for (std::size_t it = 0; it < 2000; ++it) {
    std::vector<double> next(n, 0.0);
    double dangling = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (deg[i] == 0.0) dangling += x[i];
    for (const auto& e : g.edges()) {
      next[e.v] += opt.damping * e.w * x[e.u] / deg[e.u];
      next[e.u] += opt.damping * e.w * x[e.v] / deg[e.v];
    }
    const double teleport_scale = opt.damping * dangling + (1.0 - opt.damping);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] += teleport_scale * teleport[i];
      delta += std::abs(next[i] - x[i]);
    }
    x.swap(next);
    if (delta < 1e-15) break;
  }
  return x;
}

// gtest prints a parameter that has no printer as its raw bytes, and ctest
// takes that dump into the test name (see OracleCase in test_partition.cpp).
// A char array and a 64-bit n leave no pointer and no padding in the dump,
// and keep the struct at 56 bytes.
struct PrCase {
  char family[32] = {};  // grid | wgrid | er | star | pa
  std::uint64_t n = 0;
  double damping = 0.85;
  std::uint64_t seed = 0;

  bool is(std::string_view f) const { return family == f; }
};

Graph build(const PrCase& c) {
  const auto n = static_cast<graph::Vertex>(c.n);
  if (c.is("grid")) return graph::grid2d(n, n);
  if (c.is("wgrid")) return graph::randomize_weights(graph::grid2d(n, n), 2.0, c.seed);
  if (c.is("er")) return graph::connected_erdos_renyi(n, 8.0 / double(n), c.seed);
  if (c.is("star")) return graph::star_graph(n);
  if (c.is("pa")) return graph::preferential_attachment(n, 3, c.seed);
  ADD_FAILURE() << "unknown family " << c.family;
  return Graph(1);
}

class PageRankNaiveOracle : public ::testing::TestWithParam<PrCase> {};

TEST_P(PageRankNaiveOracle, MatchesDoubleLoopReference) {
  const PrCase c = GetParam();
  const Graph g = build(c);
  PageRankOptions opt;
  opt.damping = c.damping;

  const PageRankReport pr = pagerank(g, opt);
  EXPECT_TRUE(pr.converged);
  EXPECT_LT(pr.delta, opt.tolerance);

  const linalg::Vector ref = naive_pagerank(g, opt);
  ASSERT_EQ(pr.scores.size(), ref.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(pr.scores[i], ref[i], 1e-12) << "vertex " << i;
    EXPECT_GE(pr.scores[i], 0.0);
    sum += pr.scores[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Families, PageRankNaiveOracle,
    ::testing::Values(PrCase{"grid", 6, 0.85, 0}, PrCase{"wgrid", 6, 0.85, 3},
                      PrCase{"wgrid", 5, 0.5, 9}, PrCase{"er", 40, 0.85, 1},
                      PrCase{"er", 40, 0.6, 7}, PrCase{"star", 12, 0.85, 0},
                      PrCase{"pa", 48, 0.85, 2}),
    [](const auto& info) {
      const PrCase& c = info.param;
      return std::string(c.family) + "_" + std::to_string(c.n) + "_d" +
             std::to_string(int(c.damping * 100)) + "_s" + std::to_string(c.seed);
    });

TEST(PageRank, StarConcentratesOnTheHub) {
  // star_graph's center is its highest-degree vertex; it must rank first.
  const Graph g = graph::star_graph(10);
  const PageRankReport pr = pagerank(g);
  const auto order = ranking(pr.scores);
  std::size_t hub = 0;
  double best = -1.0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    double d = 0.0;
    for (const auto& e : g.edges()) d += (e.u == v || e.v == v) ? e.w : 0.0;
    if (d > best) best = d, hub = v;
  }
  EXPECT_EQ(order.front(), hub);
}

TEST(PageRank, DanglingVerticesKeepTeleportMass) {
  // Two isolated vertices: their mass flows only through the teleport, so
  // their scores are equal and positive, and the total still sums to 1. The
  // closed form at the fixed point: x_iso = t_scale / n with t_scale =
  // d * dangling + (1 - d) -- check self-consistency instead of the scalar.
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);  // vertices 4, 5 dangle
  const PageRankReport pr = pagerank(g);
  EXPECT_TRUE(pr.converged);
  EXPECT_EQ(pr.scores[4], pr.scores[5]);
  EXPECT_GT(pr.scores[4], 0.0);
  const double sum = std::accumulate(pr.scores.begin(), pr.scores.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  const double dangling = pr.scores[4] + pr.scores[5];
  const double t_scale = 0.85 * dangling + 0.15;
  EXPECT_NEAR(pr.scores[4], t_scale / 6.0, 1e-12);
}

TEST(PageRank, PersonalizedLocalizesAroundTheSource) {
  // Teleporting to one end of a path: scores decay monotonically with
  // distance from the source STARTING AT ITS NEIGHBOR (the source itself has
  // degree 1 and hands its whole walk mass to vertex 1, which also collects
  // from vertex 2 -- so x[1] > x[0] at the fixed point), and the source end
  // dominates the far end.
  const Graph g = graph::path_graph(12);
  PageRankOptions opt;
  opt.sources = {0};
  const PageRankReport pr = pagerank(g, opt);
  EXPECT_TRUE(pr.converged);
  for (std::size_t i = 1; i + 1 < pr.scores.size(); ++i)
    EXPECT_GT(pr.scores[i], pr.scores[i + 1]) << "position " << i;
  EXPECT_GT(pr.scores[0], pr.scores[4]);
}

TEST(PageRank, AllVerticesAsSourcesEqualsGlobal) {
  // Personalization over every vertex builds the same uniform teleport as
  // the global default, so the runs must agree BITWISE.
  const Graph g = graph::randomize_weights(graph::grid2d(5, 5), 2.0, 3);
  PageRankOptions all;
  all.sources.resize(g.num_vertices());
  std::iota(all.sources.begin(), all.sources.end(), 0u);
  const PageRankReport global = pagerank(g);
  const PageRankReport personalized = pagerank(g, all);
  EXPECT_EQ(std::memcmp(global.scores.data(), personalized.scores.data(),
                        global.scores.size() * sizeof(double)),
            0);
}

TEST(PageRank, DuplicateSourcesAccumulate) {
  // {0, 0} splits the teleport mass in halves that re-sum to 1.0 on vertex 0
  // -- identical to {0}.
  const Graph g = graph::cycle_graph(8);
  PageRankOptions one, two;
  one.sources = {0};
  two.sources = {0, 0};
  const auto a = pagerank(g, one).scores;
  const auto b = pagerank(g, two).scores;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(PageRank, RankingBreaksTiesByVertexId) {
  // Vertex-transitive graph => exactly uniform scores; the canonical ranking
  // must fall back to ascending vertex ids.
  const Graph g = graph::cycle_graph(9);
  const PageRankReport pr = pagerank(g);
  const auto order = ranking(pr.scores);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(PageRank, RejectsOutOfRangeSource) {
  PageRankOptions opt;
  opt.sources = {99};
  EXPECT_THROW(pagerank(graph::path_graph(4), opt), spar::Error);
}

TEST(PageRankDeterminism, GoldenHashAcrossThreadCounts) {
  // SpMV on the CSR kernel + chunk-ordered elementwise work: bit-identical
  // for any thread count, ThreadLimit(1) included. Golden value pins the
  // x86-64 gcc Release build; re-record via BUILDING.md ("Re-baselining")
  // after deliberate algorithm changes.
  const Graph g = graph::randomize_weights(graph::grid2d(16, 16), 2.0, 5);

  constexpr std::uint64_t kGoldenHash = 0x1dfe8b5f0a569efbULL;

  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const PageRankReport pr = pagerank(g);
    EXPECT_TRUE(pr.converged);
    EXPECT_EQ(vector_hash(pr.scores), kGoldenHash) << threads << " threads";
  }
}

}  // namespace
}  // namespace spar::apps
