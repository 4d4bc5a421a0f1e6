#include "sparsify/spectral_cert.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "graph/generators.hpp"
#include "support/error.hpp"

namespace spar::sparsify {
namespace {

using graph::Graph;

TEST(ExactBounds, IdenticalGraphsGiveUnitPencil) {
  const Graph g = graph::connected_erdos_renyi(40, 0.2, 3);
  const ApproxBounds b = exact_relative_bounds(g, g);
  EXPECT_NEAR(b.lower, 1.0, 1e-8);
  EXPECT_NEAR(b.upper, 1.0, 1e-8);
  EXPECT_NEAR(b.epsilon(), 0.0, 1e-8);
}

TEST(ExactBounds, ScaledGraphShiftsBothBounds) {
  const Graph g = graph::grid2d(5, 5);
  const ApproxBounds b = exact_relative_bounds(g, g.scaled(2.0));
  EXPECT_NEAR(b.lower, 2.0, 1e-8);
  EXPECT_NEAR(b.upper, 2.0, 1e-8);
}

TEST(ExactBounds, SubgraphUpperAtMostOne) {
  // H subset of G implies L_H <= L_G, so upper <= 1.
  const Graph g = graph::complete_graph(16);
  std::vector<bool> keep(g.num_edges(), true);
  keep[0] = keep[5] = keep[17] = false;
  const Graph h = g.filtered(keep);
  const ApproxBounds b = exact_relative_bounds(g, h);
  EXPECT_LE(b.upper, 1.0 + 1e-9);
  EXPECT_LT(b.lower, 1.0);
  EXPECT_GT(b.lower, 0.0);  // still connected
}

TEST(ExactBounds, DisconnectedHGivesZeroLower) {
  const Graph g = graph::path_graph(4);
  Graph h(4);
  h.add_edge(0, 1, 1.0);  // drops the rest of the path
  const ApproxBounds b = exact_relative_bounds(g, h);
  EXPECT_NEAR(b.lower, 0.0, 1e-9);
}

TEST(ExactBounds, EpsilonOfKnownPerturbation) {
  // H = G with one edge reweighted 1 -> 1+delta on a cycle.
  const Graph g = graph::cycle_graph(12);
  Graph h = g;
  {
    Graph modified(12);
    for (graph::EdgeId id = 0; id < g.num_edges(); ++id) {
      const auto& e = g.edge(id);
      modified.add_edge(e.u, e.v, id == 0 ? 1.5 : e.w);
    }
    h = modified;
  }
  const ApproxBounds b = exact_relative_bounds(g, h);
  EXPECT_GE(b.lower, 1.0 - 1e-9);       // weights only increased
  EXPECT_LE(b.upper, 1.5 + 1e-9);       // at most the max ratio
  EXPECT_GT(b.upper, 1.0 + 1e-6);       // strictly above 1
}

TEST(ExactBounds, MismatchedVerticesThrow) {
  EXPECT_THROW(exact_relative_bounds(graph::path_graph(3), graph::path_graph(4)),
               spar::Error);
}

TEST(ExactBounds, DisconnectedGThrows) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_THROW(exact_relative_bounds(g, g), spar::Error);
}

// ---- Approximate certifier vs exact ----------------------------------------

class CertAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertAgreement, PowerIterationTracksDense) {
  const std::uint64_t seed = GetParam();
  const Graph g =
      graph::randomize_weights(graph::connected_erdos_renyi(70, 0.15, seed), 1.0, seed);
  // H: randomly reweighted version of G (keeps connectivity).
  const Graph h = graph::randomize_weights(g, 0.4, seed + 100);
  const ApproxBounds exact = exact_relative_bounds(g, h);
  const ApproxBounds approx = approx_relative_bounds(g, h, {.seed = seed});
  // Power iteration converges from inside the interval.
  EXPECT_LE(approx.upper, exact.upper + 1e-4);
  EXPECT_GE(approx.lower, exact.lower - 1e-4);
  EXPECT_NEAR(approx.upper, exact.upper, 0.05 * exact.upper);
  EXPECT_NEAR(approx.lower, exact.lower, 0.05 * exact.lower);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertAgreement, ::testing::Values(1, 2, 3, 4));

TEST(ApproxBoundsCert, DisconnectedHFlagsZeroLower) {
  const Graph g = graph::path_graph(5);
  Graph h(5);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  const ApproxBounds b = approx_relative_bounds(g, h);
  EXPECT_DOUBLE_EQ(b.lower, 0.0);
}

TEST(ApproxBoundsCert, FixedBudgetBoundsMatchGoldenBits) {
  // G has 36,083 edges: above the 32,768-edge size at which an earlier
  // Laplacian kernel switched from a serial scatter to a parallel one. The
  // golden bits were recorded from that edge-order scatter; the certificate
  // must reproduce them exactly at any thread count.
  const Graph g =
      graph::randomize_weights(graph::connected_erdos_renyi(300, 0.8, 5), 1.0, 6);
  std::vector<bool> keep(g.num_edges());
  for (std::size_t id = 0; id < keep.size(); ++id) keep[id] = id % 3 != 0;
  const Graph h = graph::randomize_weights(g.filtered(keep), 0.5, 7);
  ASSERT_EQ(g.num_edges(), 36083u);
  const ApproxBounds b =
      approx_relative_bounds(g, h, {.seed = 3, .tolerance = 0.0, .max_iterations = 6});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.lower), 0x3fe4b222663fc790ULL)
      << std::hexfloat << b.lower;  // 0x1.4b222663fc79p-1
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.upper), 0x3fe772c8a882dcc4ULL)
      << std::hexfloat << b.upper;  // 0x1.772c8a882dcc4p-1
}

TEST(ApproxBoundsStruct, EpsilonIsMaxDeviation) {
  ApproxBounds b;
  b.lower = 0.9;
  b.upper = 1.2;
  EXPECT_NEAR(b.epsilon(), 0.2, 1e-15);
  b.lower = 0.5;
  b.upper = 1.1;
  EXPECT_NEAR(b.epsilon(), 0.5, 1e-15);
}

}  // namespace
}  // namespace spar::sparsify
