#include "solver/squaring.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "linalg/dense.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::DenseMatrix;
using linalg::Vector;

// Dense reference: D - A D^{-1} A computed naively.
DenseMatrix dense_square(const SDDMatrix& m) {
  const std::size_t n = m.dimension();
  const DenseMatrix a = DenseMatrix::from_csr(m.adjacency_csr());
  const Vector& d = m.diagonal();
  DenseMatrix ad(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) ad.at(r, c) = a.at(r, c) / d[c];
  const DenseMatrix ada = ad.multiply(a);
  DenseMatrix out(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      out.at(r, c) = (r == c ? d[r] : 0.0) - ada.at(r, c);
  return out;
}

TEST(Square, MatchesDenseReferenceOnLaplacian) {
  const Graph g = graph::randomize_weights(graph::connected_erdos_renyi(25, 0.3, 3), 1.0, 5);
  const SDDMatrix m(g);
  const SDDMatrix sq = square(m);
  const DenseMatrix expected = dense_square(m);
  const DenseMatrix got = DenseMatrix::from_csr(sq.to_csr());
  for (std::size_t i = 0; i < m.dimension(); ++i)
    for (std::size_t j = 0; j < m.dimension(); ++j)
      EXPECT_NEAR(got.at(i, j), expected.at(i, j), 1e-9) << i << "," << j;
}

TEST(Square, MatchesDenseReferenceWithSlack) {
  const Graph g = graph::grid2d(5, 5);
  Vector slack(g.num_vertices());
  support::Rng rng(7);
  for (double& s : slack) s = rng.uniform();
  const SDDMatrix m(g, slack);
  const SDDMatrix sq = square(m);
  const DenseMatrix expected = dense_square(m);
  const DenseMatrix got = DenseMatrix::from_csr(sq.to_csr());
  for (std::size_t i = 0; i < m.dimension(); ++i)
    for (std::size_t j = 0; j < m.dimension(); ++j)
      EXPECT_NEAR(got.at(i, j), expected.at(i, j), 1e-9);
}

TEST(Square, LaplacianSquaresToLaplacian) {
  // The squared matrix of a singular Laplacian is singular: slack stays 0.
  const Graph g = graph::connected_erdos_renyi(30, 0.2, 9);
  const SDDMatrix sq = square(SDDMatrix(g));
  EXPECT_TRUE(sq.is_singular());
}

TEST(Square, SlackStaysNonnegative) {
  const Graph g = graph::grid2d(6, 6);
  const SDDMatrix m(g, Vector(g.num_vertices(), 0.3));
  const SDDMatrix sq = square(m);
  for (double s : sq.slack()) EXPECT_GE(s, 0.0);
  EXPECT_FALSE(sq.is_singular());
}

TEST(Square, DensifiesSparseGraphs) {
  // Distance-2 neighbors become adjacent: grids gain edges.
  const Graph g = graph::grid2d(8, 8);
  const SDDMatrix m(g);
  const SDDMatrix sq = square(m);
  EXPECT_EQ(m.graph_part().num_edges(), g.num_edges());
  EXPECT_GT(sq.graph_part().num_edges(), g.num_edges());
}

TEST(Square, PreservesDiagonal) {
  // M~ = D - A D^{-1} A keeps the same D by construction:
  // degree'(i) + slack'(i) + diag(AD^{-1}A)(i) == D_ii... i.e. full diagonal
  // of M~ is D - diag(AD^{-1}A); verify via to_csr.
  const Graph g = graph::cycle_graph(10);
  const SDDMatrix m(g, Vector(10, 0.5));
  const SDDMatrix sq = square(m);
  const auto diag = sq.to_csr().diagonal_vector();
  const DenseMatrix expected = dense_square(m);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(diag[i], expected.at(i, i), 1e-10);
}

TEST(Square, FoldsUnderflowedOffdiagIntoDiagonal) {
  // Product off-diagonals of A D^{-1} A are sums of nonnegative terms, so a
  // genuinely negative entry is unreachable through this API (Graph enforces
  // w > 0); the reachable degenerate case is underflow to EXACTLY zero on
  // extreme weight ranges. The split loop must route such entries through the
  // diagonal fold -- never to add_edge (a w == 0 edge throws) and never to a
  // silent drop that would desynchronize the row-sum bookkeeping if a future
  // kernel produced genuine cancellation. Path 0-1-2 with tiny edge weights
  // and a hugely grounded middle vertex: S_02 = w_01 * w_12 / D_1 ~ 1e-480,
  // which underflows to zero.
  Graph g(3);
  g.add_edge(0, 1, 1e-160);
  g.add_edge(1, 2, 1e-160);
  Vector slack(3, 0.0);
  slack[1] = 1e160;
  const SDDMatrix m(g, slack);
  SDDMatrix sq;
  ASSERT_NO_THROW(sq = square(m));
  // The underflowed (0, 2) entry folded away: no edge survives, and none with
  // a non-positive weight was ever attempted.
  EXPECT_EQ(sq.graph_part().num_edges(), 0u);
  // Slack stays nonnegative and finite; the grounded vertex keeps its slack.
  for (double s : sq.slack()) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
  EXPECT_FALSE(sq.is_singular());
}

TEST(AdjacencyDominance, LaplacianIsOne) {
  EXPECT_DOUBLE_EQ(adjacency_dominance(SDDMatrix(graph::cycle_graph(6))), 1.0);
}

TEST(AdjacencyDominance, SlackReducesGamma) {
  const Graph g = graph::cycle_graph(6);
  const SDDMatrix m(g, Vector(6, 2.0));  // degree 2, slack 2 => gamma = 0.5
  EXPECT_DOUBLE_EQ(adjacency_dominance(m), 0.5);
}

TEST(AdjacencyDominance, SquaringReducesGammaForNonsingular) {
  const Graph g = graph::grid2d(7, 7);
  const SDDMatrix m(g, Vector(g.num_vertices(), 1.0));
  const double before = adjacency_dominance(m);
  const double after = adjacency_dominance(square(m));
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace spar::solver
