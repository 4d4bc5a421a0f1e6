#include "linalg/laplacian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "graph/generators.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::linalg {
namespace {

using graph::Graph;

// The serial edge-order scatter LaplacianOperator::apply must reproduce bit
// for bit.
Vector reference_scatter(const Graph& g, std::span<const double> x) {
  Vector y(g.num_vertices(), 0.0);
  for (const graph::Edge& e : g.edges()) {
    const double flow = e.w * (x[e.u] - x[e.v]);
    y[e.u] += flow;
    y[e.v] -= flow;
  }
  return y;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Entries spread over several binades, so the sums round in most rows.
Vector spread_vector(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  Vector x(n);
  for (double& v : x) v = rng.normal() * std::exp(6.0 * rng.uniform());
  return x;
}

// ~40k weighted edges: above the 32,768-edge size at which an earlier
// edge-list operator switched from its serial to its parallel path.
Graph large_weighted_graph() {
  return graph::randomize_weights(graph::connected_erdos_renyi(400, 0.5, 21), 3.0, 22);
}

// A weighted grid plus a parallel edge and an isolated last vertex.
Graph small_weighted_graph() {
  const Graph grid = graph::randomize_weights(graph::grid2d(5, 7), 2.0, 5);
  Graph g(grid.num_vertices() + 1);
  for (const graph::Edge& e : grid.edges()) g.add_edge(e.u, e.v, e.w);
  g.add_edge(0, 1, 0.3);
  return g;
}

TEST(Laplacian, MatrixEntriesMatchDefinition) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  const CSRMatrix l = laplacian_matrix(g);
  // Check action on basis vectors: L e_1 = [-2, 5, -3].
  const Vector y = l.multiply(Vector{0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], -3.0);
}

TEST(Laplacian, AnnihilatesConstants) {
  const Graph g = graph::randomize_weights(graph::connected_erdos_renyi(50, 0.2, 3), 1.5, 4);
  const CSRMatrix l = laplacian_matrix(g);
  const Vector ones(g.num_vertices(), 1.0);
  const Vector y = l.multiply(ones);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Laplacian, MatrixIsSymmetric) {
  const Graph g = graph::randomize_weights(graph::grid2d(6, 7), 1.0, 9);
  EXPECT_DOUBLE_EQ(laplacian_matrix(g).symmetry_gap(), 0.0);
}

TEST(Laplacian, OperatorMatchesMatrix) {
  const Graph g = graph::randomize_weights(graph::connected_erdos_renyi(60, 0.2, 5), 2.0, 7);
  const CSRMatrix l = laplacian_matrix(g);
  const LaplacianOperator op(g);
  support::Rng rng(11);
  Vector x(g.num_vertices());
  for (double& v : x) v = rng.normal();
  const Vector via_matrix = l.multiply(x);
  const Vector via_operator = op.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(via_matrix[i], via_operator[i], 1e-10);
}

TEST(LaplacianOperator, BitIdenticalToEdgeOrderScatterAtEveryThreadCount) {
  for (const Graph& g : {small_weighted_graph(), large_weighted_graph()}) {
    const Vector x = spread_vector(g.num_vertices(), 31);
    const Vector expected = reference_scatter(g, x);
    const LaplacianOperator op(g);
    for (const int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      EXPECT_TRUE(same_bits(op.apply(x), expected))
          << g.num_edges() << " edges, " << threads << " threads";
    }
  }
}

TEST(LaplacianOperator, ConcurrentAppliesOnOneOperatorGetReferenceBits) {
  const Graph g = large_weighted_graph();
  const LaplacianOperator op(g);
  const auto worker = [&](std::uint64_t seed, int& mismatches) {
    const Vector x = spread_vector(g.num_vertices(), seed);
    const Vector expected = reference_scatter(g, x);
    Vector y(x.size());
    for (int rep = 0; rep < 50; ++rep) {
      op.apply(x, y);
      if (!same_bits(y, expected)) ++mismatches;
    }
  };
  int bad_a = 0;
  int bad_b = 0;
  std::thread a(worker, 41, std::ref(bad_a));
  std::thread b(worker, 42, std::ref(bad_b));
  a.join();
  b.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

TEST(LaplacianOperator, OutlivesTheGraphItWasBuiltFrom) {
  std::optional<Graph> g(small_weighted_graph());
  const Vector x = spread_vector(g->num_vertices(), 7);
  const Vector expected = reference_scatter(*g, x);
  const LaplacianOperator op(*g);
  g.reset();
  EXPECT_TRUE(same_bits(op.apply(x), expected));
}

TEST(Laplacian, QuadraticFormMatchesEdgeSum) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 0.5);
  const Vector x = {1.0, 3.0, 0.0};
  // 2*(1-3)^2 + 0.5*(3-0)^2 = 8 + 4.5
  EXPECT_DOUBLE_EQ(laplacian_quadratic_form(g, x), 12.5);
}

TEST(Laplacian, QuadraticFormEqualsXtLx) {
  const Graph g = graph::randomize_weights(graph::grid2d(8, 8), 1.0, 13);
  const CSRMatrix l = laplacian_matrix(g);
  support::Rng rng(3);
  Vector x(g.num_vertices());
  for (double& v : x) v = rng.normal();
  EXPECT_NEAR(laplacian_quadratic_form(g, x), dot(x, l.multiply(x)), 1e-9);
}

TEST(Laplacian, QuadraticFormNonnegative) {
  const Graph g = graph::preferential_attachment(100, 2, 5);
  support::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(g.num_vertices());
    for (double& v : x) v = rng.normal();
    EXPECT_GE(laplacian_quadratic_form(g, x), 0.0);
  }
}

TEST(DegreeVector, MatchesWeightedDegrees) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  const Vector d = degree_vector(g);
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(AdjacencyMatrix, OffDiagonalPositive) {
  Graph g(2);
  g.add_edge(0, 1, 4.0);
  const CSRMatrix a = adjacency_matrix(g);
  EXPECT_DOUBLE_EQ(a.multiply(Vector{0.0, 1.0})[0], 4.0);
  EXPECT_DOUBLE_EQ(a.multiply(Vector{1.0, 0.0})[1], 4.0);
}

TEST(AdjacencyMatrix, LaplacianIsDegreeMinusAdjacency) {
  const Graph g = graph::randomize_weights(graph::cycle_graph(20), 1.0, 17);
  const CSRMatrix l = laplacian_matrix(g);
  const CSRMatrix a = adjacency_matrix(g);
  const CSRMatrix d = CSRMatrix::diagonal(degree_vector(g));
  const CSRMatrix reconstructed = d.add(a, -1.0);
  support::Rng rng(23);
  Vector x(g.num_vertices());
  for (double& v : x) v = rng.normal();
  const Vector y1 = l.multiply(x);
  const Vector y2 = reconstructed.multiply(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-10);
}

}  // namespace
}  // namespace spar::linalg
