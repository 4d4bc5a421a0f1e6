#include "solver/sdd_matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "graph/generators.hpp"
#include "linalg/laplacian.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::Vector;

// M x as a serial edge-order scatter plus the slack term: the bits
// SDDMatrix::apply must reproduce.
Vector reference_apply(const Graph& g, const Vector& slack, const Vector& x) {
  Vector y(g.num_vertices(), 0.0);
  for (const graph::Edge& e : g.edges()) {
    const double flow = e.w * (x[e.u] - x[e.v]);
    y[e.u] += flow;
    y[e.v] -= flow;
  }
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += slack[i] * x[i];
  return y;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Fixture {
  Graph g;
  Vector slack;
  Vector x;
};

// ~40k weighted edges, random slack on every vertex, a random x.
Fixture large_fixture() {
  Fixture f{graph::randomize_weights(graph::connected_erdos_renyi(400, 0.5, 8), 2.0, 9),
            {}, {}};
  support::Rng rng(10);
  f.slack.resize(f.g.num_vertices());
  for (double& s : f.slack) s = rng.uniform();
  f.x.resize(f.g.num_vertices());
  for (double& v : f.x) v = rng.normal();
  return f;
}

TEST(SDDMatrix, PureLaplacianIsSingular) {
  const SDDMatrix m(graph::cycle_graph(6));
  EXPECT_TRUE(m.is_singular());
  EXPECT_EQ(m.dimension(), 6u);
}

TEST(SDDMatrix, SlackMakesNonsingular) {
  Vector slack(6, 0.0);
  slack[2] = 0.5;
  const SDDMatrix m(graph::cycle_graph(6), slack);
  EXPECT_FALSE(m.is_singular());
}

TEST(SDDMatrix, RejectsNegativeSlack) {
  EXPECT_THROW(SDDMatrix(graph::path_graph(3), Vector{0.0, -1.0, 0.0}),
               spar::Error);
}

TEST(SDDMatrix, RejectsWrongSlackSize) {
  EXPECT_THROW(SDDMatrix(graph::path_graph(3), Vector{0.0, 0.0}), spar::Error);
}

TEST(SDDMatrix, DiagonalIsDegreePlusSlack) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  const SDDMatrix m(g, Vector{1.0, 0.0, 0.5});
  EXPECT_DOUBLE_EQ(m.diagonal()[0], 3.0);
  EXPECT_DOUBLE_EQ(m.diagonal()[1], 5.0);
  EXPECT_DOUBLE_EQ(m.diagonal()[2], 3.5);
}

TEST(SDDMatrix, ApplyMatchesLaplacianPlusSlack) {
  const Graph g = graph::randomize_weights(graph::grid2d(6, 6), 1.0, 3);
  Vector slack(g.num_vertices());
  support::Rng rng(7);
  for (double& s : slack) s = rng.uniform();
  const SDDMatrix m(g, slack);
  Vector x(g.num_vertices());
  for (double& v : x) v = rng.normal();

  const linalg::LaplacianOperator lap(g);
  Vector expected = lap.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i) expected[i] += slack[i] * x[i];
  const Vector got = m.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-10);
}

TEST(SDDMatrix, ApplyBitIdenticalToEdgeOrderScatterAtEveryThreadCount) {
  const Fixture f = large_fixture();
  const Vector expected = reference_apply(f.g, f.slack, f.x);
  const SDDMatrix m(f.g, f.slack);
  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    EXPECT_TRUE(same_bits(m.apply(f.x), expected)) << threads << " threads";
  }
}

TEST(SDDMatrix, CopyTakenBeforeFirstApplyOutlivesTheOriginal) {
  const Fixture f = large_fixture();
  const Vector expected = reference_apply(f.g, f.slack, f.x);
  auto original = std::make_unique<SDDMatrix>(f.g, f.slack);
  const SDDMatrix copy = *original;
  EXPECT_TRUE(same_bits(original->apply(f.x), expected));  // builds the shared kernel
  original.reset();
  EXPECT_TRUE(same_bits(copy.apply(f.x), expected));
}

TEST(SDDMatrix, ConcurrentFirstAppliesOnCopiesGetReferenceBits) {
  const Fixture f = large_fixture();
  const Vector expected = reference_apply(f.g, f.slack, f.x);
  const SDDMatrix m(f.g, f.slack);
  const SDDMatrix copy = m;
  Vector ya, yb;
  std::thread a([&] { ya = m.apply(f.x); });
  std::thread b([&] { yb = copy.apply(f.x); });
  a.join();
  b.join();
  EXPECT_TRUE(same_bits(ya, expected));
  EXPECT_TRUE(same_bits(yb, expected));
}

TEST(SDDMatrix, QuadraticFormNonnegativeAndExact) {
  const Graph g = graph::cycle_graph(8);
  const SDDMatrix m(g, Vector(8, 0.25));
  support::Rng rng(5);
  Vector x(8);
  for (double& v : x) v = rng.normal();
  const double via_apply = linalg::dot(x, m.apply(x));
  EXPECT_NEAR(m.quadratic_form(x), via_apply, 1e-9);
  EXPECT_GE(m.quadratic_form(x), 0.0);
}

TEST(SDDMatrix, ToCsrMatchesApply) {
  const Graph g = graph::randomize_weights(graph::complete_graph(12), 1.0, 9);
  const SDDMatrix m(g, Vector(12, 0.1));
  const auto csr = m.to_csr();
  support::Rng rng(3);
  Vector x(12);
  for (double& v : x) v = rng.normal();
  const Vector a = m.apply(x);
  const Vector b = csr.multiply(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-10);
}

TEST(SDDMatrix, NnzCountsBothTrianglesPlusDiagonal) {
  const Graph g = graph::path_graph(5);
  const SDDMatrix m(g);
  EXPECT_EQ(m.nnz(), 2u * 4 + 5);
}

}  // namespace
}  // namespace spar::solver
