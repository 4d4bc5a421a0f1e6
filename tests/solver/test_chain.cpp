#include "solver/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/generators.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::Vector;

SDDMatrix grounded_grid(graph::Vertex side) {
  const Graph g = graph::grid2d(side, side);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  return SDDMatrix(g, slack);
}

TEST(InverseChain, TerminatesWithinMaxLevels) {
  ChainOptions opt;
  opt.max_levels = 6;
  const InverseChain chain(grounded_grid(10), opt);
  EXPECT_GE(chain.num_levels(), 1u);
  EXPECT_LE(chain.num_levels(), 6u);
}

TEST(InverseChain, RejectsZeroMaxLevels) {
  // A chain with no level has nothing to apply; the error names the option.
  ChainOptions opt;
  opt.max_levels = 0;
  try {
    const InverseChain chain(grounded_grid(4), opt);
    FAIL() << "max_levels = 0 was accepted";
  } catch (const spar::Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_levels"), std::string::npos) << e.what();
  }
}

TEST(InverseChain, GammaDecreasesAlongChain) {
  ChainOptions opt;
  opt.max_levels = 12;
  const InverseChain chain(grounded_grid(12), opt);
  const auto& info = chain.level_info();
  ASSERT_GE(info.size(), 2u);
  EXPECT_LT(info.back().gamma, info.front().gamma);
}

TEST(InverseChain, WellConditionedInputNeedsOneLevel) {
  // Massive slack makes gamma tiny: chain should stop immediately.
  const Graph g = graph::cycle_graph(20);
  const SDDMatrix m(g, Vector(20, 100.0));
  ChainOptions opt;
  const InverseChain chain(m, opt);
  EXPECT_EQ(chain.num_levels(), 1u);
}

TEST(InverseChain, ApplyIsLinear) {
  const SDDMatrix m = grounded_grid(8);
  ChainOptions opt;
  opt.max_levels = 8;
  const InverseChain chain(m, opt);
  support::Rng rng(3);
  const std::size_t n = m.dimension();
  Vector a(n), b(n);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();

  Vector wa(n), wb(n), wsum(n);
  chain.apply(a, wa);
  chain.apply(b, wb);
  Vector sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] - 3.0 * b[i];
  chain.apply(sum, wsum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(wsum[i], 2.0 * wa[i] - 3.0 * wb[i], 1e-8);
}

TEST(InverseChain, ApplyIsSymmetric) {
  // <x, W y> == <W x, y> is required for PCG correctness.
  const SDDMatrix m = grounded_grid(7);
  ChainOptions opt;
  opt.max_levels = 8;
  const InverseChain chain(m, opt);
  support::Rng rng(9);
  const std::size_t n = m.dimension();
  Vector x(n), y(n), wx(n), wy(n);
  for (double& v : x) v = rng.normal();
  for (double& v : y) v = rng.normal();
  chain.apply(x, wx);
  chain.apply(y, wy);
  const double left = linalg::dot(x, wy);
  const double right = linalg::dot(wx, y);
  EXPECT_NEAR(left, right, 1e-8 * std::max(std::abs(left), 1.0));
}

TEST(InverseChain, ApplyIsPositiveDefiniteOnTestVectors) {
  const SDDMatrix m = grounded_grid(7);
  ChainOptions opt;
  const InverseChain chain(m, opt);
  support::Rng rng(17);
  const std::size_t n = m.dimension();
  for (int trial = 0; trial < 10; ++trial) {
    Vector x(n), wx(n);
    for (double& v : x) v = rng.normal();
    chain.apply(x, wx);
    EXPECT_GT(linalg::dot(x, wx), 0.0);
  }
}

TEST(InverseChain, ApproximatesInverseOnEasyMatrix) {
  // Diagonally dominant with modest gamma: one chain application should be a
  // decent inverse: ||W M x - x|| small relative to ||x||.
  const Graph g = graph::grid2d(9, 9);
  const SDDMatrix m(g, Vector(g.num_vertices(), 2.0));
  ChainOptions opt;
  const InverseChain chain(m, opt);
  support::Rng rng(5);
  const std::size_t n = m.dimension();
  Vector x(n), mx(n), wmx(n);
  for (double& v : x) v = rng.normal();
  m.apply(x, mx);
  chain.apply(mx, wmx);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += (wmx[i] - x[i]) * (wmx[i] - x[i]);
    norm += x[i] * x[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.5);
}

TEST(InverseChain, TotalNnzAccountsAllLevels) {
  const SDDMatrix m = grounded_grid(8);
  ChainOptions opt;
  opt.max_levels = 5;
  const InverseChain chain(m, opt);
  std::size_t manual = 0;
  for (const auto& info : chain.level_info()) manual += 2 * info.edges;
  EXPECT_GE(chain.total_nnz(), manual);  // + diagonals
}

TEST(InverseChain, SparsificationCapsLevelGrowth) {
  // With sparsification on, stored level sizes stay near 4n, the chain's
  // threshold of applicability.
  const SDDMatrix m = grounded_grid(14);
  ChainOptions opt;
  opt.max_levels = 10;
  opt.rho = 8.0;
  opt.t = 1;
  const InverseChain chain(m, opt);
  const double cap = 14.0 * 4.0 * double(m.dimension());
  for (const auto& info : chain.level_info())
    EXPECT_LT(double(info.edges), cap);
}

TEST(InverseChain, SingularLaplacianChainStaysFinite) {
  const Graph g = graph::grid2d(8, 8);
  const SDDMatrix m(g);
  ChainOptions opt;
  opt.max_levels = 6;
  const InverseChain chain(m, opt);
  support::Rng rng(7);
  Vector b(m.dimension()), y(m.dimension());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  chain.apply(b, y);
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
  // Output is mean-free (stays in range(L)).
  EXPECT_NEAR(linalg::mean(y), 0.0, 1e-10);
}

}  // namespace
}  // namespace spar::solver
