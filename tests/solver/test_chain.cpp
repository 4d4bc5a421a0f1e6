#include "solver/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "chain_fingerprint.hpp"
#include "graph/generators.hpp"
#include "solver/solver.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
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
  // Slack on every vertex: each square shrinks adjacency dominance, so it
  // shows at the levels the depth probe keeps. (On a grounded grid the one
  // slack vertex reaches far rows only after ~5 squarings, deeper than the
  // probe builds.)
  const Graph g = graph::grid2d(12, 12);
  const InverseChain chain(SDDMatrix(g, Vector(g.num_vertices(), 0.05)), ChainOptions{});
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

/// partition_grid's graph family: a 40x40 grid with weights within a factor e.
SDDMatrix weighted_grid40() {
  return SDDMatrix(graph::randomize_weights(graph::grid2d(40, 40), 0.5, 1));
}

/// FiedlerOptions' chain knobs.
ChainOptions fiedler_chain() {
  ChainOptions opt;
  opt.rho = 8.0;
  opt.t = 1;
  return opt;
}

TEST(InverseChain, DepthProbeIsThreadInvariant) {
  // The probe runs blocked_pcg, whose reductions are chunk-ordered, so the
  // depth it picks, the bookkeeping and every chain bit match at any width.
  const struct {
    SDDMatrix m;
    ChainOptions opt;
  } cases[] = {{weighted_grid40(), fiedler_chain()},
               {SDDMatrix(graph::grid2d(32, 32)), ChainOptions{}}};
  for (const auto& c : cases) {
    std::uint64_t first = 0;
    for (const int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      const std::uint64_t h = chain_fingerprint(InverseChain(c.m, c.opt));
      if (threads == 1) first = h;
      EXPECT_EQ(h, first) << c.m.dimension() << " vertices, " << threads << " threads";
    }
  }
}

TEST(InverseChain, DeterministicAcrossThreadCounts) {
  // The build composes only deterministic parallel primitives (Gustavson
  // SpGEMM, the sparsifier's round pipeline, the probe's chunk-ordered
  // reductions), so the whole chain -- every level's graph and slack, and
  // therefore every apply() -- is bit-identical for any thread count,
  // ThreadLimit(1) included. The golden value pins the x86-64 gcc Release
  // build; re-record via BUILDING.md ("Re-baselining") after deliberate
  // algorithm changes.
  const SDDMatrix m = grounded_grid(20);
  ChainOptions opt;
  opt.max_levels = 8;
  constexpr std::uint64_t kGoldenHash = 0x30f16edff0e44f28ULL;
  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    EXPECT_EQ(chain_fingerprint(InverseChain(m, opt)), kGoldenHash) << threads << " threads";
  }
}

TEST(InverseChain, DepthStopsAtTheProbedCostMinimum) {
  // Every kept level lowered the probe's work per solve; the next one did not.
  const InverseChain grid(weighted_grid40(), fiedler_chain());
  const auto& info = grid.level_info();
  EXPECT_LE(grid.num_levels(), 3u);
  for (std::size_t i = 1; i < info.size(); ++i) {
    EXPECT_GT(info[i].probe_iterations, 0u) << i;
    EXPECT_LT(info[i].probe_work, info[i - 1].probe_work) << i;
  }
  // An expander needs two PCG iterations with the Jacobi tail alone: the
  // square would cost far more than it saves.
  const InverseChain er(SDDMatrix(graph::connected_erdos_renyi(2000, 16.0 / 2000.0, 31)),
                        ChainOptions{});
  EXPECT_EQ(er.num_levels(), 1u);
}

TEST(InverseChain, FinalLevelRecordsOnlyTheRejectedSquare) {
  // The probe ended the build: the final level keeps the rejected square.
  const InverseChain probed(grounded_grid(12), ChainOptions{});
  ASSERT_LT(probed.num_levels(), ChainOptions{}.max_levels);
  EXPECT_GT(probed.level_info().back().edges_after_square, 0u);
  // max_levels ended it: one level, probed but never squared.
  ChainOptions one;
  one.max_levels = 1;
  const InverseChain capped(grounded_grid(12), one);
  ASSERT_EQ(capped.num_levels(), 1u);
  EXPECT_GT(capped.level_info().front().probe_iterations, 0u);
  EXPECT_EQ(capped.level_info().front().edges_after_square, 0u);
  // gamma ended it: Jacobi alone finishes, nothing squared.
  const InverseChain easy(SDDMatrix(graph::cycle_graph(20), Vector(20, 100.0)),
                          ChainOptions{});
  ASSERT_EQ(easy.num_levels(), 1u);
  EXPECT_EQ(easy.level_info().front().edges_after_square, 0u);
}

TEST(InverseChain, EdgelessAndTwoVertexInputsBuild) {
  // No edges: the chain is the diagonal's inverse.
  const Vector slack{1.0, 2.0, 4.0, 8.0, 16.0};
  const InverseChain edgeless(SDDMatrix(Graph(5), slack), ChainOptions{});
  ASSERT_EQ(edgeless.num_levels(), 1u);
  Vector y(5);
  edgeless.apply(Vector(5, 1.0), y);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(y[i], 1.0 / slack[i]);
  // One edge, singular: the chain preconditions a solve on range(L).
  const SDDMatrix pair(Graph(2, {{0, 1, 3.0}}));
  const InverseChain chain(pair, ChainOptions{});
  EXPECT_GE(chain.num_levels(), 1u);
  const SolveReport report = solve_sdd(pair, chain, Vector{1.0, -1.0});
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(report.solution[0] - report.solution[1], 1.0 / 3.0, 1e-9);
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
