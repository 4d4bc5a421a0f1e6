#include "solver/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "graph/generators.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::solver {
namespace {

using graph::Graph;
using linalg::Vector;

Vector random_rhs(std::size_t n, std::uint64_t seed, bool mean_free) {
  support::Rng rng(seed);
  Vector b(n);
  for (double& v : b) v = rng.normal();
  if (mean_free) linalg::remove_mean(b);
  return b;
}

double residual(const SDDMatrix& m, const Vector& x, const Vector& b) {
  const Vector mx = m.apply(x);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err += (mx[i] - b[i]) * (mx[i] - b[i]);
    norm += b[i] * b[i];
  }
  return std::sqrt(err / norm);
}

TEST(SolveCg, SolvesGroundedGrid) {
  const Graph g = graph::grid2d(12, 12);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  const SDDMatrix m(g, slack);
  const Vector b = random_rhs(m.dimension(), 3, false);
  const auto report = solve_cg(m, b);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(m, report.solution, b), 1e-6);
}

TEST(SolveCg, SolvesSingularLaplacianOnRange) {
  const Graph g = graph::connected_erdos_renyi(100, 0.08, 5);
  const SDDMatrix m(g);
  const Vector b = random_rhs(m.dimension(), 7, true);
  const auto report = solve_cg(m, b);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(m, report.solution, b), 1e-6);
}

TEST(SolveJacobiPcg, Converges) {
  const Graph g = graph::grid2d(10, 10);
  const SDDMatrix m(g, Vector(g.num_vertices(), 0.5));
  const Vector b = random_rhs(m.dimension(), 9, false);
  const auto report = solve_jacobi_pcg(m, b);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(m, report.solution, b), 1e-6);
}

TEST(SolveSdd, ChainPcgConvergesOnGroundedGrid) {
  const Graph g = graph::grid2d(15, 15);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  const SDDMatrix m(g, slack);
  const Vector b = random_rhs(m.dimension(), 11, false);
  SolveOptions opt;
  opt.chain.max_levels = 12;
  const auto report = solve_sdd(m, b, opt);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(m, report.solution, b), 1e-6);
  EXPECT_GE(report.chain_levels, 2u);
  EXPECT_GT(report.chain_total_nnz, 0u);
}

TEST(SolveSdd, FewerIterationsThanPlainCg) {
  const Graph g = graph::grid2d(20, 20);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  const SDDMatrix m(g, slack);
  const Vector b = random_rhs(m.dimension(), 13, false);
  SolveOptions opt;
  opt.chain.max_levels = 16;
  const auto chain_report = solve_sdd(m, b, opt);
  const auto cg_report = solve_cg(m, b, opt);
  EXPECT_TRUE(chain_report.converged);
  EXPECT_TRUE(cg_report.converged);
  EXPECT_LT(chain_report.iterations, cg_report.iterations / 3);
}

TEST(SolveSdd, SingularLaplacianConverges) {
  const Graph g = graph::grid2d(12, 12);
  const SDDMatrix m(g);
  const Vector b = random_rhs(m.dimension(), 17, true);
  SolveOptions opt;
  opt.chain.max_levels = 8;
  const auto report = solve_sdd(m, b, opt);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(m, report.solution, b), 1e-6);
}

TEST(SolveSdd, ChainReuseAcrossRhs) {
  const Graph g = graph::grid2d(10, 10);
  Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  const SDDMatrix m(g, slack);
  SolveOptions opt;
  const InverseChain chain(m, opt.chain);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Vector b = random_rhs(m.dimension(), seed, false);
    const auto report = solve_sdd(m, chain, b, opt);
    EXPECT_TRUE(report.converged) << "seed " << seed;
    EXPECT_LT(residual(m, report.solution, b), 1e-6);
  }
}

TEST(SolveSdd, RandomWeightedGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = graph::randomize_weights(
        graph::connected_erdos_renyi(150, 0.05, seed), 2.0, seed);
    const SDDMatrix m(g);
    const Vector b = random_rhs(m.dimension(), seed * 7, true);
    SolveOptions opt;
    opt.chain.max_levels = 8;
    const auto report = solve_sdd(m, b, opt);
    EXPECT_TRUE(report.converged) << "seed " << seed;
    EXPECT_LT(residual(m, report.solution, b), 1e-6) << "seed " << seed;
  }
}

TEST(Solvers, RejectWrongRhsSize) {
  const SDDMatrix m(graph::path_graph(5));
  const Vector b(4, 1.0);
  EXPECT_THROW(solve_cg(m, b), spar::Error);
  EXPECT_THROW(solve_jacobi_pcg(m, b), spar::Error);
  EXPECT_THROW(solve_sdd(m, b), spar::Error);
}

TEST(Solvers, AgreeOnSolution) {
  // All three solvers must find the same solution (unique for nonsingular).
  const Graph g = graph::grid2d(8, 8);
  const SDDMatrix m(g, Vector(g.num_vertices(), 0.3));
  const Vector b = random_rhs(m.dimension(), 23, false);
  SolveOptions opt;
  opt.tolerance = 1e-10;
  const auto a = solve_cg(m, b, opt);
  const auto c = solve_jacobi_pcg(m, b, opt);
  const auto d = solve_sdd(m, b, opt);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(a.solution[i], c.solution[i], 1e-6);
    EXPECT_NEAR(a.solution[i], d.solution[i], 1e-6);
  }
}

// Solve goldens: FNV-1a over each entry point's iteration count and solution
// bits, recorded before the solver kernels became one width-templated path
// (a single right-hand side is a width-1 block). They pin the exact output of
// every public single-RHS solve, at every thread count, so a kernel rewrite
// that moves one bit -- a different summation order, a different chunking --
// fails here. Re-record via BUILDING.md ("Re-baselining") only after a
// deliberate algorithm change.
std::uint64_t solve_hash(const SolveReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(report.iterations);
  for (const double v : report.solution) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

/// Runs `solve` at 1, 2 and 4 threads and demands the golden every time.
template <typename Solve>
void expect_golden(std::uint64_t golden, std::size_t iterations, Solve&& solve) {
  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const SolveReport report = solve();
    EXPECT_TRUE(report.converged) << threads << " threads";
    EXPECT_EQ(report.iterations, iterations) << threads << " threads";
    EXPECT_EQ(solve_hash(report), golden)
        << threads << " threads: 0x" << std::hex << solve_hash(report);
  }
}

/// Grounded weighted grid: nonsingular (slack on every 17th vertex), weights
/// within a factor e of each other.
SDDMatrix slack_grid(graph::Vertex side, std::uint64_t seed) {
  const Graph g = graph::randomize_weights(graph::grid2d(side, side), 0.5, seed);
  Vector slack(g.num_vertices(), 0.0);
  for (std::size_t i = 0; i < slack.size(); i += 17) slack[i] = 0.25;
  return SDDMatrix(g, std::move(slack));
}

TEST(SolveGolden, SolveSddSingularWeightedGrid) {
  const SDDMatrix m(graph::randomize_weights(graph::grid2d(24, 24), 0.5, 3));
  SolveOptions opt;
  opt.chain.max_levels = 6;
  const InverseChain chain(m, opt.chain);
  const Vector b = random_rhs(m.dimension(), 41, true);
  // Moved when the depth probe replaced the fixed depth (6 -> 2 levels,
  // 10 -> 14 iterations; was 0x24ccb9ef617771fb).
  expect_golden(0xc468a9fecbda5471ULL, 14, [&] { return solve_sdd(m, chain, b, opt); });
}

TEST(SolveGolden, SolveSddNonsingularWithSlack) {
  const Graph g = graph::randomize_weights(
      graph::connected_erdos_renyi(300, 0.03, 13), 1.0, 13);
  Vector slack(g.num_vertices(), 0.0);
  for (std::size_t i = 0; i < slack.size(); i += 7) slack[i] = 0.1;
  const SDDMatrix m(g, std::move(slack));
  SolveOptions opt;
  opt.chain.max_levels = 6;
  const InverseChain chain(m, opt.chain);
  const Vector b = random_rhs(m.dimension(), 43, false);
  // Moved when the depth probe replaced the fixed depth (11 -> 5
  // iterations; was 0xda78c8855c78c3c0).
  expect_golden(0x9a00ab818e4e7168ULL, 5, [&] { return solve_sdd(m, chain, b, opt); });
}

// n = 16900 crosses the 2^14 parallel threshold of the vector kernels.
TEST(SolveGolden, SolveJacobiPcg) {
  const SDDMatrix m = slack_grid(130, 5);
  const Vector b = random_rhs(m.dimension(), 47, false);
  expect_golden(0xd496c60a76da804aULL, 215, [&] { return solve_jacobi_pcg(m, b); });
}

TEST(SolveGolden, SolveCg) {
  const SDDMatrix m = slack_grid(130, 7);
  const Vector b = random_rhs(m.dimension(), 53, false);
  expect_golden(0x6f03bec5c26e785eULL, 232, [&] { return solve_cg(m, b); });
}

}  // namespace
}  // namespace spar::solver
