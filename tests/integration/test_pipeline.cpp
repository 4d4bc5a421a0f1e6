// Cross-module integration tests: the full pipelines a user of libspar runs.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/traversal.hpp"
#include "resistance/effective_resistance.hpp"
#include "solver/solver.hpp"
#include "sparsify/baselines.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/rng.hpp"

#include <sstream>

namespace spar {
namespace {

using graph::Graph;
using linalg::Vector;

TEST(Pipeline, SparsifyThenSolveMatchesDirectSolve) {
  // Solve L_G x = b and L_H x = b with H a sparsifier: solutions must agree
  // up to the spectral approximation quality.
  const Graph g = graph::randomize_weights(graph::complete_graph(80), 0.5, 3);
  sparsify::SparsifyOptions sopt;
  sopt.epsilon = 0.5;
  sopt.rho = 8.0;
  sopt.t = 4;
  sopt.seed = 7;
  const auto sp = sparsify::parallel_sparsify(g, sopt);
  ASSERT_LT(sp.sparsifier.num_edges(), g.num_edges());

  const solver::SDDMatrix mg((Graph(g)));
  const solver::SDDMatrix mh((Graph(sp.sparsifier)));
  support::Rng rng(5);
  Vector b(g.num_vertices());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);

  const auto xg = solver::solve_cg(mg, b);
  const auto xh = solver::solve_cg(mh, b);
  ASSERT_TRUE(xg.converged);
  ASSERT_TRUE(xh.converged);

  // Relative error in the G-energy norm is bounded by the certificate eps.
  const auto bounds = sparsify::exact_relative_bounds(g, sp.sparsifier);
  Vector diff(b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    diff[i] = xg.solution[i] - xh.solution[i];
  const double err_energy = mg.quadratic_form(diff);
  const double sol_energy = mg.quadratic_form(xg.solution);
  const double eps = bounds.epsilon();
  ASSERT_LT(eps, 1.0);
  // || x_G - x_H ||_G <= ~ eps/(1-eps) * || x_G ||_G  (standard perturbation)
  EXPECT_LE(std::sqrt(err_energy / sol_energy), 1.5 * eps / (1.0 - eps) + 0.05);
}

TEST(Pipeline, SparsifierAsPreconditioner) {
  // PCG on L_G preconditioned by a direct solve of the sparsifier converges
  // in few iterations -- the core "preconditioning" application.
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 0.5, 9);
  sparsify::SparsifyOptions sopt;
  sopt.rho = 8.0;
  sopt.t = 3;
  sopt.seed = 3;
  const auto sp = sparsify::parallel_sparsify(g, sopt);
  const auto bounds = sparsify::exact_relative_bounds(g, sp.sparsifier);
  ASSERT_GT(bounds.lower, 0.0);
  // Condition number of the preconditioned system:
  const double kappa = bounds.upper / bounds.lower;
  // CG on the preconditioned pencil needs ~ sqrt(kappa) iterations; with
  // kappa < 4 that is a handful.
  EXPECT_LT(kappa, 6.0);
}

TEST(Pipeline, DistributedAndSharedSamplesAgreeSpectrally) {
  const Graph g = graph::randomize_weights(graph::complete_graph(50), 0.5, 11);
  sparsify::SampleOptions shared;
  shared.t = 3;
  shared.seed = 13;
  const auto shared_result = sparsify::parallel_sample(g, shared);
  dist::DistSampleOptions distributed;
  distributed.t = 3;
  distributed.seed = 13;
  const auto dist_result = dist::run_distributed_sample(g, distributed, {});

  const auto b1 = sparsify::exact_relative_bounds(g, shared_result.sparsifier);
  const auto b2 = sparsify::exact_relative_bounds(g, dist_result.sparsifier);
  // Both are (1 +- eps) sparsifiers of the same graph with comparable eps.
  EXPECT_LT(std::abs(b1.epsilon() - b2.epsilon()), 0.4);
  EXPECT_GT(b2.lower, 0.2);
  EXPECT_LT(b2.upper, 1.9);
}

TEST(Pipeline, ResistancesOfSparsifierApproximateOriginal) {
  const Graph g = graph::randomize_weights(graph::complete_graph(40), 0.5, 17);
  sparsify::SampleOptions sopt;
  sopt.t = 4;
  sopt.seed = 19;
  const auto sp = sparsify::parallel_sample(g, sopt);
  const auto bounds = sparsify::exact_relative_bounds(g, sp.sparsifier);
  ASSERT_GT(bounds.lower, 0.0);
  // R_e[H] in [R_e[G]/upper, R_e[G]/lower] for the pencil bounds.
  const auto rg = resistance::exact_effective_resistances(g);
  const auto edges = g.edges();
  for (std::size_t i = 0; i < std::min<std::size_t>(edges.size(), 50); ++i) {
    const double rh = resistance::exact_effective_resistance(
        sp.sparsifier, edges[i].u, edges[i].v);
    EXPECT_GE(rh, rg[i] / bounds.upper - 1e-9);
    EXPECT_LE(rh, rg[i] / bounds.lower + 1e-9);
  }
}

TEST(Pipeline, SerializationRoundTripThroughSparsifier) {
  const Graph g = graph::randomize_weights(graph::complete_graph(36), 0.5, 23);
  sparsify::SparsifyOptions sopt;
  sopt.rho = 4.0;
  sopt.t = 2;
  sopt.seed = 29;
  const auto sp = sparsify::parallel_sparsify(g, sopt);
  std::stringstream buffer;
  graph::write_edge_list(buffer, sp.sparsifier);
  const Graph loaded = graph::read_edge_list(buffer);
  EXPECT_TRUE(loaded.same_edges(sp.sparsifier));
}

TEST(Pipeline, KoutisVsSpielmanSrivastavaOnSameGraph) {
  // Remark 4's comparison: both produce valid sparsifiers; the SS one needs
  // resistance estimates (a solver), ours does not.
  const Graph g = graph::randomize_weights(graph::complete_graph(70), 0.5, 31);
  sparsify::SparsifyOptions kopt;
  kopt.rho = 8.0;
  kopt.t = 3;
  kopt.seed = 37;
  const auto koutis = sparsify::parallel_sparsify(g, kopt);

  sparsify::SpielmanSrivastavaOptions ssopt;
  ssopt.epsilon = 0.5;
  ssopt.resistance_mode = sparsify::ResistanceMode::kExactDense;
  ssopt.seed = 41;
  const auto ss = sparsify::spielman_srivastava(g, ssopt);

  const auto bk = sparsify::exact_relative_bounds(g, koutis.sparsifier);
  const auto bs = sparsify::exact_relative_bounds(g, ss.sparsifier);
  EXPECT_GT(bk.lower, 0.25);
  EXPECT_LT(bk.upper, 1.75);
  EXPECT_GT(bs.lower, 0.25);
  EXPECT_LT(bs.upper, 1.75);
}

TEST(Pipeline, UniformSamplingFailsWhereBundleSucceeds) {
  // The paper's core point: uniform sampling without the bundle breaks the
  // dumbbell; PARALLELSAMPLE never does.
  const Graph g = graph::dumbbell(25, 0.01);
  int uniform_fail = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Graph u = sparsify::uniform_sparsify(g, 0.25, seed);
    if (!graph::is_connected(graph::CSRGraph(u))) ++uniform_fail;
    sparsify::SampleOptions sopt;
    sopt.t = 1;
    sopt.seed = seed;
    const auto sp = sparsify::parallel_sample(g, sopt);
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(sp.sparsifier)))
        << "seed " << seed;
  }
  EXPECT_GT(uniform_fail, 5);
}

TEST(Pipeline, EndToEndPoissonOnSparsifiedGrid) {
  // Remark 1 scenario: 2D grid "image" Laplacian; sparsify (no-op on grids --
  // the bundle keeps them) and solve a Poisson problem.
  const Graph g = graph::grid2d(16, 16);
  sparsify::SparsifyOptions sopt;
  sopt.rho = 4.0;
  sopt.t = 1;
  sopt.seed = 43;
  const auto sp = sparsify::parallel_sparsify(g, sopt);
  const solver::SDDMatrix m((Graph(sp.sparsifier)));
  support::Rng rng(47);
  Vector b(m.dimension());
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  solver::SolveOptions opt;
  opt.chain.max_levels = 8;
  const auto report = solver::solve_sdd(m, b, opt);
  EXPECT_TRUE(report.converged);
}

}  // namespace
}  // namespace spar
