#include "sparsify/sparsify.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/error.hpp"

namespace spar::sparsify {
namespace {

using graph::Graph;

TEST(ParallelSparsify, RoundCountIsCeilLog2Rho) {
  const Graph g = graph::complete_graph(64);
  SparsifyOptions opt;
  opt.rho = 8.0;
  opt.t = 2;
  opt.seed = 3;
  const SparsifyResult result = parallel_sparsify(g, opt);
  EXPECT_EQ(result.rounds_planned, 3u);
  EXPECT_LE(result.rounds.size(), 3u);
  EXPECT_NEAR(result.per_round_epsilon, opt.epsilon / 3.0, 1e-12);
}

TEST(ParallelSparsify, RhoOneIsIdentity) {
  const Graph g = graph::complete_graph(20);
  SparsifyOptions opt;
  opt.rho = 1.0;
  const SparsifyResult result = parallel_sparsify(g, opt);
  EXPECT_EQ(result.rounds_planned, 0u);
  EXPECT_TRUE(result.sparsifier.same_edges(g));
}

TEST(ParallelSparsify, EdgeCountDecreasesGeometricallyOffBundle) {
  const Graph g = graph::complete_graph(150);
  SparsifyOptions opt;
  opt.rho = 16.0;
  opt.t = 1;
  opt.seed = 5;
  const SparsifyResult result = parallel_sparsify(g, opt);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const RoundStats& r = result.rounds[i];
    EXPECT_EQ(r.edges_after, r.bundle_edges + r.sampled_edges);
    // Off-bundle mass drops to ~1/4 per round; assert < 1/2.
    if (r.edges_before > r.bundle_edges) {
      EXPECT_LT(r.sampled_edges, (r.edges_before - r.bundle_edges) / 2 + 10);
    }
  }
}

TEST(ParallelSparsify, StatsChainRoundToRound) {
  const Graph g = graph::complete_graph(100);
  SparsifyOptions opt;
  opt.rho = 8.0;
  opt.t = 1;
  opt.seed = 9;
  const SparsifyResult result = parallel_sparsify(g, opt);
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().edges_before, g.num_edges());
  for (std::size_t i = 1; i < result.rounds.size(); ++i)
    EXPECT_EQ(result.rounds[i].edges_before, result.rounds[i - 1].edges_after);
  EXPECT_EQ(result.rounds.back().edges_after, result.sparsifier.num_edges());
}

TEST(ParallelSparsify, KeepsConnectivity) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = graph::dumbbell(30, 0.02);
    SparsifyOptions opt;
    opt.rho = 8.0;
    opt.t = 1;
    opt.seed = seed;
    const SparsifyResult result = parallel_sparsify(g, opt);
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(result.sparsifier)))
        << "seed " << seed;
  }
}

TEST(ParallelSparsify, SaturationStopsEarly) {
  // A path saturates instantly: the first bundle is the whole graph.
  const Graph g = graph::path_graph(64);
  SparsifyOptions opt;
  opt.rho = 64.0;
  opt.t = 1;
  const SparsifyResult result = parallel_sparsify(g, opt);
  EXPECT_EQ(result.rounds.size(), 1u);
  EXPECT_TRUE(result.sparsifier.same_edges(g));
}

TEST(ParallelSparsify, RejectsBadParameters) {
  const Graph g = graph::path_graph(4);
  SparsifyOptions opt;
  opt.rho = 0.5;
  EXPECT_THROW(parallel_sparsify(g, opt), spar::Error);
  opt.rho = 2.0;
  opt.epsilon = 0.0;
  EXPECT_THROW(parallel_sparsify(g, opt), spar::Error);
}

TEST(ParallelSparsify, DeterministicPerSeed) {
  const Graph g = graph::complete_graph(40);
  SparsifyOptions opt;
  opt.rho = 4.0;
  opt.t = 2;
  opt.seed = 31;
  const auto a = parallel_sparsify(g, opt);
  const auto b = parallel_sparsify(g, opt);
  EXPECT_TRUE(a.sparsifier.same_edges(b.sparsifier));
}

TEST(ParallelSparsify, WorkCounterTracksAllRounds) {
  support::WorkCounter work;
  const Graph g = graph::complete_graph(60);
  SparsifyOptions opt;
  opt.rho = 4.0;
  opt.t = 1;
  opt.work = &work;
  parallel_sparsify(g, opt);
  EXPECT_GT(work.total(), g.num_edges());
}

// ---- Theorem 5 quality sweep ------------------------------------------------

class SparsifyQuality
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(SparsifyQuality, SpectralErrorBounded) {
  const auto [rho, seed] = GetParam();
  const Graph g = graph::randomize_weights(graph::complete_graph(70), 0.5, seed);
  SparsifyOptions opt;
  opt.epsilon = 1.0;
  opt.rho = rho;
  opt.t = 3;
  opt.seed = seed;
  const SparsifyResult result = parallel_sparsify(g, opt);
  const ApproxBounds bounds = exact_relative_bounds(g, result.sparsifier);
  // Practical-t envelope: comfortably inside (1 +- 0.75) on K_70.
  EXPECT_GT(bounds.lower, 0.25) << "rho=" << rho << " seed=" << seed;
  EXPECT_LT(bounds.upper, 1.75) << "rho=" << rho << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RhoSweep, SparsifyQuality,
    ::testing::Combine(::testing::Values(2.0, 4.0, 8.0),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return "rho" + std::to_string(int(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelSparsify, LargerRhoGivesFewerEdgesOnDenseGraphs) {
  const Graph g = graph::complete_graph(200);
  SparsifyOptions small;
  small.rho = 2.0;
  small.t = 1;
  small.seed = 3;
  SparsifyOptions large = small;
  large.rho = 16.0;
  const auto a = parallel_sparsify(g, small);
  const auto b = parallel_sparsify(g, large);
  EXPECT_GT(a.sparsifier.num_edges(), b.sparsifier.num_edges());
}

}  // namespace
}  // namespace spar::sparsify
