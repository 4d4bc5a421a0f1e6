#include "sparsify/sample.hpp"

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

TEST(TheoryBundleWidth, MatchesFormula) {
  // t = ceil(24 log2(n)^2 / eps^2).
  EXPECT_EQ(theory_bundle_width(1024, 1.0), 2400u);
  EXPECT_EQ(theory_bundle_width(1024, 0.5), 9600u);
  const double log2_100 = std::log2(100.0);
  EXPECT_EQ(theory_bundle_width(100, 2.0),
            static_cast<std::size_t>(std::ceil(24.0 * log2_100 * log2_100 / 4.0)));
}

TEST(TheoryBundleWidth, RejectsNonPositiveEpsilon) {
  EXPECT_THROW(theory_bundle_width(100, 0.0), spar::Error);
}

TEST(ParallelSample, BundleEdgesKeptAtOriginalWeight) {
  const Graph g = graph::complete_graph(30);
  SampleOptions opt;
  opt.t = 2;
  opt.seed = 3;
  const SampleResult result = parallel_sample(g, opt);
  // Every weight is either w (bundle) or 4w (sampled); with unit input
  // weights: 1 or 4.
  for (const auto& e : result.sparsifier.edges())
    EXPECT_TRUE(e.w == 1.0 || e.w == 4.0) << e.w;
}

TEST(ParallelSample, ExpectationPreserved) {
  // Total weight is preserved in expectation: bundle kept + off-bundle
  // quarter at 4x. Check within concentration slack.
  const Graph g = graph::complete_graph(80);
  SampleOptions opt;
  opt.t = 1;
  opt.seed = 11;
  const SampleResult result = parallel_sample(g, opt);
  EXPECT_NEAR(result.sparsifier.total_weight(), g.total_weight(),
              0.15 * g.total_weight());
}

TEST(ParallelSample, CountsConsistent) {
  const Graph g = graph::complete_graph(40);
  SampleOptions opt;
  opt.t = 2;
  opt.seed = 5;
  const SampleResult result = parallel_sample(g, opt);
  EXPECT_EQ(result.bundle_edges + result.off_bundle_edges, g.num_edges());
  EXPECT_EQ(result.sparsifier.num_edges(), result.bundle_edges + result.sampled_edges);
  EXPECT_EQ(result.t_used, 2u);
}

TEST(ParallelSample, SampledFractionNearKeepProbability) {
  const Graph g = graph::complete_graph(120);
  SampleOptions opt;
  opt.t = 1;
  opt.seed = 9;
  const SampleResult result = parallel_sample(g, opt);
  ASSERT_GT(result.off_bundle_edges, 1000u);
  const double fraction =
      double(result.sampled_edges) / double(result.off_bundle_edges);
  EXPECT_NEAR(fraction, 0.25, 0.03);
}

TEST(ParallelSample, TheoreticalWidthUsedWhenTZero) {
  // Paths are swallowed whole by the first spanner, and so is K_40: at these
  // sizes the theory-width bundle holds the whole graph, so nothing is
  // sampled and the output is an exact copy.
  for (const Graph& g : {graph::path_graph(16), graph::complete_graph(40)}) {
    SampleOptions opt;
    opt.epsilon = 1.0;
    opt.t = 0;
    const SampleResult result = parallel_sample(g, opt);
    EXPECT_EQ(result.t_used, theory_bundle_width(g.num_vertices(), 1.0));
    EXPECT_EQ(result.sparsifier.num_edges(), g.num_edges());
    EXPECT_TRUE(result.sparsifier.same_edges(g));
    EXPECT_EQ(result.sampled_edges, 0u);
  }
}

TEST(ParallelSample, PreservesConnectivityOnDumbbell) {
  // The bridge must always survive inside the bundle.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = graph::dumbbell(25, 0.05);
    SampleOptions opt;
    opt.t = 1;
    opt.seed = seed;
    const SampleResult result = parallel_sample(g, opt);
    EXPECT_TRUE(graph::is_connected(graph::CSRGraph(result.sparsifier)))
        << "seed " << seed;
  }
}

TEST(ParallelSample, DeterministicPerSeed) {
  const Graph g = graph::complete_graph(30);
  SampleOptions opt;
  opt.t = 2;
  opt.seed = 21;
  const auto a = parallel_sample(g, opt);
  const auto b = parallel_sample(g, opt);
  EXPECT_TRUE(a.sparsifier.same_edges(b.sparsifier));
}

TEST(ParallelSample, CustomKeepProbability) {
  const Graph g = graph::complete_graph(100);
  SampleOptions opt;
  opt.t = 1;
  opt.keep_probability = 0.5;
  opt.seed = 13;
  const SampleResult result = parallel_sample(g, opt);
  const double fraction =
      double(result.sampled_edges) / double(result.off_bundle_edges);
  EXPECT_NEAR(fraction, 0.5, 0.05);
  for (const auto& e : result.sparsifier.edges())
    EXPECT_TRUE(e.w == 1.0 || e.w == 2.0);
}

TEST(ParallelSample, RejectsBadParameters) {
  const Graph g = graph::path_graph(4);
  SampleOptions opt;
  opt.epsilon = -1.0;
  EXPECT_THROW(parallel_sample(g, opt), spar::Error);
  opt.epsilon = 0.5;
  opt.keep_probability = 0.0;
  EXPECT_THROW(parallel_sample(g, opt), spar::Error);
  opt.keep_probability = 1.5;
  EXPECT_THROW(parallel_sample(g, opt), spar::Error);
}

TEST(ParallelSample, TreeBundleVariantRuns) {
  const Graph g = graph::complete_graph(40);
  SampleOptions opt;
  opt.t = 3;
  opt.bundle_kind = BundleKind::kTree;
  opt.seed = 7;
  const SampleResult result = parallel_sample(g, opt);
  EXPECT_EQ(result.bundle_edges + result.off_bundle_edges, g.num_edges());
  // Tree bundle: at most t(n-1) edges (forests; remainders may disconnect),
  // and close to it on a complete graph.
  EXPECT_LE(result.bundle_edges, 3u * 39);
  EXPECT_GE(result.bundle_edges, 3u * 35);
}

// ---- The two parameter settings: theory width (t = 0) vs a small t ----------

TEST(Presets, TheorySampleOnSmallGraphReturnsInputUnchanged) {
  const Graph g = graph::complete_graph(40);
  SampleOptions opt;
  opt.epsilon = 1.0;
  opt.t = 0;
  const SampleResult result = parallel_sample(g, opt);
  // Bundle swallows the graph; the sample equals the input exactly.
  EXPECT_TRUE(result.sparsifier.same_edges(g));
  EXPECT_EQ(result.sampled_edges, 0u);
}

TEST(Presets, PracticalSampleActuallySparsifies) {
  const Graph g = graph::complete_graph(120);
  SampleOptions opt;
  opt.epsilon = 1.0;
  opt.t = 1;
  const SampleResult result = parallel_sample(g, opt);
  EXPECT_LT(result.sparsifier.num_edges(), g.num_edges());
}

// ---- Spectral quality sweep (Theorem 4 empirically) ------------------------

class SampleQuality
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(SampleQuality, ApproximationImprovesWithT) {
  const auto [t, seed] = GetParam();
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 1.0, seed);
  SampleOptions opt;
  opt.t = t;
  opt.seed = seed;
  const SampleResult result = parallel_sample(g, opt);
  const ApproxBounds bounds = exact_relative_bounds(g, result.sparsifier);
  // With t >= 2 on K_60 the empirical eps is well below 1; assert a sane
  // envelope rather than the asymptotic constant.
  EXPECT_GT(bounds.lower, 0.3) << "t=" << t;
  EXPECT_LT(bounds.upper, 1.9) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    TSweep, SampleQuality,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 6),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace spar::sparsify
