#include "sparsify/quality.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "sparsify/baselines.hpp"
#include "sparsify/sample.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/error.hpp"

namespace spar::sparsify {
namespace {

using graph::Graph;

TEST(QualityReport, IdenticalGraphsHaveUnitRatios) {
  const Graph g = graph::connected_erdos_renyi(60, 0.2, 3);
  const QualityReport report = quality_report(g, g);
  EXPECT_NEAR(report.min_quadratic_ratio, 1.0, 1e-12);
  EXPECT_NEAR(report.max_quadratic_ratio, 1.0, 1e-12);
  EXPECT_NEAR(report.min_cut_ratio, 1.0, 1e-12);
  EXPECT_NEAR(report.max_cut_ratio, 1.0, 1e-12);
  EXPECT_TRUE(report.sparsifier_connected);
  EXPECT_DOUBLE_EQ(report.edge_reduction(), 1.0);
}

TEST(QualityReport, ScaledGraphRatiosMatchScale) {
  const Graph g = graph::grid2d(6, 6);
  const QualityReport report = quality_report(g, g.scaled(3.0));
  EXPECT_NEAR(report.min_quadratic_ratio, 3.0, 1e-12);
  EXPECT_NEAR(report.max_quadratic_ratio, 3.0, 1e-12);
  EXPECT_NEAR(report.max_cut_ratio, 3.0, 1e-12);
}

TEST(QualityReport, ProbeRatiosInsidePencilBounds) {
  // Gaussian and cut ratios are Rayleigh quotients, so they must lie inside
  // the exact pencil interval.
  const Graph g = graph::randomize_weights(graph::complete_graph(50), 0.5, 7);
  SampleOptions sopt;
  sopt.t = 2;
  sopt.seed = 9;
  const auto sample = parallel_sample(g, sopt);
  const ApproxBounds exact = exact_relative_bounds(g, sample.sparsifier);
  const QualityReport report = quality_report(g, sample.sparsifier);
  EXPECT_GE(report.min_quadratic_ratio, exact.lower - 1e-9);
  EXPECT_LE(report.max_quadratic_ratio, exact.upper + 1e-9);
  EXPECT_GE(report.min_cut_ratio, exact.lower - 1e-9);
  EXPECT_LE(report.max_cut_ratio, exact.upper + 1e-9);
}

TEST(QualityReport, DetectsDisconnection) {
  const Graph g = graph::path_graph(6);
  Graph h(6);
  h.add_edge(0, 1, 1.0);
  h.add_edge(2, 3, 1.0);
  const QualityReport report = quality_report(g, h);
  EXPECT_FALSE(report.sparsifier_connected);
  // Some probe separates the components: min quadratic ratio must hit ~0.
  EXPECT_LT(report.min_quadratic_ratio, 0.5);
}

TEST(QualityReport, CountsAndWeights) {
  const Graph g = graph::complete_graph(20);
  SampleOptions sopt;
  sopt.t = 1;
  sopt.seed = 5;
  const auto sample = parallel_sample(g, sopt);
  const QualityReport report = quality_report(g, sample.sparsifier);
  EXPECT_EQ(report.edges_original, g.num_edges());
  EXPECT_EQ(report.edges_sparsifier, sample.sparsifier.num_edges());
  EXPECT_DOUBLE_EQ(report.weight_original, g.total_weight());
  EXPECT_GT(report.edge_reduction(), 1.0);
}

TEST(QualityReport, VertexMismatchThrows) {
  EXPECT_THROW(quality_report(graph::path_graph(3), graph::path_graph(4)),
               spar::Error);
}

TEST(QualityReport, DeterministicPerSeed) {
  const Graph g = graph::complete_graph(30);
  const Graph h = graph::mst(g);
  const auto a = quality_report(g, h);
  const auto b = quality_report(g, h);
  EXPECT_DOUBLE_EQ(a.min_quadratic_ratio, b.min_quadratic_ratio);
  EXPECT_DOUBLE_EQ(a.max_cut_ratio, b.max_cut_ratio);
}

// --- internal-consistency matrix: methods x generators x seeds --------------
//
// For every cell, the report must be self-consistent (min <= max on both
// probe families, structural counts exactly matching the graphs) and, since
// every probe ratio is a Rayleigh quotient of the pencil (L_H, L_G), the
// Gaussian and cut extremes must lie inside the exact pencil interval
// whenever the certificate is computed (all these graphs are small enough
// for the dense path).

enum class Method { kSample, kSparsify, kSpielmanSrivastava, kUniform };

const char* method_name(Method m) {
  switch (m) {
    case Method::kSample: return "sample";
    case Method::kSparsify: return "koutis";
    case Method::kSpielmanSrivastava: return "ss";
    case Method::kUniform: return "uniform";
  }
  return "?";
}

Graph make_generator(const std::string& family, std::uint64_t seed) {
  if (family == "complete")
    return graph::randomize_weights(graph::complete_graph(48), 0.5, seed);
  if (family == "er") return graph::connected_erdos_renyi(60, 0.25, seed);
  if (family == "dumbbell") return graph::dumbbell(16, 0.05, seed);
  if (family == "grid") return graph::randomize_weights(graph::grid2d(7, 7), 1.0, seed);
  throw spar::Error("unknown family " + family);
}

Graph run_method(const Graph& g, Method method, std::uint64_t seed) {
  switch (method) {
    case Method::kSample: {
      SampleOptions opt;
      opt.t = 2;
      opt.seed = seed;
      return parallel_sample(g, opt).sparsifier;
    }
    case Method::kSparsify: {
      SparsifyOptions opt;
      opt.rho = 4.0;
      opt.t = 2;
      opt.seed = seed;
      return parallel_sparsify(g, opt).sparsifier;
    }
    case Method::kSpielmanSrivastava: {
      SpielmanSrivastavaOptions opt;
      opt.epsilon = 1.0;
      opt.seed = seed;
      return spielman_srivastava(g, opt).sparsifier;
    }
    case Method::kUniform:
      return uniform_sparsify(g, 0.5, seed);
  }
  throw spar::Error("unknown method");
}

class QualityReportMatrix
    : public ::testing::TestWithParam<
          std::tuple<Method, std::string, std::uint64_t>> {};

TEST_P(QualityReportMatrix, InternallyConsistent) {
  const auto [method, family, seed] = GetParam();
  const Graph g = make_generator(family, seed);
  const Graph h = run_method(g, method, seed);
  const QualityReport report = quality_report(g, h);

  // Probe extremes are ordered.
  EXPECT_LE(report.min_quadratic_ratio, report.max_quadratic_ratio);
  EXPECT_LE(report.min_cut_ratio, report.max_cut_ratio);

  // Structural counts match the graphs exactly.
  EXPECT_EQ(report.edges_original, g.num_edges());
  EXPECT_EQ(report.edges_sparsifier, h.num_edges());
  EXPECT_DOUBLE_EQ(report.weight_original, g.total_weight());
  EXPECT_DOUBLE_EQ(report.weight_sparsifier, h.total_weight());
  if (h.num_edges() > 0) {
    EXPECT_DOUBLE_EQ(report.edge_reduction(),
                     static_cast<double>(g.num_edges()) /
                         static_cast<double>(h.num_edges()));
  }

  // Probe ratios are Rayleigh quotients: inside the certified interval.
  const ApproxBounds exact = exact_relative_bounds(g, h);
  ASSERT_TRUE(exact.defined);
  EXPECT_GE(report.min_quadratic_ratio, exact.lower - 1e-9);
  EXPECT_LE(report.max_quadratic_ratio, exact.upper + 1e-9);
  EXPECT_GE(report.min_cut_ratio, exact.lower - 1e-9);
  EXPECT_LE(report.max_cut_ratio, exact.upper + 1e-9);

  // Connectivity in the report agrees with a certificate-side fact: a
  // disconnected sparsifier degenerates the pencil's lower bound.
  if (report.sparsifier_connected) {
    EXPECT_GT(exact.lower, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGeneratorsBySeeds, QualityReportMatrix,
    ::testing::Combine(::testing::Values(Method::kSample, Method::kSparsify,
                                         Method::kSpielmanSrivastava,
                                         Method::kUniform),
                       ::testing::Values("complete", "er", "dumbbell", "grid"),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const auto& info) {
      return std::string(method_name(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace spar::sparsify
