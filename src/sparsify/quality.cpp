#include "sparsify/quality.hpp"

#include <algorithm>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "linalg/laplacian.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

using graph::Graph;

namespace {

constexpr std::size_t kGaussianProbes = 64;  // random x ~ N(0, I), mean-removed
constexpr std::size_t kCutProbes = 64;       // random bipartitions
constexpr std::uint64_t kSeed = 101;

}  // namespace

QualityReport quality_report(const Graph& g, const Graph& h) {
  SPAR_CHECK(g.num_vertices() == h.num_vertices(),
             "quality_report: vertex count mismatch");
  const std::size_t n = g.num_vertices();
  QualityReport report;
  report.edges_original = g.num_edges();
  report.edges_sparsifier = h.num_edges();
  report.weight_original = g.total_weight();
  report.weight_sparsifier = h.total_weight();
  report.sparsifier_connected = graph::is_connected(graph::CSRGraph(h));
  if (n < 2) return report;

  support::Rng rng(kSeed);
  linalg::Vector x(n);

  bool first = true;
  for (std::size_t probe = 0; probe < kGaussianProbes; ++probe) {
    for (double& v : x) v = rng.normal();
    linalg::remove_mean(x);
    const double qg = linalg::laplacian_quadratic_form(g, x);
    if (qg <= 0.0) continue;  // degenerate draw (disconnected + constant parts)
    const double ratio = linalg::laplacian_quadratic_form(h, x) / qg;
    if (first) {
      report.min_quadratic_ratio = report.max_quadratic_ratio = ratio;
      first = false;
    } else {
      report.min_quadratic_ratio = std::min(report.min_quadratic_ratio, ratio);
      report.max_quadratic_ratio = std::max(report.max_quadratic_ratio, ratio);
    }
  }

  first = true;
  for (std::size_t probe = 0; probe < kCutProbes; ++probe) {
    for (double& v : x) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
    const double qg = linalg::laplacian_quadratic_form(g, x);
    if (qg <= 0.0) continue;  // one side empty or cut misses every edge
    const double ratio = linalg::laplacian_quadratic_form(h, x) / qg;
    if (first) {
      report.min_cut_ratio = report.max_cut_ratio = ratio;
      first = false;
    } else {
      report.min_cut_ratio = std::min(report.min_cut_ratio, ratio);
      report.max_cut_ratio = std::max(report.max_cut_ratio, ratio);
    }
  }
  return report;
}

}  // namespace spar::sparsify
