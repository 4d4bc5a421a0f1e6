#include "sparsify/baselines.hpp"

#include <cmath>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

using graph::EdgeId;
using graph::Graph;
using linalg::Vector;

namespace {

// Auto sample count of spielman_srivastava: ceil(kSampleFactor * n log2(n) /
// eps^2).
constexpr double kSampleFactor = 4.0;

}  // namespace

Graph uniform_sparsify(const Graph& g, double keep_probability, std::uint64_t seed) {
  SPAR_CHECK(keep_probability > 0.0 && keep_probability <= 1.0,
             "uniform_sparsify: keep_probability must be in (0, 1]");
  Graph out(g.num_vertices());
  const auto edges = g.edges();
  const double inv_p = 1.0 / keep_probability;
  for (EdgeId id = 0; id < edges.size(); ++id) {
    if (support::stream_uniform(seed, id) < keep_probability)
      out.add_edge(edges[id].u, edges[id].v, edges[id].w * inv_p);
  }
  return out;
}

SSResult spielman_srivastava(const Graph& g, const SpielmanSrivastavaOptions& options) {
  SPAR_CHECK(options.epsilon > 0.0, "spielman_srivastava: epsilon must be positive");
  const std::size_t n = g.num_vertices();
  const auto edges = g.edges();
  SPAR_CHECK(!edges.empty(), "spielman_srivastava: graph has no edges");

  const Vector resistances =
      options.resistance_mode == ResistanceMode::kExactDense
          ? resistance::exact_effective_resistances(g)
          : resistance::approx_effective_resistances(g, options.resistance_options);

  // p_e ~ w_e R_e; sum_e w_e R_e = n - 1 exactly (total leverage), but the
  // estimates need explicit normalization.
  Vector prob(edges.size());
  double total = 0.0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    prob[i] = std::max(edges[i].w * resistances[i], 0.0);
    total += prob[i];
  }
  SPAR_CHECK(total > 0.0, "spielman_srivastava: degenerate leverage scores");
  for (double& p : prob) p /= total;

  // Cumulative table + binary search per sample; q log m total.
  Vector cumulative(edges.size());
  double running = 0.0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    running += prob[i];
    cumulative[i] = running;
  }
  cumulative.back() = 1.0;

  const std::size_t q =
      options.num_samples != 0
          ? options.num_samples
          : static_cast<std::size_t>(
                std::ceil(kSampleFactor * static_cast<double>(n) *
                          std::log2(std::max<double>(n, 2.0)) /
                          (options.epsilon * options.epsilon)));

  Vector accumulated(edges.size(), 0.0);
  support::Rng rng(options.seed);
  for (std::size_t s = 0; s < q; ++s) {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const auto idx = static_cast<std::size_t>(it - cumulative.begin());
    accumulated[idx] += edges[idx].w / (static_cast<double>(q) * prob[idx]);
  }

  SSResult result;
  result.samples_drawn = q;
  Graph out(g.num_vertices());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (accumulated[i] > 0.0) {
      out.add_edge(edges[i].u, edges[i].v, accumulated[i]);
      ++result.distinct_edges;
    }
  }
  result.sparsifier = std::move(out);
  return result;
}

}  // namespace spar::sparsify
