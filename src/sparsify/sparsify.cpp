#include "sparsify/sparsify.hpp"

#include <cmath>
#include <utility>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

using graph::Graph;

SparsifyRoundsResult parallel_sparsify_rounds(RoundContext& ctx,
                                              const SparsifyOptions& options) {
  SPAR_CHECK(options.epsilon > 0.0, "parallel_sparsify: epsilon must be positive");
  SPAR_CHECK(options.rho >= 1.0, "parallel_sparsify: rho must be >= 1");

  SparsifyRoundsResult result;
  result.rounds_planned =
      static_cast<std::size_t>(std::ceil(std::log2(std::max(options.rho, 1.0))));
  if (result.rounds_planned == 0) {
    result.per_round_epsilon = options.epsilon;
    return result;  // rho < 2: zero rounds, ctx is untouched (identity)
  }
  result.per_round_epsilon =
      options.epsilon / static_cast<double>(result.rounds_planned);

  // The whole round loop runs in place on one RoundContext: the edge arena
  // shrinks by compaction, the CSR scratch and verdict buffer are reused, and
  // no Graph is materialized here.
  for (std::size_t round = 0; round < result.rounds_planned; ++round) {
    SampleOptions sopt;
    sopt.epsilon = result.per_round_epsilon;
    sopt.t = options.t;
    sopt.keep_probability = options.keep_probability;
    sopt.bundle_kind = options.bundle_kind;
    sopt.seed = support::mix64(options.seed, round + 1);
    sopt.work = options.work;

    const SampleRoundStats sample = parallel_sample_round(ctx, sopt);

    RoundStats stats;
    stats.edges_before = sample.edges_before;
    stats.edges_after = sample.edges_after;
    stats.bundle_edges = sample.bundle_edges;
    stats.sampled_edges = sample.sampled_edges;
    stats.t_used = sample.t_used;
    result.rounds.push_back(stats);

    // The paper runs every planned round. The loop stops at the first round
    // whose bundle kept every edge (none was sampled). A later round would
    // draw fresh bundle coins and could sample again, so this can keep more
    // edges than the full count would; on a forest every bundle is the
    // whole graph and the two agree.
    if (stats.sampled_edges == 0 && stats.bundle_edges == stats.edges_before) break;
  }
  return result;
}

SparsifyResult parallel_sparsify(const Graph& g, const SparsifyOptions& options) {
  RoundContext ctx(g);
  SparsifyRoundsResult rounds = parallel_sparsify_rounds(ctx, options);
  SparsifyResult result;
  result.rounds = std::move(rounds.rounds);
  result.rounds_planned = rounds.rounds_planned;
  result.per_round_epsilon = rounds.per_round_epsilon;
  result.sparsifier = ctx.arena().to_graph();
  return result;
}

}  // namespace spar::sparsify
