#include "spanner/baswana_sen.hpp"

#include <algorithm>
#include <string>

#include "spanner/bs_core.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::spanner {

using graph::CSRGraph;
using graph::EdgeId;
using graph::Graph;
using graph::kInvalidVertex;
using graph::Vertex;

namespace {

namespace par = support::par;
using detail::ClusterScratch;
using detail::Decisions;
using detail::EdgeState;

}  // namespace

std::size_t auto_spanner_k(std::size_t n) {
  if (n <= 2) return 1;
  std::size_t k = 1;
  while ((std::size_t{1} << k) < n) ++k;  // k = ceil(log2 n)
  return k;
}

std::vector<EdgeId> baswana_sen_spanner(const CSRGraph& csr,
                                        const std::vector<bool>* alive,
                                        const SpannerOptions& options) {
  SPAR_CHECK(options.k <= kMaxSpannerK, "baswana_sen_spanner: k = " + std::to_string(options.k) +
                                            " exceeds " + std::to_string(kMaxSpannerK));
  const Vertex n = csr.num_vertices();
  const std::size_t m = csr.num_arcs() / 2;
  const std::size_t k = options.k != 0 ? options.k : auto_spanner_k(n);
  support::WorkScope work(options.work);

  if (alive != nullptr)
    SPAR_CHECK(alive->size() == m, "baswana_sen_spanner: alive mask size mismatch");
  std::vector<EdgeState> state = detail::initial_states(m, alive);

  std::vector<EdgeId> spanner_edges;
  std::vector<Vertex> center(n), new_center(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) center[v] = v;

  const double sample_p = detail::sample_probability(n, k);
  std::vector<Decisions> decisions(static_cast<std::size_t>(par::max_threads()));
  // Per-worker O(n) grouping scratch, reused across iterations (its epoch
  // token self-invalidates between vertices, so carry-over is safe).
  par::WorkerLocal<ClusterScratch> scratches;
  const auto scratch_for = [&](int worker) -> ClusterScratch& {
    return scratches.local(worker, [&] { return ClusterScratch(n); });
  };
  std::vector<std::uint8_t> sampled(n, 0);

  // ---- Phase 1: k-1 clustering iterations ----------------------------------
  for (std::size_t iter = 1; iter < k; ++iter) {
    // Independent coin per cluster id per iteration; coins are a pure
    // function of (seed, iter, center) so any thread layout sees the same.
    par::parallel_for(0, static_cast<std::int64_t>(n), [&](std::int64_t c) {
      sampled[static_cast<std::size_t>(c)] = detail::cluster_sampled(
          options.seed, iter, static_cast<Vertex>(c), sample_p);
    });

    par::parallel_chunks(
        0, static_cast<std::int64_t>(n),
        [&](std::int64_t vb, std::int64_t ve, std::int64_t /*chunk*/, int worker) {
          ClusterScratch& scratch = scratch_for(worker);
          Decisions& mine = decisions[static_cast<std::size_t>(worker)];
          for (std::int64_t vi = vb; vi < ve; ++vi) {
            detail::phase1_decide(csr, static_cast<Vertex>(vi), center, sampled,
                                  state, scratch, mine, new_center, work);
          }
        },
        {.grain = 128});
    detail::commit(decisions, state, spanner_edges);
    center.swap(new_center);
    std::fill(new_center.begin(), new_center.end(), kInvalidVertex);
  }

  // ---- Phase 2: vertex-cluster joining -------------------------------------
  par::parallel_chunks(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t vb, std::int64_t ve, std::int64_t /*chunk*/, int worker) {
        ClusterScratch& scratch = scratch_for(worker);
        Decisions& mine = decisions[static_cast<std::size_t>(worker)];
        for (std::int64_t vi = vb; vi < ve; ++vi) {
          detail::phase2_decide(csr, static_cast<Vertex>(vi), center, state,
                                scratch, mine, work);
        }
      },
      {.grain = 128});
  detail::commit(decisions, state, spanner_edges);

  std::sort(spanner_edges.begin(), spanner_edges.end());
  return spanner_edges;
}

Graph spanner(const Graph& g, const SpannerOptions& options) {
  const CSRGraph csr(g);
  const auto ids = baswana_sen_spanner(csr, nullptr, options);
  std::vector<bool> keep(g.num_edges(), false);
  for (EdgeId id : ids) keep[id] = true;
  return g.filtered(keep);
}

}  // namespace spar::spanner
