// Baswana-Sen (2k-1)-spanner (Random Struct. Algorithms 2007), the primitive
// behind Theorems 1 and 2 of the paper.
//
// The paper's stretch metric is electrical: st_p(e) = w_e * sum_{e' in p} 1/w_{e'},
// i.e. ordinary multiplicative stretch when each edge has length 1/w (its
// resistance). All comparisons below therefore use lengths len(e) = 1/w(e);
// with k = ceil(log2 n) the result is a "log n-spanner" in the paper's sense:
// stretch <= 2k - 1 < 2 log n, expected size O(k * n^(1+1/k)) = O(n log n).
//
// The implementation is the synchronous two-phase clustering algorithm:
// every iteration takes a snapshot of (cluster, sampled, edge-state), makes
// all per-vertex decisions against the snapshot (in parallel, one RNG
// stream per cluster/vertex so results are independent of thread count), and
// then commits them. This mirrors the CRCW PRAM scheme of Theorem 1 and is
// the exact logic the distributed protocol in src/dist re-implements with
// messages.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "support/work_counter.hpp"

namespace spar::spanner {

/// Largest k a spanner accepts: auto k = ceil(log2 n) never exceeds it for any
/// n < 2^64, and each level costs a clustering round however few edges live.
inline constexpr std::size_t kMaxSpannerK = 64;

struct SpannerOptions {
  /// Number of clustering levels; stretch is 2k-1. 0 means "auto":
  /// k = max(1, ceil(log2 n)), the paper's log n-spanner setting. At most
  /// kMaxSpannerK.
  std::size_t k = 0;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

/// Computes a spanner of the subgraph of `g` given by alive[id] == true
/// (alive == nullptr means all edges). Returns the selected edge ids.
///
/// Guarantees (Baswana-Sen Thm 5.4 adapted, verified by tests/benches):
///  * every alive edge has stretch <= 2k-1 over the returned edge set,
///  * expected size O(k * n^(1+1/k)).
std::vector<graph::EdgeId> baswana_sen_spanner(const graph::CSRGraph& csr,
                                               const std::vector<bool>* alive,
                                               const SpannerOptions& options);

/// Convenience wrapper: spanner of a whole Graph, as a Graph.
graph::Graph spanner(const graph::Graph& g, const SpannerOptions& options = {});

/// The k the "auto" setting resolves to for an n-vertex graph.
std::size_t auto_spanner_k(std::size_t n);

}  // namespace spar::spanner
