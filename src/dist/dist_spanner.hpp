// Distributed (synchronous message-passing) statements of the paper:
// Theorem 2 (distributed Baswana-Sen) and Theorem 5's distributed
// PARALLELSPARSIFY.
//
// The protocols run on a simulator of the synchronous CONGEST-style model the
// paper assumes: one round lets every node send one O(log n)-bit message (a
// tag word plus two payload words) to each neighbour. The simulator executes
// the exact same per-vertex decision logic as the shared-memory
// implementation in src/spanner -- the coins are the same counter-based
// functions of (seed, iteration, cluster) -- so for a fixed seed the
// distributed spanner selects the SAME edge set as
// spanner::baswana_sen_spanner, while additionally accounting for every
// round, message and word the protocol would put on the wire:
//
//  * per clustering iteration i: cluster centers disseminate their coin
//    through their (radius <= i) cluster tree, every endpoint of an alive
//    edge exchanges (center, coin) with its neighbour, and each selected
//    spanner edge is announced -- i + 2 rounds, one message per alive arc
//    plus one per selection;
//  * Theorem 2 budgets: O(log^2 n) rounds and O(m log n) messages of
//    O(log n) bits, which bench_dist_spanner instantiates next to the
//    measured counts.
//
// This header holds the protocols' options, results and model metrics. They
// run on the sharded SPMD core (dist/shard.hpp) behind a Transport
// (dist/transport.hpp), through the run_distributed_* entry points of
// dist/runner.hpp: one shard inline (a default DistExecOptions), or S shards
// as threads (LoopbackTransport) or real processes over sockets
// (SocketTransport). Outputs -- edge sets AND model metrics -- are
// bit-identical for every shard count, every transport, and every
// shared-memory thread count (tests/integration/test_determinism.cpp,
// tests/dist/test_shard.cpp). DistMetrics stays the protocol-node account of
// the CONGEST model; the transport's WireMetrics separately measures what a
// run put on actual wires, reconciled byte-for-byte every superstep.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/transport.hpp"
#include "graph/graph.hpp"
#include "support/work_counter.hpp"

namespace spar::dist {

/// Totals a protocol run puts on the model network: counted at protocol-node
/// granularity (one message per alive arc / announcement, 3 words each),
/// NOT at shard granularity -- so the numbers are invariant under resharding
/// and match the paper's Theorem 2 budgets. See WireMetrics for what a
/// concrete mesh actually shipped.
struct DistMetrics {
  std::uint64_t rounds = 0;    ///< synchronous rounds consumed
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  std::uint64_t words = 0;     ///< machine words on the wire (3 per message)
  std::uint64_t max_message_words = 0;  ///< largest single message, in words
  /// Congestion: the largest single protocol phase (one clustering
  /// iteration's exchange+announce, or one coin round), in words.
  std::uint64_t max_round_words = 0;

  void absorb(const DistMetrics& other) {
    rounds += other.rounds;
    messages += other.messages;
    words += other.words;
    if (other.max_message_words > max_message_words)
      max_message_words = other.max_message_words;
    if (other.max_round_words > max_round_words)
      max_round_words = other.max_round_words;
  }
};

struct DistSpannerOptions {
  /// Clustering levels; stretch is 2k-1. 0 = auto (ceil(log2 n)), matching
  /// spanner::auto_spanner_k. At most spanner::kMaxSpannerK.
  std::size_t k = 0;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

/// Theorem 2: distributed Baswana-Sen. For a fixed seed the edge set equals
/// spanner::baswana_sen_spanner's.
struct DistSpannerResult {
  std::vector<graph::EdgeId> spanner_edges;  ///< sorted global edge ids
  DistMetrics metrics;
  /// Measured transport traffic, summed over shards (all-zero words on a
  /// one-shard mesh: nothing crosses a shard boundary).
  WireMetrics wire;
};

struct DistSampleOptions {
  double epsilon = 0.5;
  /// Bundle width; 0 = the paper's theoretical t (see sparsify::theory_bundle_width).
  std::size_t t = 0;
  double keep_probability = 0.25;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

/// Distributed PARALLELSAMPLE: the t-bundle is peeled with t runs of the
/// distributed spanner protocol; off-bundle coin flips are local decisions
/// (the coin is a pure function of seed and edge id) and only the kept edges
/// are announced. Seeds are derived exactly as in sparsify::parallel_sample,
/// so the output sparsifier is identical to the shared-memory one.
struct DistSampleResult {
  graph::Graph sparsifier;
  std::size_t bundle_edges = 0;
  std::size_t off_bundle_edges = 0;
  std::size_t sampled_edges = 0;
  std::size_t t_used = 0;
  DistMetrics metrics;
  WireMetrics wire;  ///< measured transport traffic, summed over shards
};

struct DistSparsifyOptions {
  double epsilon = 0.5;
  double rho = 4.0;
  std::size_t t = 0;
  double keep_probability = 0.25;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

/// One PARALLELSAMPLE round of the distributed sparsifier.
struct DistRound {
  std::size_t edges_before = 0;
  std::size_t edges_after = 0;
  DistMetrics metrics;
};

/// Theorem 5 (distributed statement): ceil(log2 rho) rounds of distributed
/// PARALLELSAMPLE. Off-bundle mass halves per round, so round 1 dominates the
/// communication -- bench_dist_sparsify prints the per-round decay.
struct DistSparsifyResult {
  graph::Graph sparsifier;
  std::vector<DistRound> rounds;
  DistMetrics metrics;
  WireMetrics wire;  ///< measured transport traffic, summed over shards
};

}  // namespace spar::dist
