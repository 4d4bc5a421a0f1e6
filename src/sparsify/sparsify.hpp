// Algorithm 2 (PARALLELSPARSIFY) of the paper: ceil(log2 rho) rounds of
// PARALLELSAMPLE at per-round accuracy eps / ceil(log2 rho).
//
// (The paper's line 3 calls PARALLELSPARSIFY recursively -- an evident typo
// for PARALLELSAMPLE; the proof of Theorem 5 iterates PARALLELSAMPLE and so
// do we. See DESIGN.md.)
//
// Theorem 5: the result is a (1 +- eps) approximation w.h.p. with
// O(n log^3 n log^3 rho / eps^2 + m/rho) edges after
// O(m log^2 n log^3 rho / eps^2) work; off-bundle mass halves per round so
// the first round dominates the work.
#pragma once

#include <cstdint>
#include <vector>

#include "sparsify/sample.hpp"

namespace spar::sparsify {

struct SparsifyOptions {
  double epsilon = 0.5;
  double rho = 4.0;  ///< target sparsification factor (paper's parameter)
  /// Per-round bundle width; 0 = the paper's theoretical value for the
  /// per-round eps. Practical runs set this to a small constant.
  std::size_t t = 0;
  double keep_probability = 0.25;
  BundleKind bundle_kind = BundleKind::kSpanner;
  std::uint64_t seed = 1;
  support::WorkCounter* work = nullptr;
};

struct RoundStats {
  std::size_t edges_before = 0;
  std::size_t edges_after = 0;
  std::size_t bundle_edges = 0;
  std::size_t sampled_edges = 0;
  std::size_t t_used = 0;
};

struct SparsifyResult {
  graph::Graph sparsifier;
  std::vector<RoundStats> rounds;
  std::size_t rounds_planned = 0;
  double per_round_epsilon = 0.0;
};

/// Round statistics of an in-place parallel_sparsify_rounds run (everything
/// SparsifyResult carries except the materialized Graph).
struct SparsifyRoundsResult {
  std::vector<RoundStats> rounds;
  std::size_t rounds_planned = 0;
  double per_round_epsilon = 0.0;
};

/// The PARALLELSPARSIFY round loop executed in place on an existing context:
/// ctx's arena shrinks to the sparsifier, no Graph is materialized. This is
/// the shared core behind parallel_sparsify(Graph) and the streaming
/// merge-and-reduce driver (stream.hpp), so both emit bit-identical edge
/// universes for the same (input, options).
SparsifyRoundsResult parallel_sparsify_rounds(RoundContext& ctx,
                                              const SparsifyOptions& options);

SparsifyResult parallel_sparsify(const graph::Graph& g, const SparsifyOptions& options);

}  // namespace spar::sparsify
