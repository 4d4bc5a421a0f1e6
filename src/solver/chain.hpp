// Approximate inverse chains (Peng-Spielman, Section 4 of the paper).
//
// Level i stores M_i = D_i - A_i; M_{i+1} approximates D_i - A_i D_i^{-1} A_i
// with the graph part sparsified by PARALLELSPARSIFY whenever it exceeds the
// size threshold (this is precisely where Theorem 5 plugs in: sparsify by a
// chosen factor rho instead of all the way down, Section 4's refinement).
// The chain applies
//
//   M_i^{-1} b ~ 1/2 [ D_i^{-1} b + (I + D_i^{-1} A_i) M_{i+1}^{-1} (I + A_i D_i^{-1}) b ]
//
// recursively; the last level is solved with damped Jacobi. The resulting
// operator is symmetric PSD and serves as a PCG preconditioner. The level and
// tail sweeps are written once over the block width: applying the chain to
// one vector is the width-1 case of applying it to a block.
//
// Depth is measured: after each stored level a seeded PCG probe,
// preconditioned by the chain so far, prices a solve (iterations x entries
// read), and the first level that does not lower that price is dropped.
//
// The squaring step is where fill-in explodes (A D^{-1} A connects every
// 2-hop pair): each level's exact square is materialized (square()) and then
// sparsified, so a build's peak memory grows with its largest square.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/operator.hpp"
#include "solver/sdd_matrix.hpp"
#include "sparsify/sparsify.hpp"

namespace spar::solver {

/// Knobs of the chain build: per-level sparsifier and depth cap.
struct ChainOptions {
  /// Per-level sparsifier accuracy. The theory needs eps = 1/O(log kappa);
  /// wrapped in PCG a constant works and is what we default to.
  double level_epsilon = 0.5;
  /// Sparsification factor per level (Theorem 5's rho).
  double rho = 4.0;
  /// Bundle width forwarded to PARALLELSPARSIFY (0 = theoretical).
  std::size_t t = 2;
  /// Hard cap on chain depth, >= 1. The depth probe picks the depth below
  /// it; the cap only bounds the build.
  std::size_t max_levels = 24;
  std::uint64_t seed = 99;  ///< seeds the per-level sparsifier coins
};

/// Per-level bookkeeping recorded while the chain is built.
/// edges_after_square describes the square of this level, which made the
/// NEXT level; on the final level, the square whose level the build rejected
/// (probe verdict or an isolated vertex), or 0 if it stopped without squaring.
struct ChainLevelInfo {
  std::size_t edges_after_square = 0;  ///< graph-part edges of this level's square
  std::size_t edges = 0;               ///< stored (possibly sparsified) edges
  double gamma = 0.0;                  ///< adjacency dominance at this level
  std::size_t probe_iterations = 0;  ///< depth probe's PCG iterations, this level as tail
  double probe_work = 0.0;  ///< probe_iterations x entries one iteration reads
};

/// The approximate inverse chain of an SDD matrix M: its levels and the
/// symmetric PSD operator y ~ M^{-1} b they apply.
class InverseChain {
 public:
  /// Builds the chain for `m`. Levels stop at the first one that does not
  /// lower the depth probe's work per solve (it is dropped), at gamma <= 1/4,
  /// at max_levels, or when squaring leaves no edges or isolates a vertex.
  /// Throws spar::Error when options.max_levels is 0 or m has a zero diagonal.
  InverseChain(SDDMatrix m, const ChainOptions& options);

  /// Number of stored levels (>= 1).
  std::size_t num_levels() const { return levels_.size(); }
  /// Dimension n shared by every level (squaring never coarsens vertices).
  std::size_t dimension() const { return levels_.front().diagonal.size(); }
  /// Build-time bookkeeping, one entry per level.
  const std::vector<ChainLevelInfo>& level_info() const { return info_; }

  /// Total stored nonzeros across the chain ("total size of the approximate
  /// inverse chain" in Theorem 6's work bound).
  std::size_t total_nnz() const;

  /// y ~ M^{-1} b: one top-down chain application (symmetric PSD operator);
  /// the width-1 case of the blocked apply below.
  void apply(std::span<const double> b, std::span<double> y) const;

  /// Blocked chain application: Y.column(j) ~ M^{-1} B.column(j) for every
  /// column, with each level's CSR structure traversed once for the whole
  /// block (the batched-solve hot path). Per column the arithmetic is that of
  /// a width-1 apply, so results are bit-identical to applying the chain to
  /// each column alone. Scratch is O(levels * n * k) doubles; batch very
  /// wide blocks at the call site if memory matters.
  void apply(const linalg::MultiVector& b, linalg::MultiVector& y) const;

  /// The chain as a BlockOperator (for blocked_pcg / solve_sdd_multi).
  linalg::BlockOperator as_block_operator() const;

 private:
  // What apply reads of a level M = D - A: D, D^{-1} and A.
  struct Level {
    linalg::Vector diagonal;
    linalg::Vector inv_diagonal;
    linalg::CSRMatrix adjacency;
  };

  // Probes with the newest level as tail; true (best_work lowered) if it pays.
  bool probe_lowers_work(double& best_work);
  template <typename Width>
  void apply_level(Width width, std::size_t level, const linalg::MultiVector& b,
                   linalg::MultiVector& y) const;
  template <typename Width>
  void apply_tail(Width width, const linalg::MultiVector& b, linalg::MultiVector& y) const;

  std::vector<Level> levels_;
  std::vector<ChainLevelInfo> info_;
  bool project_constant_;
};

}  // namespace spar::solver
