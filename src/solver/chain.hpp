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
// operator is symmetric PSD, so it serves directly as a PCG preconditioner
// (how bench_solver uses it), and as a standalone solver via iterative
// refinement. The level and tail sweeps are written once over the block
// width: applying the chain to one vector is the width-1 case of applying it
// to a block.
//
// The squaring step is where fill-in explodes (A D^{-1} A connects every
// 2-hop pair). ChainOptions::squaring picks how each level absorbs it:
// materialize the exact product then sparsify (kDense), or fuse the
// sparsifier into the SpGEMM so the product streams through a bounded-memory
// tower and is never resident (kStreamed; kAuto switches by projected fill).
// ChainOptions::max_level_fill turns the projection into a hard guard that
// refuses a dense square before any product memory is committed.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/operator.hpp"
#include "solver/sdd_matrix.hpp"
#include "sparsify/sparsify.hpp"

namespace spar::solver {

/// How each level's square A D^{-1} A is produced (see solver/squaring.hpp).
enum class SquaringMode {
  /// Dense while a level's projected fill stays small, streamed past
  /// ChainOptions::streamed_fill_threshold (or past max_level_fill when that
  /// guard is set): small instances keep the exact reference path, big ones
  /// never materialize the product.
  kAuto,
  /// Always materialize the exact product (square()); the parity reference.
  /// With max_level_fill set this mode refuses oversized levels with a
  /// diagnosed error instead of attempting the SpGEMM.
  kDense,
  /// Always fuse sparsify-during-squaring (square_streamed()): bounded
  /// resident memory, the level's eps budget spent inside the tower.
  kStreamed,
};

struct ChainOptions {
  /// Per-level sparsifier accuracy. The theory needs eps = 1/O(log kappa);
  /// wrapped in PCG a constant works and is what we default to.
  double level_epsilon = 0.5;
  /// Sparsification factor per level (Theorem 5's rho).
  double rho = 4.0;
  /// Bundle width forwarded to PARALLELSPARSIFY (0 = theoretical).
  std::size_t t = 2;
  /// Sparsify a level only when its graph part has more than
  /// edge_factor * n edges (the "threshold of applicability" m').
  double edge_factor = 4.0;
  /// Hard cap on chain depth, >= 1 (singular Laplacians terminate here:
  /// their gamma never decays).
  std::size_t max_levels = 24;
  /// Stop when adjacency dominance gamma = max_i rowsum(A)/D drops below
  /// this (Jacobi converges at rate gamma on the last level).
  double gamma_stop = 0.25;
  /// Damped Jacobi sweeps that solve the last level (where gamma is small
  /// enough that a few sweeps handle the remaining system).
  std::size_t last_level_jacobi_steps = 12;
  std::uint64_t seed = 99;  ///< seeds the per-level sparsifier coins
  /// How each level's square is produced (dense SpGEMM vs streamed tower).
  SquaringMode squaring = SquaringMode::kAuto;
  /// kAuto switches a level to streamed squaring once projected_square_fill
  /// exceeds this many product entries. The default keeps small instances
  /// (and the existing tests) on the dense reference path.
  std::size_t streamed_fill_threshold = std::size_t{1} << 22;
  /// Fill-in guard: 0 = off. When set and a level's projected fill exceeds
  /// it, kDense throws a diagnosed spar::Error (naming the level, the
  /// projection, and the streamed-squaring escape hatch) BEFORE committing
  /// product memory; kAuto switches to streamed at this bound too (it acts
  /// as a second, stricter streamed_fill_threshold).
  std::size_t max_level_fill = 0;
  /// Streamed squaring: tower batch granularity in edges.
  std::size_t stream_batch_edges = std::size_t{1} << 17;
  /// Streamed squaring: tower resident-level cap (peak memory knob).
  std::size_t stream_max_resident_levels = 3;
  /// Streamed squaring: target symbolic fill per SpGEMM row-block.
  std::size_t stream_block_fill_edges = std::size_t{1} << 20;
  support::WorkCounter* work = nullptr;  ///< optional work accounting sink
};

/// Per-level bookkeeping recorded while the chain is built. The squaring
/// fields describe the step that produced the NEXT level from this one (all
/// zero/false on the final level, which never squares).
struct ChainLevelInfo {
  std::size_t edges_after_square = 0;  ///< 0 for the input level
  std::size_t edges = 0;               ///< stored (possibly sparsified) edges
  double gamma = 0.0;                  ///< adjacency dominance at this level
  /// Symbolic fill bound of this level's square (what the guard / auto mode
  /// decided on; the streamed path reports the bound it planned with).
  std::size_t projected_fill = 0;
  bool streamed_square = false;  ///< next level built by square_streamed()
  /// Peak resident edges of the squaring step (tower + block + batch when
  /// streamed; the materialized product's nnz when dense).
  std::size_t peak_resident_edges = 0;
  std::size_t sparsify_passes = 0;   ///< streamed-tower reduce passes
  double epsilon_budget_used = 0.0;  ///< composed tower eps (streamed only)
};

class InverseChain {
 public:
  /// Builds the chain for `m`. Levels stop at gamma_stop, max_levels, or when
  /// squaring stops changing anything. Throws spar::Error when
  /// options.max_levels is 0.
  InverseChain(SDDMatrix m, const ChainOptions& options);

  /// Number of stored levels (>= 1).
  std::size_t num_levels() const { return levels_.size(); }
  /// Dimension n shared by every level (squaring never coarsens vertices).
  std::size_t dimension() const { return levels_.front().matrix.dimension(); }
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
  struct Level {
    SDDMatrix matrix;
    linalg::Vector inv_diagonal;
    linalg::CSRMatrix adjacency;
  };

  template <typename Width>
  void apply_level(Width width, std::size_t level, const linalg::MultiVector& b,
                   linalg::MultiVector& y) const;
  template <typename Width>
  void apply_tail(Width width, const linalg::MultiVector& b, linalg::MultiVector& y) const;

  std::vector<Level> levels_;
  std::vector<ChainLevelInfo> info_;
  std::size_t jacobi_steps_;
  bool project_constant_;
};

}  // namespace spar::solver
