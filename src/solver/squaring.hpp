// The Peng-Spielman squaring step: M = D - A  =>  M~ = D - A D^{-1} A.
//
// A D^{-1} A is computed by SpGEMM; its off-diagonal entries are nonnegative
// (new, denser adjacency -- vertices at hop distance 2 become neighbors) and
// its diagonal moves into the new slack, which stays nonnegative (and stays
// exactly zero for Laplacian inputs, so singular systems square to singular
// systems). This is the step whose fill-in the sparsifier must fight
// (Section 4: "the number of edges goes up by a factor of O(log n log^2 k)").
//
// Two ways to produce the square:
//
//  * square() materializes the exact product (fast for small fill, the
//    parity reference), then the chain sparsifies it after the fact.
//  * square_streamed() never materializes it: the product is emitted in
//    bounded row-blocks (CSRMatrix's row-range SpGEMM) and every block is
//    pushed straight into a sparsify::StreamSparsifier tower, so peak
//    resident memory is ~(tower sketches + one row-block) while the exact
//    slack is still accumulated entry-by-entry on the way past. The output's
//    graph part is already a certified (1 +- epsilon) sparsifier of the
//    product's graph part -- the fusion that breaks the fill-in cliff
//    (DESIGN.md "fused sparsify-during-squaring").
#pragma once

#include <cstdint>

#include "solver/sdd_matrix.hpp"

namespace spar::solver {

/// Edge counts around one squaring step (the fill-in the sparsifier fights).
/// The streamed path also records its tower accounting; the dense path fills
/// only the fields its own doc mentions and leaves the tower ones zero.
struct SquaringStats {
  std::size_t input_edges = 0;   ///< graph-part edges of the input matrix
  std::size_t output_edges = 0;  ///< graph-part edges of the returned matrix
  /// Exact off-diagonal product edges emitted (streamed path; equals
  /// output_edges on the dense path, which drops nothing).
  std::size_t product_edges = 0;
  /// Symbolic fill upper bound the run planned with (streamed path).
  std::size_t projected_fill = 0;
  std::size_t row_blocks = 0;           ///< SpGEMM row-blocks produced (streamed)
  std::size_t batches = 0;              ///< tower batches pushed (streamed)
  std::size_t sparsify_passes = 0;      ///< tower reduce passes (streamed)
  std::size_t depth_planned = 0;        ///< tower budget depth planned (streamed)
  std::size_t depth_used = 0;           ///< tower budget depth used (streamed)
  /// ~Peak simultaneously resident edges: tower peak + the largest row-block
  /// + one emit buffer on the streamed path; the materialized product's nnz
  /// on the dense path. The number bench_chain compares across the two paths.
  std::size_t peak_resident_edges = 0;
  double epsilon_budget_used = 0.0;     ///< composed tower eps (streamed)
};

/// Returns M~ = D - A D^{-1} A as an SDDMatrix over the same vertex set.
/// Product entries that cancel to <= 0 (roundoff; reachable as underflow on
/// extreme weight ranges) are folded back into the diagonal instead of being
/// dropped, so D - A stays exactly the computed product.
SDDMatrix square(const SDDMatrix& m, SquaringStats* stats = nullptr);

/// Knobs for square_streamed: the tower budget (epsilon composes with the
/// chain's level_epsilon exactly like a posthoc sparsify call would -- the
/// tower splits it internally, see sparsify/stream.hpp) and the two memory
/// granularities (row-block fill and tower batch size).
struct StreamedSquareOptions {
  double epsilon = 0.5;     ///< end-to-end eps of the fused sparsifier
  double rho = 4.0;         ///< per-reduce sparsification factor
  std::size_t t = 2;        ///< per-round bundle width (0 = theory value)
  std::uint64_t seed = 99;  ///< seeds the tower's per-pass coins
  /// Tower batch granularity (edges); the unit of ingest memory.
  std::size_t batch_edges = std::size_t{1} << 17;
  /// Tower resident-level cap: peak ~ (cap sketches + 1 batch + 1 row-block).
  std::size_t max_resident_levels = 3;
  /// Target symbolic fill per SpGEMM row-block: the resident-product unit.
  std::size_t block_fill_edges = std::size_t{1} << 20;
};

/// M~ = D - A D^{-1} A with the graph part sparsified *while being produced*:
/// row-blocks of the product stream through a merge-and-reduce tower, the
/// exact product is never resident, and the slack is computed from the exact
/// (pre-sparsification) row sums so it equals square()'s slack up to
/// summation-order roundoff. Deterministic for a fixed (seed, batch_edges,
/// block_fill_edges) across thread counts.
SDDMatrix square_streamed(const SDDMatrix& m, const StreamedSquareOptions& options,
                          SquaringStats* stats = nullptr);

/// Symbolic upper bound on the fill of A D^{-1} A for m's adjacency: the
/// Gustavson expansion count before duplicate merging, O(nnz) to compute.
/// This is the number the chain compares against streamed_fill_threshold
/// BEFORE any product memory is committed.
std::size_t projected_square_fill(const SDDMatrix& m);

/// Convergence measure for the chain: gamma(M) = max_i (sum_j A_ij) / D_ii.
/// Squaring drives gamma -> gamma^2-ish; the chain terminates once
/// gamma <= threshold, where a diagonal/Jacobi solve is accurate.
double adjacency_dominance(const SDDMatrix& m);

}  // namespace spar::solver
