// Spectral partitioning riding the solver stack (the "Laplacian paradigm"
// application from the paper's introduction, grown into a real workload).
//
// The Fiedler pair (lambda_2, v_2) of a connected graph Laplacian is computed
// by BLOCK INVERSE-POWER iteration: a block of k = 2 mean-free vectors is
// repeatedly mapped through L^+ (each step is ONE batched chain-PCG call,
// solver/solve_sdd_multi, against a single resident InverseChain built once
// and reused across every iteration), re-orthonormalized, and refined by a
// dense k-by-k Rayleigh-Ritz projection (linalg/rayleigh_ritz). Deflation
// against the constant nullspace is explicit: every iterate is mean-removed,
// so the iteration converges to the smallest NONZERO eigenpair. A shifted
// Rayleigh-quotient variant falls out for free: once the Ritz value
// stabilizes, the chain solve of L (shift 0) still amplifies 1/lambda_2
// fastest among the deflated spectrum, and the Ritz projection supplies the
// quotient.
//
// The sweep cut then scans the Fiedler order: vertices sorted by coordinate,
// prefix by prefix, tracking conductance phi(S) = w(cut(S)) / min(vol(S),
// vol(V \ S)) incrementally; the best prefix is the returned partition
// (Cheeger's guarantee applies to this rounding).
//
// Determinism contract (the PR 1/2 discipline): every reduction runs through
// the chunk-ordered substrate, the solve path is bit-identical across thread
// counts by the solve_sdd_multi contract, the dense Rayleigh-Ritz work is
// order-fixed, and the returned vector is sign-fixed (first entry of largest
// magnitude made positive) -- so Fiedler vectors, values, and sweep cuts are
// bit-identical at any thread count, ThreadLimit(1) included
// (tests/apps/test_partition.cpp pins golden hashes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "solver/solver.hpp"

namespace spar::apps {

/// Knobs of the block inverse-power Fiedler solver.
struct FiedlerOptions {
  /// Outer inverse-power iterations (each is one batched chain solve).
  std::size_t max_iterations = 48;
  /// Stop when the Fiedler pair's relative eigenresidual
  /// ||L v - theta v|| / (theta ||v||) drops below this.
  double tolerance = 1e-8;
  /// Inner batched solve (tolerance, iteration cap, chain construction).
  /// The default chain knobs mirror sparsify_tool's --solve-rhs path.
  solver::SolveOptions solve;
  std::uint64_t seed = 11;  ///< seeds the starting block

  /// Defaults: a tighter inner solve, chain levels sparsified harder.
  FiedlerOptions() {
    solve.tolerance = 1e-10;
    solve.chain.rho = 8.0;
    solve.chain.t = 1;
  }
};

/// Outcome of the Fiedler computation.
struct FiedlerReport {
  linalg::Vector vector;      ///< sign-fixed unit Fiedler vector
  double value = 0.0;         ///< Ritz estimate of lambda_2
  double value_next = 0.0;    ///< Ritz estimate of lambda_3 (0 when n == 2)
  std::size_t iterations = 0; ///< inverse-power steps run
  bool converged = false;     ///< eigenresidual met tolerance
  double residual = 0.0;      ///< achieved ||L v - theta v|| / theta
  std::size_t chain_levels = 0;    ///< levels of the resident chain used
  std::size_t chain_total_nnz = 0; ///< stored nonzeros across that chain
};

/// Fiedler pair of connected graph `g`: builds the SDD matrix and one
/// resident inverse chain internally, then iterates. Throws spar::Error on
/// disconnected inputs (extract the largest component first).
FiedlerReport fiedler_vector(const graph::Graph& g, const FiedlerOptions& options = {});

/// Same iteration against a caller-owned matrix and resident chain (the full
/// amortization: one chain serves every inverse-power step, and can be shared
/// with other workloads of the same graph). `m` must be the singular
/// Laplacian SDDMatrix of a connected graph and `chain` built from it.
FiedlerReport fiedler_vector(const solver::SDDMatrix& m,
                             const solver::InverseChain& chain,
                             const FiedlerOptions& options = {});

/// One side of a sweep-cut partition with its quality numbers.
struct SweepCutResult {
  std::vector<bool> side;   ///< side[v] true = v in S (the chosen prefix)
  double conductance = 1.0; ///< w(cut) / min(vol(S), vol(V\S))
  std::size_t cut_size = 0; ///< |S| (vertices in the chosen prefix)
  double cut_weight = 0.0;  ///< total weight crossing the cut
  double volume_s = 0.0;    ///< sum of weighted degrees inside S
  double volume_rest = 0.0; ///< sum of weighted degrees outside S
};

/// Best conductance prefix of the vertices ordered by `score` (descending,
/// ties by vertex id): the standard sweep-cut rounding of a Fiedler vector.
/// Requires score.size() == g.num_vertices() and n >= 2; the returned side is
/// never empty or full. Deterministic: the order and the scan are pure
/// functions of (g, score).
SweepCutResult sweep_cut(const graph::Graph& g, std::span<const double> score);

/// Conductance of a fixed bipartition: w(cut) / min(vol true-side, vol
/// false-side); 1.0 when either side has zero volume. Chunk-ordered
/// deterministic reduction over the edge list.
double conductance(const graph::Graph& g, const std::vector<bool>& side);

/// Everything spectral_partition reports: the Fiedler pair plus its sweep cut.
struct PartitionReport {
  FiedlerReport fiedler;  ///< the computed Fiedler pair
  SweepCutResult cut;     ///< sweep-cut rounding of fiedler.vector
};

/// Fiedler vector + sweep cut of connected `g` in one call.
PartitionReport spectral_partition(const graph::Graph& g,
                                   const FiedlerOptions& options = {});

/// Chain-reusing variant: `g` must be the graph `m` and `chain` were built
/// from (the sweep cut needs the edge list; the solves use the chain).
PartitionReport spectral_partition(const graph::Graph& g, const solver::SDDMatrix& m,
                                   const solver::InverseChain& chain,
                                   const FiedlerOptions& options = {});

}  // namespace spar::apps
