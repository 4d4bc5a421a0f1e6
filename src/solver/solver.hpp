// Public SDD solve API (Theorem 6) plus the baselines bench_solver compares:
//
//  * solve_sdd            - chain-preconditioned CG (the paper's solver:
//                           Peng-Spielman framework + PARALLELSPARSIFY chain)
//  * solve_cg             - plain conjugate gradient
//  * solve_jacobi_pcg     - diagonally preconditioned CG
//
// All three report iterations, matvec counts and achieved residuals so the
// benches can compare total work at equal accuracy.
#pragma once

#include <optional>

#include "linalg/cg.hpp"
#include "solver/chain.hpp"

namespace spar::solver {

/// Shared options for every solve entry point in this header.
struct SolveOptions {
  double tolerance = 1e-8;             ///< target relative residual
  std::size_t max_iterations = 20000;  ///< outer (P)CG iteration cap
  ChainOptions chain;  ///< used by solve_sdd / solve_sdd_multi only
};

/// Outcome of a single-RHS solve.
struct SolveReport {
  linalg::Vector solution;         ///< solution vector x
  std::size_t iterations = 0;      ///< (P)CG iterations run
  double relative_residual = 0.0;  ///< achieved ||b - M x|| / ||b||
  bool converged = false;          ///< residual <= tolerance
  std::size_t chain_levels = 0;     ///< solve_sdd only
  std::size_t chain_total_nnz = 0;  ///< solve_sdd only
};

/// Result of a batched multi-RHS solve (solve_sdd_multi): one solution
/// column and one per-RHS stats entry per right-hand side.
struct MultiSolveReport {
  linalg::MultiVector solutions;  ///< solutions.column(j) solves M x = b.column(j)
  /// Per-RHS iterations / achieved residual / convergence flag.
  std::vector<linalg::BlockColumnStats> columns;
  std::size_t iterations = 0;       ///< block iterations run (max over columns)
  std::uint64_t block_applies = 0;  ///< blocked applications of M
  std::size_t chain_levels = 0;     ///< levels of the chain used
  std::size_t chain_total_nnz = 0;  ///< stored nonzeros across the chain
  /// True when every right-hand side converged.
  bool all_converged() const {
    for (const linalg::BlockColumnStats& c : columns)
      if (!c.converged) return false;
    return !columns.empty();
  }
};

/// Chain-preconditioned CG. Works for nonsingular SDD matrices and for
/// connected singular Laplacians (b is projected onto range(M)).
SolveReport solve_sdd(const SDDMatrix& m, std::span<const double> b,
                      const SolveOptions& options = {});

/// Same, reusing a prebuilt chain (amortizes setup across right-hand sides).
SolveReport solve_sdd(const SDDMatrix& m, const InverseChain& chain,
                      std::span<const double> b, const SolveOptions& options = {});

/// Batched chain-preconditioned CG: solves M x = b_j for every column of `b`
/// with ONE chain built once and applied to the whole block per iteration
/// (each level's CSR is traversed once for all columns). Column j's solution
/// is bit-identical to solve_sdd(m, b.column(j)) with the same options --
/// batching changes throughput, never results; solve_sdd is this call on a
/// width-1 block. Peak scratch is O(chain_levels * n * k) doubles; split
/// very wide blocks at the call site.
MultiSolveReport solve_sdd_multi(const SDDMatrix& m, const linalg::MultiVector& b,
                                 const SolveOptions& options = {});

/// Same, reusing a prebuilt chain (the full amortization: setup once, one
/// blocked sweep for all right-hand sides).
MultiSolveReport solve_sdd_multi(const SDDMatrix& m, const InverseChain& chain,
                                 const linalg::MultiVector& b,
                                 const SolveOptions& options = {});

/// Baseline: plain (unpreconditioned) conjugate gradient.
SolveReport solve_cg(const SDDMatrix& m, std::span<const double> b,
                     const SolveOptions& options = {});

/// Baseline: diagonally (Jacobi) preconditioned CG.
SolveReport solve_jacobi_pcg(const SDDMatrix& m, std::span<const double> b,
                             const SolveOptions& options = {});

}  // namespace spar::solver
