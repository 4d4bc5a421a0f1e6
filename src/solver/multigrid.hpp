// Geometric multigrid for 2D-grid ("image affinity", Remark 1) SDD systems.
//
// Remark 1 of the paper contrasts the Peng-Spielman algebra with multigrid:
// on grid Laplacians, multigrid needs only constant-quality coarse
// approximations per level (errors do not compound multiplicatively), which
// is where its O(n)-work efficiency comes from. This module implements that
// comparator so bench_solver can put the chain solver next to it on the
// paper's own open-problem instance class.
//
// Construction is Galerkin: bilinear prolongation P between a rows x cols
// grid and its 2x-coarsened grid, coarse operator A_c = P^T A P (computed
// with the library's SpGEMM), weighted-Jacobi smoothing, V-cycles, CG on the
// coarsest level. Arbitrary positive edge weights are supported -- the
// Galerkin product, not rediscretization, builds the hierarchy.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/operator.hpp"
#include "solver/sdd_matrix.hpp"

namespace spar::solver {

/// Galerkin multigrid hierarchy over a 2D grid graph; one V-cycle is a
/// symmetric PSD approximate inverse (the PCG preconditioner bench_solver
/// compares the chain against).
class GridMultigrid {
 public:
  /// `m` must be the SDD matrix of a rows x cols grid graph (vertex (r, c)
  /// at index r * cols + c); weights arbitrary positive, slack optional.
  GridMultigrid(const SDDMatrix& m, std::size_t rows, std::size_t cols);

  /// Number of grid levels in the hierarchy (finest included).
  std::size_t num_levels() const { return levels_.size(); }
  /// Total stored nonzeros across all level operators.
  std::size_t total_nnz() const;

  /// One V-cycle applied to b (zero initial guess): y ~ A^{-1} b.
  /// Symmetric positive (semi-)definite, so usable as a PCG preconditioner.
  void v_cycle(std::span<const double> b, std::span<double> y) const;

  /// The V-cycle as a LinearOperator (for preconditioned_cg).
  linalg::LinearOperator as_operator() const;

 private:
  struct Level {
    linalg::CSRMatrix a;           // operator at this level
    linalg::Vector inv_diagonal;   // Jacobi
    linalg::CSRMatrix prolongation;// from next-coarser level (absent on last)
    std::size_t rows = 0;
    std::size_t cols = 0;
  };

  void cycle(std::size_t level, std::span<const double> b,
             std::span<double> x) const;
  void smooth(const Level& level, std::span<const double> b,
              std::span<double> x, std::size_t sweeps) const;

  std::vector<Level> levels_;
  bool project_constant_;
};

/// Outcome of multigrid_solve (mirrors SolveReport plus hierarchy size).
struct MultigridSolveReport {
  linalg::Vector solution;         ///< solution vector x
  std::size_t iterations = 0;      ///< outer PCG iterations
  double relative_residual = 0.0;  ///< achieved ||b - A x|| / ||b||
  bool converged = false;          ///< residual <= tolerance
  std::size_t levels = 0;          ///< hierarchy depth used
  std::size_t total_nnz = 0;       ///< stored nonzeros across levels
};

/// Convenience: solve a grid SDD system with multigrid-preconditioned CG
/// (at most 500 outer iterations).
MultigridSolveReport multigrid_solve(const SDDMatrix& m, std::size_t rows,
                                     std::size_t cols, std::span<const double> b,
                                     double tolerance = 1e-8);

}  // namespace spar::solver
