#include "solver/multigrid.hpp"

#include <cmath>

#include "linalg/cg.hpp"
#include "support/assert.hpp"

namespace spar::solver {

using linalg::CSRMatrix;
using linalg::Triplet;
using linalg::Vector;

namespace {

// V-cycle tuning: damped-Jacobi sweeps before and after the coarse
// correction, with the classic 2/3 weight.
constexpr std::size_t kPreSmooth = 2;
constexpr std::size_t kPostSmooth = 2;
constexpr double kJacobiWeight = 2.0 / 3.0;
// Stop coarsening when a side drops to this many points.
constexpr std::size_t kMinSide = 4;
// CG on the coarsest level (a tiny system).
constexpr double kCoarseTolerance = 1e-10;
constexpr std::size_t kCoarseMaxIterations = 2000;
// Outer PCG cap of multigrid_solve.
constexpr std::size_t kMaxIterations = 500;

// Bilinear prolongation from a coarse ceil(r/2) x ceil(c/2) grid onto the
// fine r x c grid; coarse point (i, j) sits at fine point (2i, 2j).
CSRMatrix bilinear_prolongation(std::size_t rows, std::size_t cols) {
  const std::size_t crows = (rows + 1) / 2;
  const std::size_t ccols = (cols + 1) / 2;
  std::vector<Triplet> t;
  t.reserve(rows * cols * 4);
  auto coarse_id = [&](std::size_t i, std::size_t j) {
    return static_cast<std::uint32_t>(i * ccols + j);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto fine = static_cast<std::uint32_t>(r * cols + c);
      const std::size_t i = r / 2;
      const std::size_t j = c / 2;
      const bool r_odd = (r % 2) != 0;
      const bool c_odd = (c % 2) != 0;
      const bool has_down = i + 1 < crows;
      const bool has_right = j + 1 < ccols;
      if (!r_odd && !c_odd) {
        t.push_back({fine, coarse_id(i, j), 1.0});
      } else if (r_odd && !c_odd) {
        if (has_down) {
          t.push_back({fine, coarse_id(i, j), 0.5});
          t.push_back({fine, coarse_id(i + 1, j), 0.5});
        } else {
          t.push_back({fine, coarse_id(i, j), 1.0});
        }
      } else if (!r_odd && c_odd) {
        if (has_right) {
          t.push_back({fine, coarse_id(i, j), 0.5});
          t.push_back({fine, coarse_id(i, j + 1), 0.5});
        } else {
          t.push_back({fine, coarse_id(i, j), 1.0});
        }
      } else {
        if (has_down && has_right) {
          t.push_back({fine, coarse_id(i, j), 0.25});
          t.push_back({fine, coarse_id(i + 1, j), 0.25});
          t.push_back({fine, coarse_id(i, j + 1), 0.25});
          t.push_back({fine, coarse_id(i + 1, j + 1), 0.25});
        } else if (has_down) {
          t.push_back({fine, coarse_id(i, j), 0.5});
          t.push_back({fine, coarse_id(i + 1, j), 0.5});
        } else if (has_right) {
          t.push_back({fine, coarse_id(i, j), 0.5});
          t.push_back({fine, coarse_id(i, j + 1), 0.5});
        } else {
          t.push_back({fine, coarse_id(i, j), 1.0});
        }
      }
    }
  }
  return CSRMatrix::from_triplets(rows * cols, crows * ccols, std::move(t));
}

}  // namespace

GridMultigrid::GridMultigrid(const SDDMatrix& m, std::size_t rows, std::size_t cols)
    : project_constant_(m.is_singular()) {
  SPAR_CHECK(rows * cols == m.dimension(),
             "GridMultigrid: rows * cols must equal the matrix dimension");
  SPAR_CHECK(rows >= 2 && cols >= 2, "GridMultigrid: grid too small");

  CSRMatrix a = m.to_csr();
  std::size_t r = rows;
  std::size_t c = cols;
  for (;;) {
    Level level;
    level.a = a;
    level.rows = r;
    level.cols = c;
    Vector diag = level.a.diagonal_vector();
    level.inv_diagonal.resize(diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i) {
      SPAR_CHECK(diag[i] > 0.0, "GridMultigrid: nonpositive diagonal");
      level.inv_diagonal[i] = 1.0 / diag[i];
    }
    const bool coarsen = r > kMinSide && c > kMinSide;
    if (coarsen) {
      level.prolongation = bilinear_prolongation(r, c);
      // Galerkin coarse operator A_c = P^T A P.
      const CSRMatrix ap = a.multiply(level.prolongation);
      a = level.prolongation.transpose().multiply(ap);
      r = (r + 1) / 2;
      c = (c + 1) / 2;
    }
    levels_.push_back(std::move(level));
    if (!coarsen) break;
  }
}

std::size_t GridMultigrid::total_nnz() const {
  std::size_t total = 0;
  for (const Level& level : levels_) total += level.a.nnz();
  return total;
}

void GridMultigrid::smooth(const Level& level, std::span<const double> b,
                           std::span<double> x, std::size_t sweeps) const {
  const std::size_t n = b.size();
  Vector residual(n);
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    level.a.multiply(x, residual);
    for (std::size_t i = 0; i < n; ++i)
      x[i] += kJacobiWeight * level.inv_diagonal[i] * (b[i] - residual[i]);
  }
}

void GridMultigrid::cycle(std::size_t idx, std::span<const double> b,
                          std::span<double> x) const {
  const Level& level = levels_[idx];
  const std::size_t n = b.size();

  if (idx + 1 == levels_.size()) {
    // Coarsest: CG (tiny system; projection handles singular Laplacians).
    const linalg::LinearOperator op{
        n, [&level](std::span<const double> in, std::span<double> out) {
          level.a.multiply(in, out);
        }};
    linalg::CGOptions cg;
    cg.tolerance = kCoarseTolerance;
    cg.max_iterations = kCoarseMaxIterations;
    cg.project_constant = project_constant_;
    linalg::conjugate_gradient(op, b, x, cg);
    return;
  }

  smooth(level, b, x, kPreSmooth);

  // Coarse-grid correction: restrict residual, recurse, prolong, add.
  Vector residual(n);
  level.a.multiply(x, residual);
  for (std::size_t i = 0; i < n; ++i) residual[i] = b[i] - residual[i];
  const std::size_t nc = level.prolongation.cols();
  Vector coarse_rhs(nc, 0.0);
  // restriction = P^T (the transpose-multiply): accumulate row-wise.
  {
    const auto offsets = level.prolongation.row_offsets();
    const auto cols_idx = level.prolongation.col_indices();
    const auto vals = level.prolongation.values();
    for (std::size_t row = 0; row < n; ++row)
      for (std::size_t k = offsets[row]; k < offsets[row + 1]; ++k)
        coarse_rhs[cols_idx[k]] += vals[k] * residual[row];
  }
  Vector coarse_x(nc, 0.0);
  cycle(idx + 1, coarse_rhs, coarse_x);
  Vector correction(n);
  level.prolongation.multiply(coarse_x, correction);
  for (std::size_t i = 0; i < n; ++i) x[i] += correction[i];

  smooth(level, b, x, kPostSmooth);
  if (project_constant_ && idx == 0) linalg::remove_mean(x);
}

void GridMultigrid::v_cycle(std::span<const double> b, std::span<double> y) const {
  SPAR_CHECK(b.size() == levels_.front().a.rows() && y.size() == b.size(),
             "GridMultigrid::v_cycle: size mismatch");
  linalg::fill(y, 0.0);
  Vector rhs(b.begin(), b.end());
  if (project_constant_) linalg::remove_mean(rhs);
  cycle(0, rhs, y);
}

linalg::LinearOperator GridMultigrid::as_operator() const {
  return {levels_.front().a.rows(),
          [this](std::span<const double> b, std::span<double> y) { v_cycle(b, y); }};
}

MultigridSolveReport multigrid_solve(const SDDMatrix& m, std::size_t rows,
                                     std::size_t cols, std::span<const double> b,
                                     double tolerance) {
  const GridMultigrid mg(m, rows, cols);
  const linalg::LinearOperator a{
      m.dimension(), [&m](std::span<const double> x, std::span<double> y) {
        m.apply(x, y);
      }};
  Vector x(m.dimension(), 0.0);
  linalg::CGOptions cg;
  cg.tolerance = tolerance;
  cg.max_iterations = kMaxIterations;
  cg.project_constant = m.is_singular();
  const auto report = linalg::preconditioned_cg(a, mg.as_operator(), b, x, cg);

  MultigridSolveReport out;
  out.solution = std::move(x);
  out.iterations = report.iterations;
  out.relative_residual = report.relative_residual;
  out.converged = report.converged;
  out.levels = mg.num_levels();
  out.total_nnz = mg.total_nnz();
  return out;
}

}  // namespace spar::solver
