#include "solver/solver.hpp"

#include "support/assert.hpp"

namespace spar::solver {

using linalg::LinearOperator;
using linalg::Vector;

namespace {

SolveReport finish(Vector x, const linalg::CGReport& cg) {
  SolveReport report;
  report.solution = std::move(x);
  report.iterations = cg.iterations;
  report.relative_residual = cg.relative_residual;
  report.converged = cg.converged;
  return report;
}

}  // namespace

SolveReport solve_sdd(const SDDMatrix& m, std::span<const double> b,
                      const SolveOptions& options) {
  const InverseChain chain(m, options.chain);
  return solve_sdd(m, chain, b, options);
}

SolveReport solve_sdd(const SDDMatrix& m, const InverseChain& chain,
                      std::span<const double> b, const SolveOptions& options) {
  SPAR_CHECK(b.size() == m.dimension(), "solve_sdd: rhs size mismatch");
  linalg::MultiVector rhs(b.size(), 1);
  linalg::copy(b, rhs.data());
  const MultiSolveReport multi = solve_sdd_multi(m, chain, rhs, options);
  SolveReport out;
  out.solution = multi.solutions.column_copy(0);
  out.iterations = multi.columns[0].iterations;
  out.relative_residual = multi.columns[0].relative_residual;
  out.converged = multi.columns[0].converged;
  out.chain_levels = multi.chain_levels;
  out.chain_total_nnz = multi.chain_total_nnz;
  return out;
}

MultiSolveReport solve_sdd_multi(const SDDMatrix& m, const linalg::MultiVector& b,
                                 const SolveOptions& options) {
  SPAR_CHECK(b.rows() == m.dimension(), "solve_sdd_multi: rhs size mismatch");
  const InverseChain chain(m, options.chain);
  return solve_sdd_multi(m, chain, b, options);
}

MultiSolveReport solve_sdd_multi(const SDDMatrix& m, const InverseChain& chain,
                                 const linalg::MultiVector& b,
                                 const SolveOptions& options) {
  SPAR_CHECK(b.rows() == m.dimension(), "solve_sdd_multi: rhs size mismatch");
  MultiSolveReport report;
  report.solutions = linalg::MultiVector(m.dimension(), b.cols(), 0.0);
  report.chain_levels = chain.num_levels();
  report.chain_total_nnz = chain.total_nnz();
  linalg::CGOptions cg;
  cg.tolerance = options.tolerance;
  cg.max_iterations = options.max_iterations;
  cg.project_constant = m.is_singular();
  const auto block = linalg::blocked_pcg(m.as_block_operator(),
                                         chain.as_block_operator(), b,
                                         report.solutions, cg);
  report.columns = block.columns;
  report.iterations = block.iterations;
  report.block_applies = block.block_applies;
  return report;
}

SolveReport solve_cg(const SDDMatrix& m, std::span<const double> b,
                     const SolveOptions& options) {
  SPAR_CHECK(b.size() == m.dimension(), "solve_cg: rhs size mismatch");
  Vector x(m.dimension(), 0.0);
  linalg::CGOptions cg;
  cg.tolerance = options.tolerance;
  cg.max_iterations = options.max_iterations;
  cg.project_constant = m.is_singular();
  const auto report = linalg::conjugate_gradient(m.as_operator(), b, x, cg);
  return finish(std::move(x), report);
}

SolveReport solve_jacobi_pcg(const SDDMatrix& m, std::span<const double> b,
                             const SolveOptions& options) {
  SPAR_CHECK(b.size() == m.dimension(), "solve_jacobi_pcg: rhs size mismatch");
  const Vector& d = m.diagonal();
  Vector inv_d(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    SPAR_CHECK(d[i] > 0.0, "solve_jacobi_pcg: zero diagonal");
    inv_d[i] = 1.0 / d[i];
  }
  const LinearOperator jacobi{
      m.dimension(), [&inv_d](std::span<const double> r, std::span<double> z) {
        for (std::size_t i = 0; i < inv_d.size(); ++i) z[i] = inv_d[i] * r[i];
      }};
  Vector x(m.dimension(), 0.0);
  linalg::CGOptions cg;
  cg.tolerance = options.tolerance;
  cg.max_iterations = options.max_iterations;
  cg.project_constant = m.is_singular();
  const auto report = linalg::preconditioned_cg(m.as_operator(), jacobi, b, x, cg);
  return finish(std::move(x), report);
}

}  // namespace spar::solver
