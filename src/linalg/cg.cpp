#include "linalg/cg.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace spar::linalg {

namespace {

// CG on k columns in lockstep; the single-RHS entry points run it at width
// 1. Per-column reductions go through the fused column_* kernels, whose
// chunking and combine order are the single-vector vector_ops primitives',
// and every update is the textbook scalar CG expression, so column j's
// iterates are bit for bit those of a width-1 solve of b_j alone. Columns
// freeze (convergence mask) where a width-1 solve would have stopped;
// frozen columns still ride along in the blocked operator applications
// (their output is simply never read) -- that is what lets A and the
// preconditioner traverse their sparse structure once per iteration for the
// whole block.
template <typename Width>
BlockCGReport block_cg(Width width, const BlockOperator& a, const BlockOperator* m_inverse,
                       const MultiVector& b, MultiVector& x, const CGOptions& options) {
  const std::size_t n = a.dim;
  const std::size_t k = width.value;
  BlockCGReport report;
  report.columns.resize(k);

  MultiVector rhs = b;
  if (options.project_constant) remove_mean_columns(rhs);
  const Vector b_norm = column_norms(rhs);
  std::vector<std::uint8_t> active(k, 1);
  for (std::size_t j = 0; j < k; ++j) {
    if (b_norm[j] == 0.0) {
      for (std::size_t i = 0; i < n; ++i) x.at(i, j) = 0.0;
      report.columns[j].converged = true;
      active[j] = 0;
    }
  }
  const auto none_active = [&] {
    for (std::uint8_t a_j : active)
      if (a_j) return false;
    return true;
  };
  if (none_active()) return report;

  MultiVector r(n, k), z(n, k), p(n, k), ap(n, k);
  double* const pr = r.data().data();
  double* const pz = z.data().data();
  double* const pp = p.data().data();
  const double* const pap = ap.data().data();
  const double* const prhs = rhs.data().data();
  if (options.project_constant) remove_mean_columns(x);
  a.apply(x, ap);
  ++report.block_applies;
  masked_sweep(width, n, active,
               [&](std::size_t e, std::size_t) { pr[e] = prhs[e] - pap[e]; });
  if (options.project_constant) remove_mean_columns(r, active);

  const auto apply_precond = [&] {
    if (m_inverse != nullptr) {
      m_inverse->apply(r, z);
      if (options.project_constant) remove_mean_columns(z, active);
    } else {
      masked_sweep(width, n, active, [&](std::size_t e, std::size_t) { pz[e] = pr[e]; });
    }
  };

  apply_precond();
  masked_sweep(width, n, active, [&](std::size_t e, std::size_t) { pp[e] = pz[e]; });
  Vector rz = column_dots(r, z);

  Vector alpha(k, 0.0), neg_alpha(k, 0.0);
  auto beta = width.zeros();
  std::vector<std::uint8_t> advance(k);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const Vector r_norms = column_norms(r);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      report.columns[j].relative_residual = r_norms[j] / b_norm[j];
      if (report.columns[j].relative_residual <= options.tolerance) {
        report.columns[j].converged = true;
        active[j] = 0;  // freeze: this column's solve is done
      }
    }
    if (none_active()) break;
    a.apply(p, ap);
    ++report.block_applies;
    if (options.project_constant) remove_mean_columns(ap, active);
    const Vector p_ap = column_dots(p, ap);
    // `advance` = columns that run this iteration's updates. A column whose
    // search direction is not PD-positive (the operator is not PD on this
    // subspace) stops here and keeps the convergence verdict of its
    // untouched residual.
    advance = active;
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      if (p_ap[j] <= 0.0) {
        report.columns[j].converged =
            report.columns[j].relative_residual <= options.tolerance;
        active[j] = 0;
        advance[j] = 0;
        continue;
      }
      alpha[j] = rz[j] / p_ap[j];
      neg_alpha[j] = -alpha[j];
    }
    if (none_active()) break;
    column_axpy(alpha, p, x, advance);
    column_axpy(neg_alpha, ap, r, advance);
    if (options.project_constant) remove_mean_columns(r, advance);
    apply_precond();
    const Vector rz_next = column_dots(r, z);
    for (std::size_t j = 0; j < k; ++j) {
      if (!advance[j]) continue;
      beta[j] = rz_next[j] / rz[j];
      rz[j] = rz_next[j];
    }
    masked_sweep(width, n, advance,
                 [&](std::size_t e, std::size_t j) { pp[e] = pz[e] + beta[j] * pp[e]; });
    for (std::size_t j = 0; j < k; ++j)
      if (advance[j]) report.columns[j].iterations = it + 1;
  }
  {
    const Vector r_norms = column_norms(r);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;  // ran out of iterations with this column live
      report.columns[j].relative_residual = r_norms[j] / b_norm[j];
      report.columns[j].converged =
          report.columns[j].relative_residual <= options.tolerance;
    }
  }
  for (const BlockColumnStats& c : report.columns)
    report.iterations = std::max(report.iterations, c.iterations);
  return report;
}

BlockCGReport block_cg(const BlockOperator& a, const BlockOperator* m_inverse,
                       const MultiVector& b, MultiVector& x, const CGOptions& options) {
  SPAR_CHECK(b.rows() == a.dim && x.rows() == a.dim && x.cols() == b.cols(),
             "blocked cg: size mismatch");
  if (b.cols() == 0) return {};
  return with_width(b.cols(), [&](auto width) {
    return block_cg(width, a, m_inverse, b, x, options);
  });
}

// A single right-hand side is a width-1 block.
CGReport single_rhs_cg(const LinearOperator& a, const LinearOperator* m_inverse,
                       std::span<const double> b, std::span<double> x,
                       const CGOptions& options) {
  SPAR_CHECK(b.size() == a.dim && x.size() == a.dim, "cg: size mismatch");
  MultiVector b1(a.dim, 1), x1(a.dim, 1);
  copy(b, b1.data());
  copy(x, x1.data());
  const BlockOperator m1 = m_inverse != nullptr ? column_block_operator(*m_inverse)
                                                : BlockOperator{};
  const BlockCGReport block = block_cg(column_block_operator(a),
                                       m_inverse != nullptr ? &m1 : nullptr, b1, x1, options);
  copy(x1.data(), x);
  const BlockColumnStats& column = block.columns.front();
  return {column.iterations, column.relative_residual, column.converged,
          block.block_applies};
}

}  // namespace

CGReport conjugate_gradient(const LinearOperator& a, std::span<const double> b,
                            std::span<double> x, const CGOptions& options) {
  return single_rhs_cg(a, nullptr, b, x, options);
}

CGReport preconditioned_cg(const LinearOperator& a, const LinearOperator& m_inverse,
                           std::span<const double> b, std::span<double> x,
                           const CGOptions& options) {
  return single_rhs_cg(a, &m_inverse, b, x, options);
}

BlockCGReport blocked_conjugate_gradient(const BlockOperator& a, const MultiVector& b,
                                         MultiVector& x, const CGOptions& options) {
  return block_cg(a, nullptr, b, x, options);
}

BlockCGReport blocked_pcg(const BlockOperator& a, const BlockOperator& m_inverse,
                          const MultiVector& b, MultiVector& x,
                          const CGOptions& options) {
  return block_cg(a, &m_inverse, b, x, options);
}

}  // namespace spar::linalg
