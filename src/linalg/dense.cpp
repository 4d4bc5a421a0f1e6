#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::linalg {

DenseMatrix DenseMatrix::from_csr(const CSRMatrix& m) {
  DenseMatrix d(m.rows(), m.cols());
  const auto offsets = m.row_offsets();
  const auto cols = m.col_indices();
  const auto vals = m.values();
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      d.at(r, cols[k]) += vals[k];
  return d;
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) d.at(i, i) = 1.0;
  return d;
}

Vector DenseMatrix::multiply(std::span<const double> x) const {
  SPAR_CHECK(x.size() == cols_, "DenseMatrix::multiply: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const double xc = x[c];
    const auto col = column(c);
    for (std::size_t r = 0; r < rows_; ++r) y[r] += col[r] * xc;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  SPAR_CHECK(cols_ == other.rows_, "DenseMatrix::multiply: shape mismatch");
  DenseMatrix out(rows_, other.cols_);
  support::par::parallel_for(
      0, static_cast<std::int64_t>(other.cols_),
      [&](std::int64_t c) {
        for (std::size_t k = 0; k < cols_; ++k) {
          const double b = other.at(k, static_cast<std::size_t>(c));
          if (b == 0.0) continue;
          const auto colk = column(k);
          auto outc = out.column(static_cast<std::size_t>(c));
          for (std::size_t r = 0; r < rows_; ++r) outc[r] += colk[r] * b;
        }
      },
      {.enable = rows_ * other.cols_ > (1u << 16)});
  return out;
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t c = 0; c < cols_; ++c)
    for (std::size_t r = 0; r < rows_; ++r) out.at(c, r) = at(r, c);
  return out;
}

namespace {

// Householder reduction of the symmetric matrix in `z` to tridiagonal form
// (diagonal d, sub-diagonal e with e[0] = 0). With accumulate == true, z is
// overwritten with the orthogonal Q such that input = Q * T * Q^T; otherwise
// z's contents are scratch afterwards. Classic tred2 scheme, O(n^3) with a
// ~4/3 constant -- an order of magnitude cheaper than the Jacobi sweeps this
// replaced on the n ~ few-hundred certification path.
void householder_tridiagonalize(DenseMatrix& z, Vector& d, Vector& e,
                                bool accumulate) {
  const std::size_t n = z.rows();
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(z.at(i, k));
      if (scale == 0.0) {
        e[i] = z.at(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          z.at(i, k) /= scale;
          h += z.at(i, k) * z.at(i, k);
        }
        double f = z.at(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z.at(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) z.at(j, i) = z.at(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += z.at(j, k) * z.at(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += z.at(k, j) * z.at(i, k);
          e[j] = g / h;
          f += e[j] * z.at(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = z.at(i, j);
          const double ej = e[j] - hh * f;
          e[j] = ej;
          for (std::size_t k = 0; k <= j; ++k)
            z.at(j, k) -= f * e[k] + ej * z.at(i, k);
        }
      }
    } else {
      e[i] = z.at(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (accumulate) {
      if (d[i] != 0.0) {  // accumulate this step's Householder transform
        for (std::size_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += z.at(i, k) * z.at(k, j);
          for (std::size_t k = 0; k < i; ++k) z.at(k, j) -= g * z.at(k, i);
        }
      }
      d[i] = z.at(i, i);
      z.at(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) z.at(j, i) = z.at(i, j) = 0.0;
    } else {
      d[i] = z.at(i, i);
    }
  }
}

// Implicit-shift QL on the tridiagonal (d, e); converges each eigenvalue to
// machine precision. When z != nullptr its columns are rotated along, so a
// tridiagonalization basis turns into the eigenvector matrix.
void tridiagonal_ql(Vector& d, Vector& e, DenseMatrix* z) {
  const std::size_t n = d.size();
  if (n <= 1) return;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  constexpr double kEps = 2.220446049250313e-16;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= kEps * dd) break;
      }
      if (m != l) {
        SPAR_CHECK(iter++ < 50, "symmetric_eigen: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {  // negligible rotation: deflate and restart
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            auto zi = z->column(i);
            auto zi1 = z->column(i + 1);
            for (std::size_t k = 0; k < z->rows(); ++k) {
              f = zi1[k];
              zi1[k] = s * zi[k] + c * f;
              zi[k] = c * zi[k] - s * f;
            }
          }
        }
        if (!underflow) {
          d[l] -= p;
          e[l] = g;
          e[m] = 0.0;
        }
      }
    } while (m != l);
  }
}

}  // namespace

EigenDecomposition symmetric_eigen(const DenseMatrix& m) {
  SPAR_CHECK(m.rows() == m.cols(), "symmetric_eigen: matrix must be square");
  const std::size_t n = m.rows();
  EigenDecomposition out;
  out.eigenvectors = m;
  out.eigenvalues.assign(n, 0.0);
  Vector e(n, 0.0);
  if (n == 0) return out;
  householder_tridiagonalize(out.eigenvectors, out.eigenvalues, e, true);
  tridiagonal_ql(out.eigenvalues, e, &out.eigenvectors);

  // Sort ascending with matching vectors.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return out.eigenvalues[x] < out.eigenvalues[y];
  });
  Vector sorted_vals(n);
  DenseMatrix sorted_vecs(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_vals[i] = out.eigenvalues[order[i]];
    copy(out.eigenvectors.column(order[i]), sorted_vecs.column(i));
  }
  out.eigenvalues = std::move(sorted_vals);
  out.eigenvectors = std::move(sorted_vecs);
  return out;
}

Vector symmetric_eigenvalues(const DenseMatrix& m) {
  SPAR_CHECK(m.rows() == m.cols(), "symmetric_eigenvalues: matrix must be square");
  const std::size_t n = m.rows();
  Vector d(n, 0.0);
  if (n == 0) return d;
  DenseMatrix scratch = m;
  Vector e(n, 0.0);
  householder_tridiagonalize(scratch, d, e, false);
  tridiagonal_ql(d, e, nullptr);
  std::sort(d.begin(), d.end());
  return d;
}

DenseMatrix cholesky(const DenseMatrix& m) {
  SPAR_CHECK(m.rows() == m.cols(), "cholesky: matrix must be square");
  const std::size_t n = m.rows();
  DenseMatrix lower(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = m.at(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= lower.at(j, k) * lower.at(j, k);
    SPAR_CHECK(d > 0.0, "cholesky: matrix is not positive definite");
    const double ljj = std::sqrt(d);
    lower.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = m.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= lower.at(i, k) * lower.at(j, k);
      lower.at(i, j) = s / ljj;
    }
  }
  return lower;
}

Vector cholesky_solve(const DenseMatrix& lower, std::span<const double> b) {
  const std::size_t n = lower.rows();
  SPAR_CHECK(b.size() == n, "cholesky_solve: size mismatch");
  Vector y(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) y[i] -= lower.at(i, k) * y[k];
    y[i] /= lower.at(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t k = ii + 1; k < n; ++k) y[ii] -= lower.at(k, ii) * y[k];
    y[ii] /= lower.at(ii, ii);
  }
  return y;
}

DenseMatrix symmetric_pinv(const DenseMatrix& m, double rel_tol) {
  const auto eig = symmetric_eigen(m);
  const std::size_t n = m.rows();
  double lambda_max = 0.0;
  for (double l : eig.eigenvalues) lambda_max = std::max(lambda_max, std::abs(l));
  const double cut = rel_tol * std::max(lambda_max, 1e-300);
  DenseMatrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double l = eig.eigenvalues[k];
    if (std::abs(l) <= cut) continue;
    const double inv = 1.0 / l;
    const auto vk = eig.eigenvectors.column(k);
    for (std::size_t c = 0; c < n; ++c) {
      const double f = inv * vk[c];
      if (f == 0.0) continue;
      auto col = out.column(c);
      for (std::size_t r = 0; r < n; ++r) col[r] += vk[r] * f;
    }
  }
  return out;
}

RayleighRitz rayleigh_ritz(const DenseMatrix& q, const DenseMatrix& aq) {
  const std::size_t n = q.rows();
  const std::size_t k = q.cols();
  SPAR_CHECK(aq.rows() == n && aq.cols() == k,
             "rayleigh_ritz: basis/image shape mismatch");
  SPAR_CHECK(k >= 1, "rayleigh_ritz: need at least one basis column");

  // T = q^T aq, symmetrized: with an orthonormal q the exact T is symmetric,
  // so averaging the two off-diagonal estimates only removes roundoff.
  DenseMatrix t(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < k; ++j) {
      const double tij = dot(q.column(i), aq.column(j));
      const double tji = dot(q.column(j), aq.column(i));
      t.at(i, j) = t.at(j, i) = 0.5 * (tij + tji);
    }
  EigenDecomposition eig = symmetric_eigen(t);

  RayleighRitz out;
  out.values = std::move(eig.eigenvalues);
  out.basis = DenseMatrix(n, k);
  // basis = q * Y; rows are independent, each row's inner loop runs in a
  // fixed order, so the rotation is deterministic for any thread count.
  support::par::parallel_for(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t r) {
        const auto row = static_cast<std::size_t>(r);
        for (std::size_t j = 0; j < k; ++j) {
          double acc = 0.0;
          for (std::size_t l = 0; l < k; ++l)
            acc += q.at(row, l) * eig.eigenvectors.at(l, j);
          out.basis.at(row, j) = acc;
        }
      },
      {.enable = n * k > (1u << 14)});
  return out;
}

}  // namespace spar::linalg
