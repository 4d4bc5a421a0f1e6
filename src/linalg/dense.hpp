// Dense symmetric linear algebra for exact verification paths:
//  * DenseMatrix with column-major storage,
//  * symmetric eigensolver: Householder tridiagonalization + implicit-shift
//    QL (O(n^3) with small constants; n <= ~1500), with a values-only
//    variant for paths that never touch eigenvectors,
//  * Cholesky factorization/solve,
//  * Laplacian pseudoinverse via eigendecomposition.
//
// These exist so the randomized algorithms can be certified against exact
// spectra in tests and small benches; large-n paths use Lanczos + CG instead.
#pragma once

#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace spar::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static DenseMatrix from_csr(const CSRMatrix& m);
  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[c * rows_ + r]; }
  double at(std::size_t r, std::size_t c) const { return data_[c * rows_ + r]; }

  std::span<double> column(std::size_t c) { return {data_.data() + c * rows_, rows_}; }
  std::span<const double> column(std::size_t c) const {
    return {data_.data() + c * rows_, rows_};
  }

  Vector multiply(std::span<const double> x) const;
  DenseMatrix multiply(const DenseMatrix& other) const;
  DenseMatrix transpose() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;  // column-major
};

struct EigenDecomposition {
  Vector eigenvalues;      ///< ascending
  DenseMatrix eigenvectors;///< column k pairs with eigenvalues[k]
};

/// Full symmetric eigendecomposition: Householder tridiagonalization plus
/// implicit-shift QL (converges to machine precision). `m` must be symmetric.
EigenDecomposition symmetric_eigen(const DenseMatrix& m);

/// Eigenvalues only (ascending), skipping eigenvector accumulation -- about
/// half the work of symmetric_eigen; the certification path uses this for
/// pencils where only the extreme eigenvalues matter.
Vector symmetric_eigenvalues(const DenseMatrix& m);

/// In-place Cholesky of an SPD matrix; returns lower factor. Throws on
/// non-positive pivot.
DenseMatrix cholesky(const DenseMatrix& m);

/// Solve L L^T x = b given the lower factor.
Vector cholesky_solve(const DenseMatrix& lower, std::span<const double> b);

/// Moore-Penrose pseudoinverse of a symmetric PSD matrix via eigen-
/// decomposition; eigenvalues below rel_tol * lambda_max are treated as zero.
DenseMatrix symmetric_pinv(const DenseMatrix& m, double rel_tol = 1e-10);

/// Outcome of a Rayleigh-Ritz projection (values ascending, column k of
/// `basis` pairs with values[k]).
struct RayleighRitz {
  Vector values;     ///< Ritz values of the projected operator, ascending
  DenseMatrix basis; ///< n-by-k rotated basis; column k pairs with values[k]
};

/// Rayleigh-Ritz projection of a symmetric operator A onto the span of the
/// orthonormal columns of `q` (n-by-k): forms T = q^T (aq) with aq = A q,
/// symmetrizes it against roundoff, eigendecomposes the small k-by-k system
/// and returns the Ritz values with the rotated basis q * Y. This is the
/// dense kernel of block inverse-power iteration (apps/partition.hpp): the
/// subspace is refined by large solves, the k-by-k projection extracts the
/// eigenpair estimates. All reductions run through the deterministic
/// chunk-ordered dot, so the result is bit-identical across thread counts.
RayleighRitz rayleigh_ritz(const DenseMatrix& q, const DenseMatrix& aq);

}  // namespace spar::linalg
