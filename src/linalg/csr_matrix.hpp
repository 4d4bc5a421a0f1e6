// General sparse matrix in compressed sparse row form, with row-parallel SpMV
// and Gustavson SpGEMM. This is the algebraic substrate of the Peng-Spielman
// solver (forming A * D^{-1} * A) and of the Laplacian operators.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/multivector.hpp"
#include "linalg/vector_ops.hpp"

namespace spar::linalg {

struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CSRMatrix {
 public:
  CSRMatrix() = default;

  /// Builds from triplets; duplicate (row, col) entries are summed; entries
  /// that cancel to exactly zero are kept (harmless) unless drop_zeros.
  static CSRMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets,
                                 bool drop_zeros = true);

  static CSRMatrix identity(std::size_t n);
  static CSRMatrix diagonal(std::span<const double> d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  std::span<const std::size_t> row_offsets() const { return offsets_; }
  std::span<const std::uint32_t> col_indices() const { return col_index_; }
  std::span<const double> values() const { return values_; }

  /// y = A x (parallel over rows): the width-1 instantiation of the blocked
  /// kernel below.
  void multiply(std::span<const double> x, std::span<double> y) const;
  Vector multiply(std::span<const double> x) const;

  /// Y = A X, blocked: one traversal of the CSR structure applies A to every
  /// column (the matrix data is streamed once instead of X.cols() times --
  /// the batched-solve hot path). Per column the row accumulation order is
  /// the same as a single-vector multiply's, so each output column is
  /// bit-identical to multiplying that column alone.
  void multiply(const MultiVector& x, MultiVector& y) const;

  /// C = A * B (Gustavson; parallel over rows of A). The whole product is
  /// materialized; its rows come out with sorted columns, and the bits do
  /// not depend on the thread count.
  CSRMatrix multiply(const CSRMatrix& other) const;

  /// A's diagonal as a dense vector (zeros where absent).
  Vector diagonal_vector() const;

  /// Scales row i and column i by s[i]: returns diag(s) * A * diag(s).
  CSRMatrix scaled_symmetric(std::span<const double> s) const;

  /// Max |A - A^T| entry; 0 for exactly symmetric matrices.
  double symmetry_gap() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  CSRMatrix transpose() const;

  /// A + alpha * B (same shape).
  CSRMatrix add(const CSRMatrix& other, double alpha = 1.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> offsets_;       // size rows_+1
  std::vector<std::uint32_t> col_index_;   // size nnz
  std::vector<double> values_;             // size nnz
};

}  // namespace spar::linalg
