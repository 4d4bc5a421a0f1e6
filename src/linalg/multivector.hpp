// Column-blocked dense multi-vector: k vectors of dimension n stored as one
// contiguous row-interleaved buffer -- entry (i, j) lives at data[i*k + j],
// so a row holds all k columns adjacently. This is the substrate of the
// batched multi-RHS solve path: blocked SpMV kernels traverse a sparse
// matrix ONCE and, per nonzero, one cache line of x serves every column --
// the layout that turns k memory-bound passes into one (column-major blocks
// would gather k independent streams and lose the win again).
//
// A single right-hand side is a block of width 1: the solver kernels exist
// once, as templates over the block width (see with_width below), and the
// width-1 instantiation is the scalar loop.
//
// Determinism contract: every per-column reduction below (dot, norm, mean)
// is computed with the SAME chunk boundaries and chunk-order combine as the
// single-vector vector_ops primitive -- the fused kernels accumulate one
// partial per column per chunk and combine per column in ascending chunk
// order. A blocked solve's column j is therefore bit-identical to a
// single-RHS solve of that column, at any thread count
// (tests/solver/test_multi_rhs.cpp pins it).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "support/parallel.hpp"

namespace spar::linalg {

class MultiVector {
 public:
  MultiVector() = default;

  /// n-by-k block, every entry set to `value`.
  MultiVector(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Deep copy of `cols` equally sized vectors into a block.
  static MultiVector from_columns(std::span<const Vector> columns);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Entry (i, j); unchecked hot-path accessor (row-interleaved layout).
  double& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double at(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  /// Row i: the k column values of entry i, contiguous.
  std::span<double> row(std::size_t i) { return {data_.data() + i * cols_, cols_}; }
  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  /// Column j copied out as an owning contiguous Vector.
  Vector column_copy(std::size_t j) const;

  /// Overwrites column j from a contiguous vector.
  void set_column(std::size_t j, std::span<const double> values);

  /// The whole buffer (row-interleaved, size rows*cols).
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Sets every entry of every column to `value`.
  void fill_all(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Block width fixed at compile time: a kernel instantiated on it unrolls its
/// column loops and keeps per-column state in registers. FixedWidth<1> is
/// the scalar loop.
template <std::size_t K>
struct FixedWidth {
  static constexpr std::size_t value = K;
  /// Zeroed per-column accumulators.
  static std::array<double, K> zeros() { return {}; }
};

/// Block width known only at run time: the fallback instantiation.
struct DynamicWidth {
  std::size_t value = 0;
  /// Zeroed per-column accumulators.
  Vector zeros() const { return Vector(value, 0.0); }
};

/// Calls f(width) with FixedWidth<k> for the widths that have callers -- 1 (a
/// single right-hand side), 2 (the Fiedler block) and 16 (the server's
/// max_batch, the JL sketch's block) -- else with DynamicWidth{k}: each
/// width-templated kernel is written once and dispatched here.
template <typename F>
decltype(auto) with_width(std::size_t k, F&& f) {
  switch (k) {
    case 1: return f(FixedWidth<1>{});
    case 2: return f(FixedWidth<2>{});
    case 16: return f(FixedWidth<16>{});
    default: return f(DynamicWidth{k});
  }
}

/// Elementwise sweep over the rows of an n-row block: f(e, j) for the flat
/// index e = i*k + j of every row i and every column j that `mask` selects
/// (empty = all), i-outer and j-inner: one contiguous pass over the
/// interleaved block. A mask that selects every column -- CG's case until a
/// column converges -- is dropped before the loop: testing it per element
/// made column_axpy 2.5-4x slower at width 1 and single-RHS CG ~1.4x slower
/// (n = 1600 and 40000 rows, x86-64 Xeon).
///
/// Row sweeps over a width-templated block keep `#pragma GCC unroll 1` on
/// the column loop: fully unrolled at a fixed width, GCC 12 vectorizes
/// across rows with interleaving shuffles, 4-5x slower at width 16 than
/// vectorizing the column loop itself (measured on a 4096-row block, x86-64
/// Xeon, SSE2 codegen).
template <typename Width, typename F>
void masked_sweep(Width width, std::size_t n, std::span<const std::uint8_t> mask,
                  F&& f) {
  const std::size_t k = width.value;
  const auto sweep = [&](auto selected) {
    support::par::parallel_for(
        0, static_cast<std::int64_t>(n),
        [&](std::int64_t i) {
          const std::size_t row = static_cast<std::size_t>(i) * k;
#pragma GCC unroll 1
          for (std::size_t j = 0; j < k; ++j)
            if (selected(j)) f(row + j, j);
        },
        {.enable = n >= (std::size_t{1} << 14)});
  };
  if (std::all_of(mask.begin(), mask.end(), [](std::uint8_t m) { return m != 0; }))
    sweep([](std::size_t) { return true; });
  else
    sweep([&](std::size_t j) { return mask[j] != 0; });
}

/// Per-column dot products in ONE fused pass: out[j] = dot(col_j(a),
/// col_j(b)), bit-identical to linalg::dot on contiguous copies of the
/// columns (same chunking, same combine order).
Vector column_dots(const MultiVector& a, const MultiVector& b);

/// Per-column Euclidean norms (sqrt of the fused dots, matching norm2).
Vector column_norms(const MultiVector& a);

/// Per-column means, fused; bit-identical to linalg::mean per column.
Vector column_means(const MultiVector& x);

/// Per-column mean removal (projection onto range(L) for connected
/// Laplacians), identical to remove_mean on a contiguous copy of each
/// column. `mask` selects columns (empty = all).
void remove_mean_columns(MultiVector& x, std::span<const std::uint8_t> mask = {});

/// y.column(j) += alpha[j] * x.column(j) for every j with mask[j] nonzero
/// (mask may be empty = all columns).
void column_axpy(std::span<const double> alpha, const MultiVector& x,
                 MultiVector& y, std::span<const std::uint8_t> mask = {});

}  // namespace spar::linalg
