#include "linalg/multivector.hpp"

#include <cmath>

#include "linalg/operator.hpp"
#include "support/assert.hpp"

namespace spar::linalg {

namespace {
// Mirrors vector_ops.cpp's threshold so the fused reductions run on the pool
// exactly where the single-vector primitives do. It only picks inline versus
// pool execution: default_grain fixes the chunk boundaries, and therefore
// the bits, either way.
constexpr std::int64_t kParThreshold = 1 << 14;

namespace par = support::par;

// Fused per-column reduction: map_row(i, partial) accumulates row i into
// the per-column partials. Chunking and the ascending-chunk combine replicate
// par::parallel_sum over [0, rows) per column, so each out[j] is bit-identical
// to the scalar reduction on column j alone.
template <typename Width, typename MapRow>
auto column_reduce(Width width, std::size_t rows, MapRow&& map_row) {
  using Partial = decltype(width.zeros());
  const auto n = static_cast<std::int64_t>(rows);
  return par::parallel_reduce<Partial>(
      0, n, width.zeros(),
      [&](std::int64_t cb, std::int64_t ce) {
        Partial partial = width.zeros();
        for (std::int64_t i = cb; i < ce; ++i) map_row(static_cast<std::size_t>(i), partial);
        return partial;
      },
      [&](Partial acc, const Partial& p) {
        for (std::size_t j = 0; j < width.value; ++j) acc[j] += p[j];
        return acc;
      },
      {.enable = n >= kParThreshold});
}

template <typename Width>
auto column_means(Width width, const MultiVector& x) {
  const std::size_t k = width.value;
  const double* px = x.data().data();
  auto out = column_reduce(width, x.rows(), [&](std::size_t i, auto& partial) {
    for (std::size_t j = 0; j < k; ++j) partial[j] += px[i * k + j];
  });
  for (double& v : out) v /= static_cast<double>(x.rows());
  return out;
}

}  // namespace

MultiVector MultiVector::from_columns(std::span<const Vector> columns) {
  MultiVector out;
  if (columns.empty()) return out;
  const std::size_t n = columns.front().size();
  out = MultiVector(n, columns.size());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    SPAR_CHECK(columns[j].size() == n, "MultiVector::from_columns: ragged columns");
    out.set_column(j, columns[j]);
  }
  return out;
}

Vector MultiVector::column_copy(std::size_t j) const {
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = at(i, j);
  return out;
}

void MultiVector::set_column(std::size_t j, std::span<const double> values) {
  SPAR_CHECK(values.size() == rows_, "MultiVector::set_column: size mismatch");
  for (std::size_t i = 0; i < rows_; ++i) at(i, j) = values[i];
}

void MultiVector::fill_all(double value) { fill(data_, value); }

Vector column_dots(const MultiVector& a, const MultiVector& b) {
  SPAR_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "column_dots: shape mismatch");
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  return with_width(a.cols(), [&](auto width) {
    const std::size_t k = width.value;
    const auto dots = column_reduce(width, a.rows(), [&](std::size_t i, auto& partial) {
      for (std::size_t j = 0; j < k; ++j) partial[j] += pa[i * k + j] * pb[i * k + j];
    });
    return Vector(dots.begin(), dots.end());
  });
}

Vector column_norms(const MultiVector& a) {
  Vector out = column_dots(a, a);
  for (double& v : out) v = std::sqrt(v);
  return out;
}

Vector column_means(const MultiVector& x) {
  if (x.rows() == 0) return Vector(x.cols(), 0.0);
  return with_width(x.cols(), [&](auto width) {
    const auto means = column_means(width, x);
    return Vector(means.begin(), means.end());
  });
}

void remove_mean_columns(MultiVector& x, std::span<const std::uint8_t> mask) {
  SPAR_CHECK(mask.empty() || mask.size() == x.cols(),
             "remove_mean_columns: mask size mismatch");
  if (x.rows() == 0) return;
  double* px = x.data().data();
  with_width(x.cols(), [&](auto width) {
    const auto means = column_means(width, x);
    masked_sweep(width, x.rows(), mask,
                 [&](std::size_t e, std::size_t j) { px[e] -= means[j]; });
  });
}

void column_axpy(std::span<const double> alpha, const MultiVector& x, MultiVector& y,
                 std::span<const std::uint8_t> mask) {
  SPAR_CHECK(x.rows() == y.rows() && x.cols() == y.cols() &&
                 alpha.size() == x.cols() && (mask.empty() || mask.size() == x.cols()),
             "column_axpy: shape mismatch");
  const double* px = x.data().data();
  double* py = y.data().data();
  with_width(x.cols(), [&](auto width) {
    masked_sweep(width, x.rows(), mask,
                 [&](std::size_t e, std::size_t j) { py[e] += alpha[j] * px[e]; });
  });
}

BlockOperator column_block_operator(const LinearOperator& op) {
  // Captures the LinearOperator by value: the returned BlockOperator owns its
  // copy and stays valid after the argument goes out of scope. Columns round
  // trip through contiguous buffers, so per-column results are exactly the
  // wrapped operator's.
  return {op.dim, [op](const MultiVector& x, MultiVector& y) {
            // A width-1 block is one contiguous column: no round trip.
            if (x.cols() == 1) return op.apply(x.data(), y.data());
            Vector in(x.rows()), out(x.rows());
            for (std::size_t j = 0; j < x.cols(); ++j) {
              for (std::size_t i = 0; i < x.rows(); ++i) in[i] = x.at(i, j);
              op.apply(in, out);
              y.set_column(j, out);
            }
          }};
}

}  // namespace spar::linalg
