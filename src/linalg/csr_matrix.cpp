#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::linalg {

namespace {
namespace par = support::par;
}  // namespace

CSRMatrix CSRMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets, bool drop_zeros) {
  for (const Triplet& t : triplets)
    SPAR_CHECK(t.row < rows && t.col < cols, "from_triplets: index out of range");
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return std::tie(a.row, a.col) < std::tie(b.row, b.col);
  });
  CSRMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.offsets_.assign(rows + 1, 0);
  m.col_index_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    double sum = 0.0;
    std::size_t j = i;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (!(drop_zeros && sum == 0.0)) {
      m.col_index_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.offsets_[triplets[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) m.offsets_[r + 1] += m.offsets_[r];
  return m;
}

CSRMatrix CSRMatrix::identity(std::size_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    t.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i), 1.0});
  return from_triplets(n, n, std::move(t));
}

CSRMatrix CSRMatrix::diagonal(std::span<const double> d) {
  std::vector<Triplet> t;
  t.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    t.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i), d[i]});
  return from_triplets(d.size(), d.size(), std::move(t), /*drop_zeros=*/false);
}

namespace {

// One row of Y = A X over a column tile [j0, j0 + TILE) of a row-interleaved
// block `width` columns wide (x and y point at column j0). Per column the
// accumulation order over the row is exactly the scalar SpMV's, so each
// output column is bit-identical to a single-vector multiply; at TILE = 1
// and width 1 this is that scalar loop. Wide tiles software-prefetch the
// gathers ahead so their L3/DRAM latency hides behind the arithmetic (the
// gathers are what an SpMM is bound by once the block outgrows L2 --
// measured 82 -> 22 cycles/nz for a 16-wide block on the E13 instances,
// BENCH_pr5.json); prefetch and unrolling change no arithmetic.
template <std::size_t TILE>
inline void spmm_row_tile(const double* values, const std::uint32_t* cols,
                          std::size_t begin, std::size_t end, const double* x,
                          std::size_t width, double* y) {
  constexpr std::size_t kPrefetchDistance = 16;
  double acc[TILE] = {};
  for (std::size_t k = begin; k < end; ++k) {
    if constexpr (TILE >= 4) {
      if (k + kPrefetchDistance < end) {
        const double* ahead = x + cols[k + kPrefetchDistance] * width;
        __builtin_prefetch(ahead);
        if constexpr (TILE * sizeof(double) > 64) __builtin_prefetch(ahead + 8);
      }
    }
    const double v = values[k];
    const double* xc = x + cols[k] * width;
    for (std::size_t t = 0; t < TILE; ++t) acc[t] += v * xc[t];
  }
  for (std::size_t t = 0; t < TILE; ++t) y[t] = acc[t];
}

// Y = A X for a row-interleaved block: one traversal of the CSR structure
// serves every column -- per nonzero, the block hands all `width` values of
// x[col] in one or two cache lines (this is what makes SpMM beat k SpMVs;
// column-major blocks would issue k independent gathers per nonzero and lose
// the win). A row is covered by the widest register tiles that fit, so each
// instantiated width walks each row once.
template <typename Width>
void spmm(Width width, const CSRMatrix& a, const double* x, double* y) {
  const std::size_t k = width.value;
  const std::size_t* offsets = a.row_offsets().data();
  const std::uint32_t* cols = a.col_indices().data();
  const double* values = a.values().data();
  par::parallel_for(
      0, static_cast<std::int64_t>(a.rows()),
      [&](std::int64_t r) {
        const std::size_t row = static_cast<std::size_t>(r);
        const std::size_t begin = offsets[row];
        const std::size_t end = offsets[row + 1];
        double* yr = y + row * k;
        std::size_t j0 = 0;
        for (; j0 + 16 <= k; j0 += 16)
          spmm_row_tile<16>(values, cols, begin, end, x + j0, k, yr + j0);
        for (; j0 + 4 <= k; j0 += 4)
          spmm_row_tile<4>(values, cols, begin, end, x + j0, k, yr + j0);
        for (; j0 + 2 <= k; j0 += 2)
          spmm_row_tile<2>(values, cols, begin, end, x + j0, k, yr + j0);
        for (; j0 < k; ++j0)
          spmm_row_tile<1>(values, cols, begin, end, x + j0, k, yr + j0);
      },
      {.enable = a.nnz() > (1u << 14)});
}

}  // namespace

void CSRMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  SPAR_CHECK(x.size() == cols_ && y.size() == rows_, "multiply: size mismatch");
  spmm(FixedWidth<1>{}, *this, x.data(), y.data());
}

void CSRMatrix::multiply(const MultiVector& x, MultiVector& y) const {
  SPAR_CHECK(x.rows() == cols_ && y.rows() == rows_ && x.cols() == y.cols(),
             "multiply: block shape mismatch");
  with_width(x.cols(), [&](auto width) {
    spmm(width, *this, x.data().data(), y.data().data());
  });
}

Vector CSRMatrix::multiply(std::span<const double> x) const {
  Vector y(rows_);
  multiply(x, y);
  return y;
}

CSRMatrix CSRMatrix::multiply(const CSRMatrix& other) const {
  SPAR_CHECK(cols_ == other.rows_, "SpGEMM: inner dimension mismatch");
  CSRMatrix c;
  c.rows_ = rows_;
  c.cols_ = other.cols_;
  c.offsets_.assign(rows_ + 1, 0);

  // Pass 1: count nnz per output row (Gustavson symbolic phase). Each worker
  // keeps one dense marker array, created lazily on first chunk it runs.
  // Marker stamps are row ids, unique within the call.
  std::vector<std::size_t> row_nnz(rows_, 0);
  {
    par::WorkerLocal<std::vector<std::int64_t>> markers;
    par::parallel_chunks(
        0, static_cast<std::int64_t>(rows_),
        [&](std::int64_t rb, std::int64_t re, std::int64_t /*chunk*/, int worker) {
          std::vector<std::int64_t>& marker = markers.local(
              worker, [&] { return std::vector<std::int64_t>(other.cols_, -1); });
          for (std::int64_t r = rb; r < re; ++r) {
            std::size_t count = 0;
            for (std::size_t ka = offsets_[static_cast<std::size_t>(r)];
                 ka < offsets_[static_cast<std::size_t>(r) + 1]; ++ka) {
              const std::uint32_t mid = col_index_[ka];
              for (std::size_t kb = other.offsets_[mid];
                   kb < other.offsets_[mid + 1]; ++kb) {
                const std::uint32_t col = other.col_index_[kb];
                if (marker[col] != r) {
                  marker[col] = r;
                  ++count;
                }
              }
            }
            row_nnz[static_cast<std::size_t>(r)] = count;
          }
        },
        {.grain = 64});
  }
  for (std::size_t r = 0; r < rows_; ++r)
    c.offsets_[r + 1] = c.offsets_[r] + row_nnz[r];
  c.col_index_.resize(c.offsets_[rows_]);
  c.values_.resize(c.offsets_[rows_]);

  // Pass 2: numeric phase with one dense accumulator per worker; output rows
  // are disjoint ranges of c, so writes never conflict.
  {
    struct Scratch {
      std::vector<double> accum;
      std::vector<std::int64_t> marker;
      explicit Scratch(std::size_t cols) : accum(cols, 0.0), marker(cols, -1) {}
    };
    par::WorkerLocal<Scratch> scratches;
    par::parallel_chunks(
        0, static_cast<std::int64_t>(rows_),
        [&](std::int64_t rb, std::int64_t re, std::int64_t /*chunk*/, int worker) {
          Scratch& scratch = scratches.local(worker, [&] { return Scratch(other.cols_); });
          std::vector<double>& accum = scratch.accum;
          std::vector<std::int64_t>& marker = scratch.marker;
          for (std::int64_t r = rb; r < re; ++r) {
            const auto row = static_cast<std::size_t>(r);
            std::size_t head = c.offsets_[row];
            for (std::size_t ka = offsets_[row]; ka < offsets_[row + 1]; ++ka) {
              const std::uint32_t mid = col_index_[ka];
              const double va = values_[ka];
              for (std::size_t kb = other.offsets_[mid];
                   kb < other.offsets_[mid + 1]; ++kb) {
                const std::uint32_t col = other.col_index_[kb];
                if (marker[col] != r) {
                  marker[col] = r;
                  accum[col] = 0.0;
                  c.col_index_[head++] = col;
                }
                accum[col] += va * other.values_[kb];
              }
            }
            // Sort this row's columns for deterministic layout, then write values.
            std::sort(c.col_index_.begin() +
                          static_cast<std::ptrdiff_t>(c.offsets_[row]),
                      c.col_index_.begin() + static_cast<std::ptrdiff_t>(head));
            for (std::size_t k = c.offsets_[row]; k < head; ++k)
              c.values_[k] = accum[c.col_index_[k]];
          }
        },
        {.grain = 64});
  }
  return c;
}

Vector CSRMatrix::diagonal_vector() const {
  Vector d(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r)
    for (std::size_t k = offsets_[r]; k < offsets_[r + 1]; ++k)
      if (col_index_[k] == r) d[r] += values_[k];
  return d;
}

CSRMatrix CSRMatrix::scaled_symmetric(std::span<const double> s) const {
  SPAR_CHECK(rows_ == cols_ && s.size() == rows_, "scaled_symmetric: size mismatch");
  CSRMatrix out = *this;
  par::parallel_for(0, static_cast<std::int64_t>(rows_), [&](std::int64_t r) {
    for (std::size_t k = offsets_[static_cast<std::size_t>(r)];
         k < offsets_[static_cast<std::size_t>(r) + 1]; ++k)
      out.values_[k] = s[static_cast<std::size_t>(r)] * values_[k] * s[col_index_[k]];
  });
  return out;
}

double CSRMatrix::symmetry_gap() const {
  const CSRMatrix t = transpose();
  const CSRMatrix diff = add(t, -1.0);
  double gap = 0.0;
  for (double v : diff.values_) gap = std::max(gap, std::abs(v));
  return gap;
}

double CSRMatrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return std::sqrt(sum);
}

CSRMatrix CSRMatrix::transpose() const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = offsets_[r]; k < offsets_[r + 1]; ++k)
      t.push_back({col_index_[k], static_cast<std::uint32_t>(r), values_[k]});
  return from_triplets(cols_, rows_, std::move(t), /*drop_zeros=*/false);
}

CSRMatrix CSRMatrix::add(const CSRMatrix& other, double alpha) const {
  SPAR_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "add: shape mismatch");
  std::vector<Triplet> t;
  t.reserve(nnz() + other.nnz());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = offsets_[r]; k < offsets_[r + 1]; ++k)
      t.push_back({static_cast<std::uint32_t>(r), col_index_[k], values_[k]});
  for (std::size_t r = 0; r < other.rows_; ++r)
    for (std::size_t k = other.offsets_[r]; k < other.offsets_[r + 1]; ++k)
      t.push_back({static_cast<std::uint32_t>(r), other.col_index_[k],
                   alpha * other.values_[k]});
  return from_triplets(rows_, cols_, std::move(t));
}

}  // namespace spar::linalg
