// MultiVector and the blocked kernels built on it: row-interleaved layout,
// fused per-column reductions, blocked CSR SpMM, blocked (P)CG with
// convergence masking. The load-bearing property
// throughout is BIT-identity: a blocked operation's column j must equal the
// corresponding single-vector operation on that column exactly (not
// approximately), for any thread count -- that is the contract
// solve_sdd_multi and the batched effective-resistance sketch rely on.
#include "linalg/multivector.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "graph/generators.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/laplacian.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::linalg {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed, bool mean_free = false) {
  support::Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.normal();
  if (mean_free) remove_mean(v);
  return v;
}

MultiVector random_block(std::size_t n, std::size_t k, std::uint64_t seed,
                         bool mean_free = false) {
  std::vector<Vector> cols;
  for (std::size_t j = 0; j < k; ++j)
    cols.push_back(random_vector(n, support::mix64(seed, j), mean_free));
  return MultiVector::from_columns(cols);
}

/// Exact (bitwise) equality of two double sequences.
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(MultiVector, LayoutAndAccessors) {
  MultiVector m(4, 3, 1.5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.data().size(), 12u);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(m.at(i, j), 1.5);
  m.at(2, 1) = -7.0;
  // Row-interleaved layout: entry (i, j) lives at data[i*cols + j], and a
  // row is a contiguous span of the k column values.
  EXPECT_EQ(m.data()[2 * 3 + 1], -7.0);
  EXPECT_EQ(m.row(2)[1], -7.0);
  EXPECT_EQ(m.row(2).data(), m.data().data() + 6);
  m.fill_all(0.0);
  EXPECT_EQ(m.at(2, 1), 0.0);
}

TEST(MultiVector, FromColumnsCopiesAndColumnCopyRoundTrips) {
  const Vector a = random_vector(5, 1), b = random_vector(5, 2);
  const std::vector<Vector> cols = {a, b};
  const MultiVector m = MultiVector::from_columns(cols);
  EXPECT_TRUE(bits_equal(m.column_copy(0), a));
  EXPECT_TRUE(bits_equal(m.column_copy(1), b));
  MultiVector m2(5, 2, 0.0);
  m2.set_column(0, a);
  m2.set_column(1, b);
  EXPECT_TRUE(bits_equal(m2.data(), m.data()));
}

TEST(MultiVector, FromColumnsRejectsRaggedInput) {
  const std::vector<Vector> cols = {Vector(4, 1.0), Vector(5, 1.0)};
  EXPECT_THROW(MultiVector::from_columns(cols), spar::Error);
}

/// Block widths under test: every width the kernels instantiate (1, 2, 16)
/// and the run-time fallback around them (3, 4, 5, 17, 37).
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 5, 16, 17, 37};

TEST(MultiVector, FusedReductionsMatchSingleVectorOps) {
  // Sizes straddling the parallel threshold of the vector_ops primitives:
  // the fused kernels must match bitwise on both sides of it.
  for (const std::size_t n : {3000u, 20000u}) {
    for (const std::size_t k : kWidths) {
      const MultiVector a = random_block(n, k, 3), b = random_block(n, k, 4);
      const Vector dots = column_dots(a, b);
      const Vector norms = column_norms(a);
      const Vector means = column_means(a);
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(dots[j], dot(a.column_copy(j), b.column_copy(j))) << n << " k " << k;
        EXPECT_EQ(norms[j], norm2(a.column_copy(j))) << n << " k " << k;
        EXPECT_EQ(means[j], mean(a.column_copy(j))) << n << " k " << k;
      }
      MultiVector c = a;
      remove_mean_columns(c);
      for (std::size_t j = 0; j < k; ++j) {
        Vector single = a.column_copy(j);
        remove_mean(single);
        EXPECT_TRUE(bits_equal(c.column_copy(j), single)) << n << " k " << k;
      }
    }
  }
}

TEST(MultiVector, FusedReductionsBitIdenticalAcrossThreads) {
  const MultiVector a = random_block(20000, 3, 7), b = random_block(20000, 3, 8);
  Vector reference;
  for (int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    const Vector dots = column_dots(a, b);
    if (reference.empty()) reference = dots;
    EXPECT_TRUE(bits_equal(dots, reference)) << "threads " << threads;
  }
}

TEST(MultiVector, ColumnAxpyHonorsMask) {
  const MultiVector x = random_block(64, 3, 5);
  MultiVector y = random_block(64, 3, 6);
  const MultiVector y0 = y;
  const Vector alpha = {2.0, -1.0, 0.5};
  const std::vector<std::uint8_t> mask = {1, 0, 1};
  column_axpy(alpha, x, y, mask);
  for (std::size_t j : {0u, 2u}) {
    Vector expect = y0.column_copy(j);
    axpy(alpha[j], x.column_copy(j), expect);
    EXPECT_TRUE(bits_equal(y.column_copy(j), expect));
  }
  EXPECT_TRUE(bits_equal(y.column_copy(1), y0.column_copy(1)));  // masked: untouched
}

TEST(BlockedSpmv, BitIdenticalToPerColumnMultiply) {
  // Large enough to cross the kernel's parallel threshold; the fallback
  // widths make the column tiling take its partial-tile paths too.
  const graph::Graph g = graph::connected_erdos_renyi(800, 0.05, 11);
  const CSRMatrix l = laplacian_matrix(g);
  for (const std::size_t k : kWidths) {
    const MultiVector x = random_block(l.cols(), k, 21);
    for (int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      MultiVector y(l.rows(), x.cols());
      l.multiply(x, y);
      for (std::size_t j = 0; j < x.cols(); ++j) {
        Vector single(l.rows());
        l.multiply(x.column_copy(j), single);
        EXPECT_TRUE(bits_equal(y.column_copy(j), single))
            << "k " << k << " col " << j << " threads " << threads;
      }
    }
  }
}

TEST(BlockedSpmv, RejectsShapeMismatch) {
  const CSRMatrix eye = CSRMatrix::identity(4);
  MultiVector x(5, 2), y(4, 2), y_narrow(4, 1);
  EXPECT_THROW(eye.multiply(x, y), spar::Error);
  MultiVector x_ok(4, 2);
  EXPECT_THROW(eye.multiply(x_ok, y_narrow), spar::Error);
}

/// L + s I as a single-vector / blocked operator pair over the same CSR.
struct TestSystem {
  CSRMatrix matrix;
  LinearOperator op;
  BlockOperator block_op;
  explicit TestSystem(const graph::Graph& g, double shift) {
    CSRMatrix l = laplacian_matrix(g);
    matrix = l.add(CSRMatrix::identity(l.rows()), shift);
    op = {matrix.rows(), [this](std::span<const double> x, std::span<double> y) {
            matrix.multiply(x, y);
          }};
    block_op = {matrix.rows(), [this](const MultiVector& x, MultiVector& y) {
                  matrix.multiply(x, y);
                }};
  }
};

TEST(BlockedCg, BitIdenticalToSingleRhsCg) {
  const graph::Graph g = graph::grid2d(14, 14);
  TestSystem sys(g, 0.4);
  const std::size_t n = sys.matrix.rows();
  const MultiVector b = random_block(n, 5, 31);
  CGOptions opt;
  opt.tolerance = 1e-9;
  for (int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    MultiVector x(n, b.cols(), 0.0);
    const auto block = blocked_conjugate_gradient(sys.block_op, b, x, opt);
    ASSERT_EQ(block.columns.size(), b.cols());
    for (std::size_t j = 0; j < b.cols(); ++j) {
      const Vector bj = b.column_copy(j);
      Vector xs(n, 0.0);
      const auto single = conjugate_gradient(sys.op, bj, xs, opt);
      EXPECT_TRUE(bits_equal(x.column_copy(j), xs)) << "col " << j;
      EXPECT_EQ(block.columns[j].iterations, single.iterations);
      EXPECT_EQ(block.columns[j].relative_residual, single.relative_residual);
      EXPECT_EQ(block.columns[j].converged, single.converged);
      EXPECT_TRUE(single.converged);
    }
  }
}

TEST(BlockedCg, MaskingFreezesColumnsAtTheirOwnConvergence) {
  // Columns with very different scales converge at different iterations; the
  // masked block must reproduce each single-RHS trajectory regardless.
  const graph::Graph g = graph::grid2d(10, 10);
  TestSystem sys(g, 0.7);
  const std::size_t n = sys.matrix.rows();
  std::vector<Vector> cols;
  cols.push_back(random_vector(n, 1));
  cols.push_back(Vector(n, 0.0));  // zero rhs: converges instantly, x = 0
  Vector tiny = random_vector(n, 2);
  scale(1e-12, tiny);
  cols.push_back(tiny);
  const MultiVector b = MultiVector::from_columns(cols);
  MultiVector x(n, b.cols(), 0.0);
  const auto block = blocked_conjugate_gradient(sys.block_op, b, x, {});
  std::size_t distinct = 0;
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector xs(n, 0.0);
    const auto single = conjugate_gradient(sys.op, b.column_copy(j), xs, {});
    EXPECT_TRUE(bits_equal(x.column_copy(j), xs)) << "col " << j;
    EXPECT_EQ(block.columns[j].iterations, single.iterations);
    distinct += block.columns[j].iterations != block.columns[0].iterations ? 1u : 0u;
  }
  EXPECT_TRUE(block.all_converged());
  EXPECT_GE(distinct, 1u);  // the masking actually exercised
  for (double v : x.column_copy(1)) EXPECT_EQ(v, 0.0);
}

TEST(BlockedCg, ProjectedSingularLaplacianMatchesSingleRhs) {
  const graph::Graph g = graph::connected_erdos_renyi(120, 0.06, 9);
  const CSRMatrix l = laplacian_matrix(g);
  const LinearOperator op{
      l.rows(), [&l](std::span<const double> x, std::span<double> y) {
        l.multiply(x, y);
      }};
  const BlockOperator bop{l.rows(), [&l](const MultiVector& x, MultiVector& y) {
                            l.multiply(x, y);
                          }};
  const MultiVector b = random_block(l.rows(), 4, 17, /*mean_free=*/true);
  CGOptions opt;
  opt.project_constant = true;
  MultiVector x(l.rows(), b.cols(), 0.0);
  const auto block = blocked_conjugate_gradient(bop, b, x, opt);
  EXPECT_TRUE(block.all_converged());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector xs(l.rows(), 0.0);
    conjugate_gradient(op, b.column_copy(j), xs, opt);
    EXPECT_TRUE(bits_equal(x.column_copy(j), xs)) << "col " << j;
  }
}

TEST(BlockedPcg, JacobiPreconditionedBitIdenticalToSingleRhs) {
  const graph::Graph g = graph::grid2d(12, 12);
  TestSystem sys(g, 0.3);
  const std::size_t n = sys.matrix.rows();
  const Vector d = sys.matrix.diagonal_vector();
  Vector inv_d(n);
  for (std::size_t i = 0; i < n; ++i) inv_d[i] = 1.0 / d[i];
  const LinearOperator jacobi{
      n, [&inv_d](std::span<const double> r, std::span<double> z) {
        for (std::size_t i = 0; i < inv_d.size(); ++i) z[i] = inv_d[i] * r[i];
      }};
  const BlockOperator jacobi_block = column_block_operator(jacobi);
  const MultiVector b = random_block(n, 3, 41);
  MultiVector x(n, b.cols(), 0.0);
  const auto block = blocked_pcg(sys.block_op, jacobi_block, b, x, {});
  EXPECT_TRUE(block.all_converged());
  EXPECT_GT(block.block_applies, 0u);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector xs(n, 0.0);
    const auto single = preconditioned_cg(sys.op, jacobi, b.column_copy(j), xs, {});
    EXPECT_TRUE(bits_equal(x.column_copy(j), xs)) << "col " << j;
    EXPECT_EQ(block.columns[j].iterations, single.iterations);
  }
}

TEST(BlockedCg, EmptyBlockAndShapeChecks) {
  TestSystem sys(graph::path_graph(4), 0.5);
  MultiVector empty_b(sys.matrix.rows(), 0), empty_x(sys.matrix.rows(), 0);
  const auto report = blocked_conjugate_gradient(sys.block_op, empty_b, empty_x, {});
  EXPECT_TRUE(report.columns.empty());
  EXPECT_FALSE(report.all_converged());  // vacuously unconverged by contract
  MultiVector bad_b(sys.matrix.rows() + 1, 2), x(sys.matrix.rows(), 2);
  EXPECT_THROW(blocked_conjugate_gradient(sys.block_op, bad_b, x, {}), spar::Error);
}

}  // namespace
}  // namespace spar::linalg
