#include "linalg/csr_matrix.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace spar::linalg {
namespace {

CSRMatrix small_matrix() {
  // [1 2 0]
  // [0 3 4]
  // [5 0 6]
  return CSRMatrix::from_triplets(3, 3,
                                  {{0, 0, 1},
                                   {0, 1, 2},
                                   {1, 1, 3},
                                   {1, 2, 4},
                                   {2, 0, 5},
                                   {2, 2, 6}});
}

TEST(CSRMatrix, FromTripletsSumsDuplicates) {
  const CSRMatrix m =
      CSRMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  const Vector y = m.multiply(Vector{0.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.5);
}

TEST(CSRMatrix, FromTripletsDropsExactZeros) {
  const CSRMatrix m =
      CSRMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {1, 1, 2.0}});
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(CSRMatrix, FromTripletsRejectsOutOfRange) {
  EXPECT_THROW(CSRMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), spar::Error);
}

TEST(CSRMatrix, MultiplyMatchesDenseComputation) {
  const CSRMatrix m = small_matrix();
  const Vector y = m.multiply(Vector{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 18.0);
  EXPECT_DOUBLE_EQ(y[2], 23.0);
}

TEST(CSRMatrix, MultiplySizeMismatchThrows) {
  const CSRMatrix m = small_matrix();
  Vector y(3);
  EXPECT_THROW(m.multiply(Vector{1.0, 2.0}, y), spar::Error);
}

TEST(CSRMatrix, IdentityActsTrivially) {
  const CSRMatrix eye = CSRMatrix::identity(4);
  const Vector x = {1, 2, 3, 4};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(CSRMatrix, DiagonalMatrixScales) {
  const Vector d = {2.0, 3.0};
  const CSRMatrix m = CSRMatrix::diagonal(d);
  const Vector y = m.multiply(Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(CSRMatrix, SpGEMMMatchesManualSquare) {
  const CSRMatrix m = small_matrix();
  const CSRMatrix sq = m.multiply(m);
  // Row 0 of M^2: [1 2 0]*M = [1*row0 + 2*row1] = [1, 2+6, 8] = [1, 8, 8].
  const Vector y = sq.multiply(Vector{1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  const Vector e1 = sq.multiply(Vector{0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(e1[0], 8.0);
}

TEST(CSRMatrix, SpGEMMAgainstDenseOnRandom) {
  // Pseudo-random sparse matrices; compare SpGEMM with the O(n^3) product.
  const std::size_t n = 24;
  std::vector<Triplet> ta, tb;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < n; ++j) {
      if ((i * 7 + j * 13) % 5 == 0) ta.push_back({i, j, double(i + j + 1)});
      if ((i * 3 + j * 11) % 4 == 0) tb.push_back({i, j, double(i) - double(j) + 0.5});
    }
  const CSRMatrix a = CSRMatrix::from_triplets(n, n, ta);
  const CSRMatrix b = CSRMatrix::from_triplets(n, n, tb);
  const CSRMatrix c = a.multiply(b);
  for (std::size_t col = 0; col < n; ++col) {
    Vector e(n, 0.0);
    e[col] = 1.0;
    const Vector via_c = c.multiply(e);
    const Vector via_ab = a.multiply(b.multiply(e));
    for (std::size_t row = 0; row < n; ++row)
      EXPECT_NEAR(via_c[row], via_ab[row], 1e-9) << row << "," << col;
  }
}

TEST(CSRMatrix, SpGEMMShapeMismatchThrows) {
  const CSRMatrix a = CSRMatrix::identity(3);
  const CSRMatrix b = CSRMatrix::identity(4);
  EXPECT_THROW(a.multiply(b), spar::Error);
}

TEST(CSRMatrix, DiagonalVectorExtracts) {
  const CSRMatrix m = small_matrix();
  const Vector d = m.diagonal_vector();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 6.0);
}

TEST(CSRMatrix, ScaledSymmetric) {
  const CSRMatrix m = small_matrix();
  const Vector s = {1.0, 2.0, 3.0};
  const CSRMatrix scaled = m.scaled_symmetric(s);
  // entry (1,2): 2 * 4 * 3 = 24.
  const Vector y = scaled.multiply(Vector{0.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(CSRMatrix, TransposeSwapsAction) {
  const CSRMatrix m = small_matrix();
  const CSRMatrix t = m.transpose();
  const Vector x = {1.0, 2.0, 3.0};
  const Vector e0 = {1.0, 0.0, 0.0};
  // (M^T x)_0 == column 0 of M dotted with x == 1*1 + 5*3.
  EXPECT_DOUBLE_EQ(t.multiply(x)[0], 16.0);
  EXPECT_DOUBLE_EQ(m.multiply(e0)[2], 5.0);
}

TEST(CSRMatrix, SymmetryGapZeroForSymmetric) {
  const CSRMatrix m = CSRMatrix::from_triplets(
      2, 2, {{0, 1, 3.0}, {1, 0, 3.0}, {0, 0, 1.0}});
  EXPECT_DOUBLE_EQ(m.symmetry_gap(), 0.0);
}

TEST(CSRMatrix, SymmetryGapDetectsAsymmetry) {
  const CSRMatrix m = CSRMatrix::from_triplets(2, 2, {{0, 1, 3.0}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(m.symmetry_gap(), 2.0);
}

TEST(CSRMatrix, AddWithScalar) {
  const CSRMatrix a = CSRMatrix::identity(2);
  const CSRMatrix b = CSRMatrix::from_triplets(2, 2, {{0, 1, 1.0}});
  const CSRMatrix c = a.add(b, 2.0);
  const Vector y = c.multiply(Vector{0.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(CSRMatrix, FrobeniusNorm) {
  const CSRMatrix m = CSRMatrix::from_triplets(2, 2, {{0, 0, 3.0}, {1, 1, 4.0}});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

}  // namespace
}  // namespace spar::linalg
