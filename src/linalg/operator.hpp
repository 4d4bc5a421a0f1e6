// Matrix-free symmetric linear operator abstractions shared by the iterative
// solvers and eigenvalue estimators: single-vector (LinearOperator) and
// column-blocked multi-RHS (BlockOperator).
#pragma once

#include <functional>
#include <span>

#include "linalg/multivector.hpp"

namespace spar::linalg {

struct LinearOperator {
  std::size_t dim = 0;
  /// y = A x. Must be linear and (for CG / Lanczos users) symmetric PSD.
  std::function<void(std::span<const double>, std::span<double>)> apply;
};

/// Blocked operator: applies A to every column of a MultiVector in one call,
/// so implementations can traverse their sparse structure once for all
/// columns. The per-column result must be bit-identical to applying the
/// equivalent LinearOperator to that column alone -- the blocked solvers'
/// determinism contract rests on it.
struct BlockOperator {
  std::size_t dim = 0;
  /// Y = A X, column by column; X and Y have `dim` rows and equal width.
  std::function<void(const MultiVector&, MultiVector&)> apply;
};

/// A BlockOperator that applies `op` to each column in turn (the fallback
/// for operators without a native blocked kernel; per-column bit-identity is
/// trivial). A width-1 block is one contiguous column and goes to `op`
/// without a copy.
BlockOperator column_block_operator(const LinearOperator& op);

}  // namespace spar::linalg
