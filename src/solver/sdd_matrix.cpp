#include "solver/sdd_matrix.hpp"

#include <mutex>
#include <optional>

#include "linalg/laplacian.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::solver {

using graph::Graph;
using linalg::CSRMatrix;
using linalg::Vector;

struct SDDMatrix::LazyLaplacian {
  std::once_flag built;
  std::optional<linalg::LaplacianOperator> op;
};

SDDMatrix::SDDMatrix() : laplacian_(std::make_shared<LazyLaplacian>()) {}

SDDMatrix::SDDMatrix(Graph laplacian_part)
    : SDDMatrix(std::move(laplacian_part), Vector{}) {}

SDDMatrix::SDDMatrix(Graph laplacian_part, Vector slack)
    : graph_(std::move(laplacian_part)),
      slack_(std::move(slack)),
      laplacian_(std::make_shared<LazyLaplacian>()) {
  if (slack_.empty()) slack_.assign(graph_.num_vertices(), 0.0);
  SPAR_CHECK(slack_.size() == graph_.num_vertices(), "SDDMatrix: slack size mismatch");
  for (double s : slack_) SPAR_CHECK(s >= 0.0, "SDDMatrix: slack must be nonnegative");
  diagonal_ = linalg::degree_vector(graph_);
  for (std::size_t i = 0; i < diagonal_.size(); ++i) diagonal_[i] += slack_[i];
}

bool SDDMatrix::is_singular() const {
  for (double s : slack_)
    if (s > 0.0) return false;
  return true;
}

void SDDMatrix::apply(std::span<const double> x, std::span<double> y) const {
  SPAR_CHECK(x.size() == dimension() && y.size() == dimension(),
             "SDDMatrix::apply: size mismatch");
  std::call_once(laplacian_->built, [this] { laplacian_->op.emplace(graph_); });
  laplacian_->op->apply(x, y);
  const auto n = static_cast<std::int64_t>(dimension());
  support::par::parallel_for(
      0, n, [&](std::int64_t i) { y[i] += slack_[i] * x[i]; },
      {.enable = n > (1 << 14)});
}

Vector SDDMatrix::apply(std::span<const double> x) const {
  Vector y(dimension());
  apply(x, y);
  return y;
}

void SDDMatrix::apply(const linalg::MultiVector& x, linalg::MultiVector& y) const {
  SPAR_CHECK(x.rows() == dimension() && y.rows() == dimension() &&
                 x.cols() == y.cols(),
             "SDDMatrix::apply: block shape mismatch");
  // Columns round trip through contiguous buffers and the scalar apply(), so
  // per-column results are bit-identical to single-vector applies (the
  // blocked-solve determinism contract). This is NOT the hot path of a
  // batched solve -- the chain preconditioner dominates -- so the gather /
  // scatter cost is acceptable.
  linalg::column_block_operator(as_operator()).apply(x, y);
}

linalg::LinearOperator SDDMatrix::as_operator() const {
  return {dimension(), [this](std::span<const double> x, std::span<double> y) {
            apply(x, y);
          }};
}

linalg::BlockOperator SDDMatrix::as_block_operator() const {
  return linalg::column_block_operator(as_operator());
}

double SDDMatrix::quadratic_form(std::span<const double> x) const {
  double q = linalg::laplacian_quadratic_form(graph_, x);
  for (std::size_t i = 0; i < dimension(); ++i) q += slack_[i] * x[i] * x[i];
  return q;
}

CSRMatrix SDDMatrix::adjacency_csr() const { return linalg::adjacency_matrix(graph_); }

CSRMatrix SDDMatrix::to_csr() const {
  CSRMatrix lap = linalg::laplacian_matrix(graph_);
  return lap.add(CSRMatrix::diagonal(slack_));
}

}  // namespace spar::solver
