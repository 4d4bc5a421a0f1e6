#include "solver/chain.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/chebyshev.hpp"
#include "linalg/eigen_iterative.hpp"
#include "solver/squaring.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::solver {

using linalg::Vector;

InverseChain::InverseChain(SDDMatrix m, const ChainOptions& options) {
  tail_ = options.tail;
  jacobi_steps_ = options.last_level_jacobi_steps;
  chebyshev_steps_ = options.last_level_chebyshev_steps;
  project_constant_ = m.is_singular();

  SDDMatrix current = std::move(m);
  for (std::size_t level = 0; level < options.max_levels; ++level) {
    ChainLevelInfo info;
    info.edges = current.graph_part().num_edges();
    info.gamma = adjacency_dominance(current);

    Level stored;
    stored.matrix = current;
    stored.adjacency = current.adjacency_csr();
    const Vector& d = current.diagonal();
    stored.inv_diagonal.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      SPAR_CHECK(d[i] > 0.0, "InverseChain: zero diagonal");
      stored.inv_diagonal[i] = 1.0 / d[i];
    }
    levels_.push_back(std::move(stored));
    info_.push_back(info);

    // Termination: Jacobi handles the rest once off-diagonal mass is small.
    // Singular Laplacians keep gamma == 1 (the nullspace direction never
    // decays), so they terminate by max_levels / saturation instead; the
    // chain is then used as a PCG preconditioner with constant projection.
    if (info.gamma <= options.gamma_stop) break;
    if (current.graph_part().num_edges() == 0) break;

    // Pick the squaring path BEFORE committing product memory: the symbolic
    // fill projection is O(nnz) and is what both the guard and auto mode act
    // on. kStreamed needs no projection (square_streamed plans its own).
    std::size_t projected = 0;
    bool use_streamed = options.squaring == SquaringMode::kStreamed;
    if (options.squaring == SquaringMode::kAuto ||
        (options.squaring == SquaringMode::kDense && options.max_level_fill > 0)) {
      projected = projected_square_fill(current);
    }
    if (options.squaring == SquaringMode::kAuto) {
      std::size_t limit = options.streamed_fill_threshold;
      if (options.max_level_fill > 0) limit = std::min(limit, options.max_level_fill);
      use_streamed = projected > limit;
    } else if (options.squaring == SquaringMode::kDense &&
               options.max_level_fill > 0 && projected > options.max_level_fill) {
      throw spar::Error(
          "InverseChain: level " + std::to_string(level) + " square projects " +
          std::to_string(projected) + " product entries, over the max_level_fill "
          "budget of " + std::to_string(options.max_level_fill) +
          "; raise the budget or set ChainOptions::squaring = kStreamed/kAuto "
          "to build this level in bounded memory");
    }

    SquaringStats sq_stats;
    SDDMatrix squared;
    if (use_streamed) {
      // Fused sparsify-during-squaring: the tower spends this level's whole
      // eps budget internally (split across its passes), so the result is a
      // certified (1 +- level_epsilon) sparsifier of the exact square -- the
      // same contract as the dense square + posthoc sparsify below, without
      // the product ever being resident. No second sparsify pass follows.
      StreamedSquareOptions sqopt;
      sqopt.epsilon = options.level_epsilon;
      sqopt.rho = options.rho;
      sqopt.t = options.t;
      sqopt.seed = support::mix64(options.seed, level + 1);
      sqopt.batch_edges = options.stream_batch_edges;
      sqopt.max_resident_levels = options.stream_max_resident_levels;
      sqopt.block_fill_edges = options.stream_block_fill_edges;
      sqopt.work = options.work;
      squared = square_streamed(current, sqopt, &sq_stats);
    } else {
      squared = square(current, &sq_stats);
    }
    info_.back().edges_after_square = sq_stats.output_edges;
    info_.back().projected_fill = use_streamed ? sq_stats.projected_fill : projected;
    info_.back().streamed_square = use_streamed;
    info_.back().peak_resident_edges = sq_stats.peak_resident_edges;
    info_.back().sparsify_passes = sq_stats.sparsify_passes;
    info_.back().epsilon_budget_used = sq_stats.epsilon_budget_used;

    // Section 4: bring the level back toward its original size whenever it
    // exceeds the threshold of applicability m' = edge_factor * n. Streamed
    // levels come out of the tower already sparsified at this level's budget.
    const auto threshold = static_cast<std::size_t>(
        options.edge_factor * static_cast<double>(squared.dimension()));
    if (!use_streamed && squared.graph_part().num_edges() > threshold) {
      sparsify::SparsifyOptions spopt;
      spopt.epsilon = options.level_epsilon;
      spopt.rho = options.rho;
      spopt.t = options.t;
      spopt.seed = support::mix64(options.seed, level + 1);
      spopt.work = options.work;
      auto sparsified = sparsify::parallel_sparsify(squared.graph_part(), spopt);
      squared = SDDMatrix(std::move(sparsified.sparsifier),
                          Vector(squared.slack()));
    }
    current = std::move(squared);
  }

  if (tail_ == TailSmoother::kChebyshev) {
    // Spectral bounds of the last level for the Chebyshev tail. Ritz values
    // converge from inside, so pad: /4 below (must be a true lower bound for
    // every mode to be damped), *1.05 above.
    const SDDMatrix& last = levels_.back().matrix;
    const linalg::LinearOperator op{
        last.dimension(), [&last](std::span<const double> in, std::span<double> out) {
          last.apply(in, out);
        }};
    const auto ritz = linalg::lanczos_extreme(op, support::mix64(options.seed, 0xc4ebULL),
                                              60, project_constant_);
    tail_lambda_min_ = std::max(ritz.min_eigenvalue / 4.0, 1e-12);
    tail_lambda_max_ = ritz.max_eigenvalue * 1.05;
  }
}

std::size_t InverseChain::total_nnz() const {
  std::size_t total = 0;
  for (const Level& level : levels_) total += level.matrix.nnz();
  return total;
}

void InverseChain::apply_level(std::size_t level, std::span<const double> b,
                               std::span<double> y) const {
  const Level& lvl = levels_[level];
  const std::size_t n = b.size();

  if (level + 1 == levels_.size()) {
    apply_tail(b, y);
    return;
  }

  // u = (I + A D^{-1}) b
  Vector scaled(n), u(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = lvl.inv_diagonal[i] * b[i];
  lvl.adjacency.multiply(scaled, u);
  for (std::size_t i = 0; i < n; ++i) u[i] += b[i];

  // v = M_{i+1}^{-1} u
  Vector v(n);
  apply_level(level + 1, u, v);

  // y = 1/2 (D^{-1} b + v + D^{-1} A v)
  Vector av(n);
  lvl.adjacency.multiply(v, av);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = 0.5 * (lvl.inv_diagonal[i] * b[i] + v[i] + lvl.inv_diagonal[i] * av[i]);
  if (project_constant_) linalg::remove_mean(y);
}

void InverseChain::apply_tail(std::span<const double> b, std::span<double> y) const {
  const Level& lvl = levels_.back();
  const std::size_t n = b.size();
  // The tail computes M x as d o x - A x from the stored adjacency CSR and
  // diagonal (one CSR traversal per application) rather than going through
  // SDDMatrix::apply. The blocked tail uses the same formulation with the
  // blocked CSR kernel, so single and blocked columns stay bit-identical
  // while both get the cache-friendly traversal.
  const Vector& d = lvl.matrix.diagonal();

  if (tail_ == TailSmoother::kChebyshev) {
    const linalg::LinearOperator op{
        n, [&lvl, &d](std::span<const double> in, std::span<double> out) {
          lvl.adjacency.multiply(in, out);
          for (std::size_t i = 0; i < in.size(); ++i) out[i] = d[i] * in[i] - out[i];
        }};
    Vector x(n, 0.0);
    linalg::ChebyshevOptions copt;
    copt.lambda_min = tail_lambda_min_;
    copt.lambda_max = tail_lambda_max_;
    copt.iterations = chebyshev_steps_;
    copt.project_constant = project_constant_;
    linalg::chebyshev_solve(op, b, x, copt);
    if (project_constant_) linalg::remove_mean(x);
    linalg::copy(x, y);
    return;
  }

  // Damped Jacobi on M x = b starting from x = D^{-1} b:
  //   x <- x + D^{-1}(b - M x)
  Vector x(n), ax(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = lvl.inv_diagonal[i] * b[i];
  for (std::size_t step = 0; step < jacobi_steps_; ++step) {
    lvl.adjacency.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i)
      x[i] += lvl.inv_diagonal[i] * (b[i] - (d[i] * x[i] - ax[i]));
  }
  if (project_constant_) linalg::remove_mean(x);
  linalg::copy(x, y);
}

void InverseChain::apply_level_multi(std::size_t level, const linalg::MultiVector& b,
                                     linalg::MultiVector& y) const {
  const Level& lvl = levels_[level];
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();

  if (level + 1 == levels_.size()) {
    apply_tail_multi(b, y);
    return;
  }

  // u = (I + A D^{-1}) b, with the A-multiply blocked across all k columns
  // (elementwise sweeps go i-outer, j-inner: one contiguous pass over the
  // interleaved block; per column the arithmetic is apply_level's exactly).
  linalg::MultiVector u(n, k);
  {
    linalg::MultiVector scaled(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
      for (std::size_t j = 0; j < k; ++j) scaled.at(i, j) = inv_d * b.at(i, j);
    }
    lvl.adjacency.multiply(scaled, u);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) u.at(i, j) += b.at(i, j);

  // v = M_{i+1}^{-1} u
  linalg::MultiVector v(n, k);
  apply_level_multi(level + 1, u, v);

  // y = 1/2 (D^{-1} b + v + D^{-1} A v); u is dead, reuse it for A v.
  linalg::MultiVector& av = u;
  lvl.adjacency.multiply(v, av);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
    for (std::size_t j = 0; j < k; ++j)
      y.at(i, j) = 0.5 * (inv_d * b.at(i, j) + v.at(i, j) + inv_d * av.at(i, j));
  }
  if (project_constant_) linalg::remove_mean_columns(y);
}

void InverseChain::apply_tail_multi(const linalg::MultiVector& b,
                                    linalg::MultiVector& y) const {
  const Level& lvl = levels_.back();
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  const Vector& d = lvl.matrix.diagonal();

  if (tail_ == TailSmoother::kChebyshev) {
    const linalg::BlockOperator op{
        n, [&lvl, &d](const linalg::MultiVector& in, linalg::MultiVector& out) {
          lvl.adjacency.multiply(in, out);
          for (std::size_t i = 0; i < in.rows(); ++i) {
            const double di = d[i];
            for (std::size_t j = 0; j < in.cols(); ++j)
              out.at(i, j) = di * in.at(i, j) - out.at(i, j);
          }
        }};
    linalg::MultiVector x(n, k, 0.0);
    linalg::ChebyshevOptions copt;
    copt.lambda_min = tail_lambda_min_;
    copt.lambda_max = tail_lambda_max_;
    copt.iterations = chebyshev_steps_;
    copt.project_constant = project_constant_;
    linalg::chebyshev_solve(op, b, x, copt);
    if (project_constant_) linalg::remove_mean_columns(x);
    linalg::copy(x.data(), y.data());
    return;
  }

  // Damped Jacobi, blocked: one adjacency traversal per sweep serves all k
  // columns; the per-entry update replicates apply_tail's expression exactly.
  linalg::MultiVector x(n, k), ax(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
    for (std::size_t j = 0; j < k; ++j) x.at(i, j) = inv_d * b.at(i, j);
  }
  for (std::size_t step = 0; step < jacobi_steps_; ++step) {
    lvl.adjacency.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
      const double di = d[i];
      for (std::size_t j = 0; j < k; ++j)
        x.at(i, j) += inv_d * (b.at(i, j) - (di * x.at(i, j) - ax.at(i, j)));
    }
  }
  if (project_constant_) linalg::remove_mean_columns(x);
  linalg::copy(x.data(), y.data());
}

void InverseChain::apply(std::span<const double> b, std::span<double> y) const {
  SPAR_CHECK(b.size() == dimension() && y.size() == dimension(),
             "InverseChain::apply: size mismatch");
  apply_level(0, b, y);
}

void InverseChain::apply(const linalg::MultiVector& b, linalg::MultiVector& y) const {
  SPAR_CHECK(b.rows() == dimension() && y.rows() == dimension() &&
                 b.cols() == y.cols(),
             "InverseChain::apply: block shape mismatch");
  if (b.cols() == 0) return;
  apply_level_multi(0, b, y);
}

linalg::LinearOperator InverseChain::as_operator() const {
  return {dimension(), [this](std::span<const double> b, std::span<double> y) {
            apply(b, y);
          }};
}

linalg::BlockOperator InverseChain::as_block_operator() const {
  return {dimension(), [this](const linalg::MultiVector& b, linalg::MultiVector& y) {
            apply(b, y);
          }};
}

}  // namespace spar::solver
