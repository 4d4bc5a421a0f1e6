#include "solver/chain.hpp"

#include <algorithm>
#include <limits>

#include "linalg/cg.hpp"
#include "solver/squaring.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::solver {

using linalg::Vector;

namespace {

// Stop once adjacency dominance gamma = max_i rowsum(A)/D drops to this:
// Jacobi converges at rate gamma on the last level.
constexpr double kGammaStop = 0.25;
// Sparsify a squared level only when its graph part has more than
// kEdgeFactor * n edges (the "threshold of applicability" m').
constexpr double kEdgeFactor = 4.0;
// Damped Jacobi sweeps that solve the last level, where gamma is small
// enough that a few sweeps handle the remaining system.
constexpr std::size_t kLastLevelJacobiSteps = 12;
// Depth probe: one PCG solve of a seeded normal right-hand side to this
// relative residual, preconditioned by the chain built so far.
constexpr double kProbeTolerance = 1e-6;
constexpr std::uint64_t kProbeSeed = 0x9e3779b97f4a7c15ULL;

}  // namespace

InverseChain::InverseChain(SDDMatrix m, const ChainOptions& options) {
  SPAR_CHECK(options.max_levels >= 1,
             "InverseChain: ChainOptions::max_levels must be >= 1 (got 0)");
  project_constant_ = m.is_singular();
  double best_work = std::numeric_limits<double>::infinity();

  SDDMatrix current = std::move(m);
  for (std::size_t level = 0; level < options.max_levels; ++level) {
    ChainLevelInfo info;
    info.edges = current.graph_part().num_edges();
    info.gamma = adjacency_dominance(current);

    Level stored;
    stored.diagonal = current.diagonal();
    stored.adjacency = current.adjacency_csr();
    const Vector& d = stored.diagonal;
    stored.inv_diagonal.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      SPAR_CHECK(d[i] > 0.0, "InverseChain: zero diagonal");
      stored.inv_diagonal[i] = 1.0 / d[i];
    }
    levels_.push_back(std::move(stored));
    info_.push_back(info);

    // A level that does not lower the probe's work goes; the square that made
    // it stays recorded on the previous level, the tail again.
    if (!probe_lowers_work(best_work)) {
      levels_.pop_back();
      info_.pop_back();
      break;
    }

    // Jacobi handles the rest once off-diagonal mass is small (never on
    // Laplacians, whose gamma stays 1).
    if (info.gamma <= kGammaStop) break;
    if (current.graph_part().num_edges() == 0) break;
    // The last level never squares: its square would be dropped.
    if (level + 1 == options.max_levels) break;

    SDDMatrix squared = square(current);
    info_.back().edges_after_square = squared.graph_part().num_edges();

    // Section 4: bring the level back toward its original size whenever it
    // exceeds the threshold of applicability m' = kEdgeFactor * n.
    const auto threshold = static_cast<std::size_t>(
        kEdgeFactor * static_cast<double>(squared.dimension()));
    if (squared.graph_part().num_edges() > threshold) {
      sparsify::SparsifyOptions spopt;
      spopt.epsilon = options.level_epsilon;
      spopt.rho = options.rho;
      spopt.t = options.t;
      spopt.seed = support::mix64(options.seed, level + 1);
      auto sparsified = sparsify::parallel_sparsify(squared.graph_part(), spopt);
      squared = SDDMatrix(std::move(sparsified.sparsifier),
                          Vector(squared.slack()));
    }
    // A square that isolates a vertex leaves it a zero diagonal, which no
    // level can invert (K2, short paths): the current level stays the tail.
    if (std::ranges::any_of(squared.diagonal(), [](double di) { return di <= 0.0; })) break;
    current = std::move(squared);
  }
}

bool InverseChain::probe_lowers_work(double& best_work) {
  // A PCG iteration reads M once, each inner level's adjacency twice and the
  // tail's kLastLevelJacobiSteps times, at 2 * edges + n entries a sweep.
  const std::size_t n = dimension();
  double per_iteration = 0.0;
  for (std::size_t i = 0; i < info_.size(); ++i) {
    const std::size_t sweeps = (i == 0) + (i + 1 < info_.size() ? 2 : kLastLevelJacobiSteps);
    per_iteration += static_cast<double>(sweeps * (2 * info_[i].edges + n));
  }
  linalg::CGOptions cg;
  cg.tolerance = kProbeTolerance;
  cg.project_constant = project_constant_;  // keeps the rhs mean-free
  // A probe that reaches the best work so far has already lost.
  if (best_work < static_cast<double>(cg.max_iterations) * per_iteration)
    cg.max_iterations = static_cast<std::size_t>(best_work / per_iteration);
  const linalg::BlockOperator m_op{  // M = D - A from level 0's stored D and A
      n, [&top = levels_.front()](const linalg::MultiVector& x, linalg::MultiVector& y) {
        top.adjacency.multiply(x, y);
        for (std::size_t e = 0; e < y.data().size(); ++e)
          y.data()[e] = top.diagonal[e / x.cols()] * x.data()[e] - y.data()[e];
      }};
  linalg::MultiVector rhs(n, 1), x(n, 1, 0.0);
  support::Rng rng(kProbeSeed);
  for (double& v : rhs.data()) v = rng.normal();
  const linalg::BlockCGReport report = linalg::blocked_pcg(m_op, as_block_operator(), rhs, x, cg);
  ChainLevelInfo& info = info_.back();
  info.probe_iterations = report.iterations;
  info.probe_work = static_cast<double>(report.iterations) * per_iteration;
  if (info_.size() > 1 && !(report.all_converged() && info.probe_work < best_work)) return false;
  best_work = info.probe_work;
  return true;
}

std::size_t InverseChain::total_nnz() const {
  // Two entries per edge plus the diagonal, as SDDMatrix::nnz() counts them.
  std::size_t total = 0;
  for (const ChainLevelInfo& info : info_) total += 2 * info.edges + dimension();
  return total;
}

template <typename Width>
void InverseChain::apply_level(Width width, std::size_t level,
                               const linalg::MultiVector& b,
                               linalg::MultiVector& y) const {
  if (level + 1 == levels_.size()) {
    apply_tail(width, b, y);
    return;
  }
  const Level& lvl = levels_[level];
  const std::size_t n = b.rows();
  const std::size_t k = width.value;
  const double* pb = b.data().data();

  // u = (I + A D^{-1}) b, with the A-multiply blocked across all k columns
  // (elementwise sweeps go i-outer, j-inner: one contiguous pass over the
  // interleaved block).
  linalg::MultiVector u(n, k);
  {
    linalg::MultiVector scaled(n, k);
    double* ps = scaled.data().data();
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
#pragma GCC unroll 1  // see linalg::masked_sweep
      for (std::size_t j = 0; j < k; ++j) ps[i * k + j] = inv_d * pb[i * k + j];
    }
    lvl.adjacency.multiply(scaled, u);
  }
  double* pu = u.data().data();
  for (std::size_t e = 0; e < n * k; ++e) pu[e] += pb[e];

  // v = M_{i+1}^{-1} u
  linalg::MultiVector v(n, k);
  apply_level(width, level + 1, u, v);

  // y = 1/2 (D^{-1} b + v + D^{-1} A v); u is dead, reuse it for A v.
  linalg::MultiVector& av = u;
  lvl.adjacency.multiply(v, av);
  const double* pv = v.data().data();
  double* py = y.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
#pragma GCC unroll 1
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t e = i * k + j;
      py[e] = 0.5 * (inv_d * pb[e] + pv[e] + inv_d * pu[e]);
    }
  }
  if (project_constant_) linalg::remove_mean_columns(y);
}

template <typename Width>
void InverseChain::apply_tail(Width width, const linalg::MultiVector& b,
                              linalg::MultiVector& y) const {
  const Level& lvl = levels_.back();
  const std::size_t n = b.rows();
  const std::size_t k = width.value;
  const double* pb = b.data().data();
  // The tail computes M x as d o x - A x from the stored adjacency CSR and
  // diagonal: one CSR traversal per sweep serves all k columns, which
  // SDDMatrix::apply (column by column) would not.
  const Vector& d = lvl.diagonal;

  // Damped Jacobi on M x = b starting from x = D^{-1} b:
  //   x <- x + D^{-1}(b - M x)
  linalg::MultiVector x(n, k), ax(n, k);
  double* px = x.data().data();
  const double* pax = ax.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_d = lvl.inv_diagonal[i];
#pragma GCC unroll 1
    for (std::size_t j = 0; j < k; ++j) px[i * k + j] = inv_d * pb[i * k + j];
  }
  for (std::size_t step = 0; step < kLastLevelJacobiSteps; ++step) {
    lvl.adjacency.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_d = lvl.inv_diagonal[i];
      const double di = d[i];
#pragma GCC unroll 1
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t e = i * k + j;
        px[e] += inv_d * (pb[e] - (di * px[e] - pax[e]));
      }
    }
  }
  if (project_constant_) linalg::remove_mean_columns(x);
  linalg::copy(x.data(), y.data());
}

void InverseChain::apply(std::span<const double> b, std::span<double> y) const {
  SPAR_CHECK(b.size() == dimension() && y.size() == dimension(),
             "InverseChain::apply: size mismatch");
  linalg::MultiVector b1(b.size(), 1), y1(b.size(), 1);
  linalg::copy(b, b1.data());
  apply_level(linalg::FixedWidth<1>{}, 0, b1, y1);
  linalg::copy(y1.data(), y);
}

void InverseChain::apply(const linalg::MultiVector& b, linalg::MultiVector& y) const {
  SPAR_CHECK(b.rows() == dimension() && y.rows() == dimension() &&
                 b.cols() == y.cols(),
             "InverseChain::apply: block shape mismatch");
  if (b.cols() == 0) return;
  linalg::with_width(b.cols(), [&](auto width) { apply_level(width, 0, b, y); });
}

linalg::BlockOperator InverseChain::as_block_operator() const {
  return {dimension(), [this](const linalg::MultiVector& b, linalg::MultiVector& y) {
            apply(b, y);
          }};
}

}  // namespace spar::solver
