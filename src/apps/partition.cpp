#include "apps/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "linalg/dense.hpp"
#include "linalg/laplacian.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::apps {

using linalg::Vector;

namespace {

// Block width k of the inverse-power subspace. Width 2 separates lambda_2
// from lambda_3 via the Rayleigh-Ritz projection, which is what makes the
// iteration robust on near-degenerate spectra (grids).
constexpr std::size_t kBlock = 2;

// Modified Gram-Schmidt over a small set of long vectors. Serial over the
// O(k^2) pair loop; each dot/axpy is the chunk-ordered deterministic
// primitive, so the output basis is thread-count independent.
void orthonormalize(std::vector<Vector>& v) {
  for (std::size_t j = 0; j < v.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const double alpha = linalg::dot(v[i], v[j]);
      linalg::axpy(-alpha, v[i], v[j]);
    }
    const double nrm = linalg::norm2(v[j]);
    SPAR_CHECK(nrm > 0.0, "fiedler_vector: inverse-power block collapsed");
    linalg::scale(1.0 / nrm, v[j]);
  }
}

// Canonical sign: the first entry of largest magnitude is made positive, so
// the +-v ambiguity of an eigenvector never leaks into hashes or sweep cuts.
void sign_fix(Vector& v) {
  std::size_t arg = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (std::abs(v[i]) > std::abs(v[arg])) arg = i;
  if (v[arg] < 0.0)
    for (double& x : v) x = -x;
}

struct CutVolumes {
  double cut = 0.0;
  double vol_s = 0.0;
  double vol_rest = 0.0;
};

CutVolumes cut_volumes(const graph::Graph& g, const std::vector<bool>& side) {
  const auto edges = g.edges();
  return support::par::parallel_reduce(
      0, static_cast<std::int64_t>(edges.size()), CutVolumes{},
      [&](std::int64_t cb, std::int64_t ce) {
        CutVolumes acc;
        for (std::int64_t i = cb; i < ce; ++i) {
          const auto& e = edges[static_cast<std::size_t>(i)];
          const bool su = side[e.u];
          const bool sv = side[e.v];
          if (su != sv) acc.cut += e.w;
          (su ? acc.vol_s : acc.vol_rest) += e.w;
          (sv ? acc.vol_s : acc.vol_rest) += e.w;
        }
        return acc;
      },
      [](CutVolumes a, const CutVolumes& b) {
        a.cut += b.cut;
        a.vol_s += b.vol_s;
        a.vol_rest += b.vol_rest;
        return a;
      });
}

}  // namespace

FiedlerReport fiedler_vector(const solver::SDDMatrix& m,
                             const solver::InverseChain& chain,
                             const FiedlerOptions& options) {
  const std::size_t n = m.dimension();
  SPAR_CHECK(n >= 2, "fiedler_vector: need at least 2 vertices");
  SPAR_CHECK(m.is_singular(),
             "fiedler_vector: expected a pure graph Laplacian (no slack)");
  const std::size_t k = std::min(kBlock, n - 1);

  // Seeded mean-free starting block; per-column generators, serial fills.
  std::vector<Vector> v(k);
  for (std::size_t j = 0; j < k; ++j) {
    support::Rng rng(support::mix64(options.seed, 0xf1ed1e8ULL + j));
    v[j].resize(n);
    for (double& x : v[j]) x = rng.normal();
    linalg::remove_mean(v[j]);
  }
  orthonormalize(v);

  FiedlerReport report;
  report.chain_levels = chain.num_levels();
  report.chain_total_nnz = chain.total_nnz();
  Vector image(n);

  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    // One batched chain-PCG solve maps the whole block through L^+ (the
    // resident chain is reused across every iteration -- the amortization
    // the batched solver subsystem exists for).
    const solver::MultiSolveReport solve = solver::solve_sdd_multi(
        m, chain, linalg::MultiVector::from_columns(v), options.solve);
    for (std::size_t j = 0; j < k; ++j) {
      v[j] = solve.solutions.column_copy(j);
      // Deflation: re-project against the constant nullspace every step so
      // roundoff can never re-grow a component along 1.
      linalg::remove_mean(v[j]);
    }
    orthonormalize(v);

    // Dense Rayleigh-Ritz refinement of the k-dimensional subspace.
    linalg::DenseMatrix q(n, k), aq(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      linalg::copy(v[j], q.column(j));
      m.apply(v[j], image);
      linalg::copy(image, aq.column(j));
    }
    const linalg::RayleighRitz rr = linalg::rayleigh_ritz(q, aq);
    for (std::size_t j = 0; j < k; ++j) {
      const auto col = rr.basis.column(j);
      v[j].assign(col.begin(), col.end());
    }
    report.value = rr.values[0];
    report.value_next = k > 1 ? rr.values[1] : 0.0;
    report.iterations = iter;

    // Eigenresidual of the leading Ritz pair decides convergence.
    m.apply(v[0], image);
    linalg::axpy(-report.value, v[0], image);
    report.residual =
        linalg::norm2(image) / std::max(report.value * linalg::norm2(v[0]), 1e-300);
    if (report.residual <= options.tolerance) {
      report.converged = true;
      break;
    }
  }

  sign_fix(v[0]);
  report.vector = std::move(v[0]);
  return report;
}

FiedlerReport fiedler_vector(const graph::Graph& g, const FiedlerOptions& options) {
  SPAR_CHECK(graph::is_connected(graph::CSRGraph(g)),
             "fiedler_vector: graph must be connected");
  const solver::SDDMatrix m{graph::Graph(g)};
  const solver::InverseChain chain(m, options.solve.chain);
  return fiedler_vector(m, chain, options);
}

SweepCutResult sweep_cut(const graph::Graph& g, std::span<const double> score) {
  const std::size_t n = g.num_vertices();
  SPAR_CHECK(n >= 2, "sweep_cut: need at least 2 vertices");
  SPAR_CHECK(score.size() == n, "sweep_cut: score/vertex count mismatch");

  std::vector<graph::Vertex> order(n);
  std::iota(order.begin(), order.end(), graph::Vertex{0});
  std::sort(order.begin(), order.end(), [&](graph::Vertex a, graph::Vertex b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;  // total order: ties broken by vertex id
  });

  const graph::CSRGraph csr(g);
  const Vector deg = linalg::degree_vector(g);
  const double total_vol = 2.0 * g.total_weight();

  // Incremental prefix scan: moving v into S flips its arcs' cut status and
  // adds its weighted degree to vol(S). The scan order is fixed, so the
  // floating-point trajectory (and the argmin) is deterministic.
  std::vector<bool> in_s(n, false);
  double cut = 0.0, vol_s = 0.0;
  double best_phi = std::numeric_limits<double>::infinity();
  std::size_t best_prefix = 1;
  for (std::size_t pos = 0; pos + 1 < n; ++pos) {
    const graph::Vertex v = order[pos];
    for (const graph::Arc& arc : csr.neighbors(v))
      cut += in_s[arc.to] ? -arc.w : arc.w;
    in_s[v] = true;
    vol_s += deg[v];
    const double denom = std::min(vol_s, total_vol - vol_s);
    if (denom <= 0.0) continue;
    const double phi = cut / denom;
    if (phi < best_phi) {
      best_phi = phi;
      best_prefix = pos + 1;
    }
  }

  SweepCutResult result;
  result.side.assign(n, false);
  for (std::size_t pos = 0; pos < best_prefix; ++pos) result.side[order[pos]] = true;
  result.cut_size = best_prefix;
  // Report exact (recomputed) numbers for the chosen side; the incremental
  // values steered the argmin but carry accumulated cancellation.
  const CutVolumes cv = cut_volumes(g, result.side);
  result.cut_weight = cv.cut;
  result.volume_s = cv.vol_s;
  result.volume_rest = cv.vol_rest;
  const double denom = std::min(cv.vol_s, cv.vol_rest);
  result.conductance = denom > 0.0 ? cv.cut / denom : 1.0;
  return result;
}

double conductance(const graph::Graph& g, const std::vector<bool>& side) {
  SPAR_CHECK(side.size() == g.num_vertices(), "conductance: side/vertex mismatch");
  const CutVolumes cv = cut_volumes(g, side);
  const double denom = std::min(cv.vol_s, cv.vol_rest);
  return denom > 0.0 ? cv.cut / denom : 1.0;
}

PartitionReport spectral_partition(const graph::Graph& g, const solver::SDDMatrix& m,
                                   const solver::InverseChain& chain,
                                   const FiedlerOptions& options) {
  PartitionReport report;
  report.fiedler = fiedler_vector(m, chain, options);
  report.cut = sweep_cut(g, report.fiedler.vector);
  return report;
}

PartitionReport spectral_partition(const graph::Graph& g,
                                   const FiedlerOptions& options) {
  SPAR_CHECK(graph::is_connected(graph::CSRGraph(g)),
             "spectral_partition: graph must be connected");
  const solver::SDDMatrix m{graph::Graph(g)};
  const solver::InverseChain chain(m, options.solve.chain);
  return spectral_partition(g, m, chain, options);
}

}  // namespace spar::apps
