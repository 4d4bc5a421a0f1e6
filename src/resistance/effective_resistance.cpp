#include "resistance/effective_resistance.hpp"

#include <algorithm>
#include <cmath>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "linalg/cg.hpp"
#include "linalg/laplacian.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::resistance {

using graph::Graph;
using graph::Vertex;
using linalg::DenseMatrix;
using linalg::Vector;

namespace {

// Each probe's Laplacian solve: relative residual target and iteration cap.
constexpr double kCgTolerance = 1e-7;
constexpr std::size_t kCgMaxIterations = 4000;

}  // namespace

DenseMatrix laplacian_pinv(const Graph& g) {
  SPAR_CHECK(graph::is_connected(graph::CSRGraph(g)),
             "laplacian_pinv: graph must be connected");
  const DenseMatrix dense = DenseMatrix::from_csr(linalg::laplacian_matrix(g));
  return linalg::symmetric_pinv(dense);
}

Vector exact_effective_resistances(const Graph& g) {
  const DenseMatrix pinv = laplacian_pinv(g);
  const auto edges = g.edges();
  Vector r(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Vertex u = edges[i].u;
    const Vertex v = edges[i].v;
    r[i] = pinv.at(u, u) - 2.0 * pinv.at(u, v) + pinv.at(v, v);
  }
  return r;
}

double exact_effective_resistance(const Graph& g, Vertex u, Vertex v) {
  SPAR_CHECK(u < g.num_vertices() && v < g.num_vertices(),
             "exact_effective_resistance: vertex out of range");
  const DenseMatrix pinv = laplacian_pinv(g);
  return pinv.at(u, u) - 2.0 * pinv.at(u, v) + pinv.at(v, v);
}

Vector approx_effective_resistances(const Graph& g,
                                    const ApproxResistanceOptions& options) {
  const std::size_t n = g.num_vertices();
  const auto edges = g.edges();
  SPAR_CHECK(n >= 2, "approx_effective_resistances: need at least 2 vertices");

  const std::size_t probes =
      options.num_probes != 0
          ? options.num_probes
          : static_cast<std::size_t>(std::ceil(
                8.0 * std::log(static_cast<double>(n)) /
                (options.epsilon * options.epsilon)));
  const std::size_t block_size = options.block_size != 0 ? options.block_size : 16;

  // The JL sketch is an inherently multi-RHS workload: every probe is one
  // Laplacian solve against the same operator. Solving them in blocks through
  // blocked CG streams the Laplacian once per iteration for the whole block
  // instead of once per probe. The explicit CSR form feeds the blocked
  // kernel; row accumulation is deterministic, so the sketch is bit-identical
  // across thread counts AND across block sizes (each probe's solve is the
  // same column recurrence wherever it lands).
  const linalg::CSRMatrix lap = linalg::laplacian_matrix(g);
  const linalg::BlockOperator op{
      n, [&lap](const linalg::MultiVector& x, linalg::MultiVector& y) {
        lap.multiply(x, y);
      }};

  // R_e ~ sum_i (z_i[u] - z_i[v])^2 where z_i = pinv(L) B^T W^{1/2} q_i and
  // q_i has +-1/sqrt(probes) entries, one per edge.
  Vector r(edges.size(), 0.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(probes));
  for (std::size_t base = 0; base < probes; base += block_size) {
    const std::size_t width = std::min(block_size, probes - base);
    linalg::MultiVector rhs(n, width, 0.0), z(n, width, 0.0);
    // rhs_j = B^T W^{1/2} q_{base+j}: accumulate +-sqrt(w_e) at the
    // endpoints. Columns are independent, so they fill in parallel; each
    // column's serial edge loop keeps its accumulation order fixed.
    support::par::parallel_for(
        0, static_cast<std::int64_t>(width),
        [&](std::int64_t jj) {
          const std::size_t j = static_cast<std::size_t>(jj);
          const std::size_t probe = base + j;
          for (std::size_t eidx = 0; eidx < edges.size(); ++eidx) {
            const double sign =
                support::stream_uniform(options.seed,
                                        support::mix64(probe, eidx)) < 0.5
                    ? -1.0
                    : 1.0;
            const double val = sign * scale * std::sqrt(edges[eidx].w);
            rhs.at(edges[eidx].u, j) += val;
            rhs.at(edges[eidx].v, j) -= val;
          }
        },
        {.enable = width > 1});
    linalg::CGOptions cg;
    cg.tolerance = kCgTolerance;
    cg.max_iterations = kCgMaxIterations;
    cg.project_constant = true;
    linalg::blocked_conjugate_gradient(op, rhs, z, cg);
    // Accumulate in ascending probe order (the block loop preserves it), so
    // the sum over probes is order-stable for any block size.
    for (std::size_t j = 0; j < width; ++j) {
      support::par::parallel_for(
          0, static_cast<std::int64_t>(edges.size()),
          [&](std::int64_t eidx) {
            const double d = z.at(edges[eidx].u, j) - z.at(edges[eidx].v, j);
            r[eidx] += d * d;
          },
          {.enable = edges.size() > (1u << 15)});
    }
  }
  return r;
}

Vector leverage_scores(const Graph& g, const Vector& resistances) {
  SPAR_CHECK(resistances.size() == g.num_edges(), "leverage_scores: size mismatch");
  const auto edges = g.edges();
  Vector lev(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) lev[i] = edges[i].w * resistances[i];
  return lev;
}

}  // namespace spar::resistance
