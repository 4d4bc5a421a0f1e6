#include "linalg/laplacian.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::linalg {

namespace {
namespace par = support::par;
}  // namespace

CSRMatrix laplacian_matrix(const graph::Graph& g) {
  std::vector<Triplet> t;
  t.reserve(4 * g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    t.push_back({e.u, e.v, -e.w});
    t.push_back({e.v, e.u, -e.w});
    t.push_back({e.u, e.u, e.w});
    t.push_back({e.v, e.v, e.w});
  }
  return CSRMatrix::from_triplets(g.num_vertices(), g.num_vertices(), std::move(t),
                                  /*drop_zeros=*/false);
}

Vector degree_vector(const graph::Graph& g) {
  Vector d(g.num_vertices(), 0.0);
  for (const graph::Edge& e : g.edges()) {
    d[e.u] += e.w;
    d[e.v] += e.w;
  }
  return d;
}

CSRMatrix adjacency_matrix(const graph::Graph& g) {
  std::vector<Triplet> t;
  t.reserve(2 * g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    t.push_back({e.u, e.v, e.w});
    t.push_back({e.v, e.u, e.w});
  }
  return CSRMatrix::from_triplets(g.num_vertices(), g.num_vertices(), std::move(t),
                                  /*drop_zeros=*/false);
}

LaplacianOperator::LaplacianOperator(const graph::Graph& g)
    : offsets_(static_cast<std::size_t>(g.num_vertices()) + 1, 0) {
  // Stable counting sort of the arcs by endpoint: degree count, prefix sum,
  // then a fill in edge-id order, which is the order apply() adds them in.
  const auto edges = g.edges();
  for (const graph::Edge& e : edges) {
    ++offsets_[std::size_t{e.u} + 1];
    ++offsets_[std::size_t{e.v} + 1];
  }
  for (std::size_t r = 1; r < offsets_.size(); ++r) offsets_[r] += offsets_[r - 1];
  other_.resize(offsets_.back());
  weight_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const graph::Edge& e : edges) {
    const std::size_t at_u = cursor[e.u]++;
    other_[at_u] = e.v;
    weight_[at_u] = e.w;
    const std::size_t at_v = cursor[e.v]++;
    other_[at_v] = e.u;
    weight_[at_v] = e.w;
  }
}

void LaplacianOperator::apply(std::span<const double> x, std::span<double> y) const {
  SPAR_CHECK(x.size() == dimension() && y.size() == dimension(),
             "LaplacianOperator::apply: size mismatch");
  // Row r adds the terms an edge-order scatter adds to y[r], in the same
  // order and from the same 0.0, so the bits equal the scatter's (DESIGN.md
  // section 3). Rows are independent: no atomics, no serial phase, no
  // dependence on the thread count. A chunk holds about kChunkArcs arcs;
  // small graphs run as one serial chunk.
  constexpr std::size_t kChunkArcs = std::size_t{1} << 14;
  const std::size_t n = dimension();
  const std::size_t rows_per_chunk = n * kChunkArcs / std::max<std::size_t>(other_.size(), 1);
  par::parallel_chunks(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t rb, std::int64_t re, std::int64_t /*chunk*/, int /*worker*/) {
        for (std::int64_t r = rb; r < re; ++r) {
          const double xr = x[r];
          double sum = 0.0;
          for (std::size_t k = offsets_[r]; k < offsets_[r + 1]; ++k)
            sum += weight_[k] * (xr - x[other_[k]]);
          y[r] = sum;
        }
      },
      {.grain = static_cast<std::int64_t>(std::max<std::size_t>(rows_per_chunk, 1))});
}

Vector LaplacianOperator::apply(std::span<const double> x) const {
  Vector y(dimension());
  apply(x, y);
  return y;
}

double laplacian_quadratic_form(const graph::Graph& g, std::span<const double> x) {
  SPAR_CHECK(x.size() == g.num_vertices(), "quadratic_form: size mismatch");
  const auto edges = g.edges();
  return par::parallel_sum(
      0, static_cast<std::int64_t>(edges.size()),
      [&](std::int64_t i) {
        const graph::Edge& e = edges[i];
        const double d = x[e.u] - x[e.v];
        return e.w * d * d;
      },
      {.enable = edges.size() > (1u << 15)});
}

}  // namespace spar::linalg
