#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>

#include "support/parallel.hpp"

namespace spar::graph {

namespace par = support::par;

namespace {
CsrBuildPath g_build_path = CsrBuildPath::kAuto;

// Atomic-scatter crossover: the parallel build must touch at least this many
// edges per effective thread before the relaxed fetch_adds pay for
// themselves. Measured on the bench_io --csr=1 sweep (BENCH_pr3.json): below
// this the serial counting sort wins at every thread count.
constexpr std::size_t kMinEdgesPerThread = std::size_t{1} << 14;
}  // namespace

void set_csr_build_path(CsrBuildPath policy) noexcept { g_build_path = policy; }

CsrBuildPath csr_build_path() noexcept { return g_build_path; }

bool csr_parallel_build_enabled(std::size_t m) noexcept {
  if (m <= 1) return false;
  switch (g_build_path) {
    case CsrBuildPath::kSerial: return false;
    case CsrBuildPath::kParallel: return true;
    case CsrBuildPath::kAuto: break;
  }
  // A budget above the core count (a pool wider than the machine) is
  // oversubscription, not parallelism: gate on the smaller of the two.
  const int threads = std::min(par::max_threads(), par::hardware_threads());
  return threads > 1 && m >= kMinEdgesPerThread * static_cast<std::size_t>(threads);
}

template <typename EdgeAt>
void CSRGraph::rebuild_impl(Vertex n, std::size_t m, EdgeAt&& at) {
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  cursor_.assign(n, 0);

  // Degree count, prefix sum, scatter. The parallel path uses relaxed
  // atomic_ref increments on the reusable cursor buffer; the serial path
  // skips the atomics entirely and wins whenever there is too little work per
  // effective thread (csr_parallel_build_enabled). Either way the final
  // per-vertex sort below canonicalizes arc order, so the result is
  // bit-identical across paths and thread counts.
  const bool concurrent = csr_parallel_build_enabled(m);
  if (concurrent) {
    par::parallel_for(0, static_cast<std::int64_t>(m), [&](std::int64_t i) {
      const Edge e = at(static_cast<std::size_t>(i));
      std::atomic_ref<std::size_t>(cursor_[e.u]).fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::size_t>(cursor_[e.v]).fetch_add(1, std::memory_order_relaxed);
    });
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const Edge e = at(i);
      ++cursor_[e.u];
      ++cursor_[e.v];
    }
  }
  for (Vertex v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + cursor_[v];

  arcs_.resize(offsets_[n]);
  for (Vertex v = 0; v < n; ++v) cursor_[v] = offsets_[v];
  if (concurrent) {
    par::parallel_for(0, static_cast<std::int64_t>(m), [&](std::int64_t i) {
      const Edge e = at(static_cast<std::size_t>(i));
      const auto id = static_cast<EdgeId>(i);
      arcs_[std::atomic_ref<std::size_t>(cursor_[e.u])
                .fetch_add(1, std::memory_order_relaxed)] = {e.v, e.w, id};
      arcs_[std::atomic_ref<std::size_t>(cursor_[e.v])
                .fetch_add(1, std::memory_order_relaxed)] = {e.u, e.w, id};
    });
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const Edge e = at(i);
      const auto id = static_cast<EdgeId>(i);
      arcs_[cursor_[e.u]++] = {e.v, e.w, id};
      arcs_[cursor_[e.v]++] = {e.u, e.w, id};
    }
  }

  // Canonical per-vertex arc order (to, id): thread- and path-independent.
  par::parallel_chunks(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t vb, std::int64_t ve, std::int64_t /*chunk*/, int /*worker*/) {
        for (std::int64_t v = vb; v < ve; ++v) {
          std::sort(arcs_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
                    arcs_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]),
                    [](const Arc& a, const Arc& b) {
                      return a.to != b.to ? a.to < b.to : a.id < b.id;
                    });
        }
      },
      {.grain = 64});
}

void CSRGraph::rebuild(const Graph& g) {
  const auto edges = g.edges();
  rebuild_impl(g.num_vertices(), edges.size(),
               [&](std::size_t i) { return edges[i]; });
}

void CSRGraph::rebuild(const EdgeView& view) {
  rebuild_impl(view.num_vertices, view.size, [&](std::size_t i) {
    return Edge{view.u[i], view.v[i], view.w[i]};
  });
}

std::size_t CSRGraph::max_degree() const {
  std::size_t best = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace spar::graph
