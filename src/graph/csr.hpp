// Compressed sparse row adjacency view of an edge list. Construction is
// parallel (counting sort over endpoints). Each arc remembers the
// originating EdgeId so algorithms can mark edges (bundle membership, alive
// masks) on the parent edge list.
//
// The sparsification round loop rebuilds the adjacency every round from a
// shrinking edge set; rebuild() re-populates this object in place, reusing
// the offsets/arcs/cursor buffers, so steady-state rounds allocate nothing.
// Arcs of a vertex are sorted by (target, edge id), a canonical order that is
// independent of thread count and of which overload built the structure.
#pragma once

#include <span>
#include <vector>

#include "graph/edge_view.hpp"
#include "graph/graph.hpp"

namespace spar::graph {

/// Scatter-path policy for CSRGraph::rebuild. kAuto (the default) picks the
/// atomic-scatter parallel build only when it can win: enough edges per
/// effective thread (min of the thread budget and the hardware's cores) to
/// amortize the atomics. On a single core, or for small m, the serial path is
/// ~2.5x faster than paying for atomics nobody parallelizes (BENCH_pr2 /
/// BENCH_pr3 record the crossover). The forced modes exist for tests and the
/// bench_io crossover sweep; both paths produce bit-identical structures.
enum class CsrBuildPath { kAuto, kSerial, kParallel };

void set_csr_build_path(CsrBuildPath policy) noexcept;
CsrBuildPath csr_build_path() noexcept;

/// True when rebuild() would take the atomic-scatter path for m edges under
/// the current policy and thread budget.
bool csr_parallel_build_enabled(std::size_t m) noexcept;

struct Arc {
  Vertex to = 0;
  double w = 0.0;
  EdgeId id = kInvalidEdge;
};

class CSRGraph {
 public:
  CSRGraph() = default;
  explicit CSRGraph(const Graph& g) { rebuild(g); }
  explicit CSRGraph(const EdgeView& view) { rebuild(view); }

  /// Re-populate from an edge list, reusing internal buffers. The result is
  /// identical to constructing a fresh CSRGraph from the same edges.
  void rebuild(const Graph& g);
  void rebuild(const EdgeView& view);

  Vertex num_vertices() const { return static_cast<Vertex>(offsets_.size() - 1); }
  std::size_t num_arcs() const { return arcs_.size(); }  ///< = 2 * num_edges

  std::span<const Arc> neighbors(Vertex v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  std::size_t degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }

  std::size_t max_degree() const;

 private:
  template <typename EdgeAt>
  void rebuild_impl(Vertex n, std::size_t m, EdgeAt&& at);

  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<Arc> arcs_;
  std::vector<std::size_t> cursor_;  // size n scatter scratch, reused
};

}  // namespace spar::graph
