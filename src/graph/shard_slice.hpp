// Vertex-partitioned shard views of an edge list, for the sharded
// distributed runtime (src/dist).
//
// A shard owns a contiguous vertex range (VertexPartition) and, from it, two
// derived structures over one edge universe:
//
//  * ShardAdjacency -- CSR-style adjacency restricted to the shard's OWNED
//    vertices, whose arcs keep the GLOBAL edge ids and the canonical
//    (target, edge id) row order of CSRGraph. Global ids are what make the
//    sharded protocol bit-compatible with the shared-memory one: the
//    Baswana-Sen tie-break is (length, edge id) lexicographic, so slice-local
//    ids would change decisions.
//  * ShardSlice -- the shard's owned edges (owner of edge e = owner of its
//    stored first endpoint u_e) as an EdgeArena plus the global id of each
//    slice edge. Slices of all shards partition the edge universe, so
//    per-edge work (commits, coin flips, reweighting, compaction) is counted
//    exactly once across the mesh.
//
// Both rebuild in place across sparsification rounds, reusing buffers like
// CSRGraph::rebuild does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_view.hpp"
#include "graph/types.hpp"

namespace spar::graph {

/// Contiguous balanced partition of [0, n) into `shards` ranges; the first
/// n % shards ranges hold one extra vertex. owner() is O(1) arithmetic, so
/// every shard can route any vertex without a directory.
struct VertexPartition {
  Vertex n = 0;
  std::size_t shards = 1;

  Vertex begin(std::size_t s) const {
    const Vertex base = n / static_cast<Vertex>(shards);
    const Vertex extra = n % static_cast<Vertex>(shards);
    const auto sv = static_cast<Vertex>(s);
    return sv * base + (sv < extra ? sv : extra);
  }
  Vertex end(std::size_t s) const { return begin(s + 1); }
  Vertex owned(std::size_t s) const { return end(s) - begin(s); }

  std::size_t owner(Vertex v) const {
    const Vertex base = n / static_cast<Vertex>(shards);
    const Vertex extra = n % static_cast<Vertex>(shards);
    const Vertex split = extra * (base + 1);  // first vertex of the base-sized ranges
    if (base == 0) return v;                  // more shards than vertices
    if (v < split) return v / (base + 1);
    return extra + (v - split) / base;
  }
};

/// Adjacency of one shard's owned vertices over a full edge universe. Arc ids
/// are global edge ids; rows are sorted by (target, edge id) -- the same
/// canonical order CSRGraph produces, independent of shard count.
class ShardAdjacency {
 public:
  ShardAdjacency() = default;

  /// Re-populate from the full edge list, keeping arcs (v -> other endpoint)
  /// for every owned v. Buffers are reused across calls.
  void rebuild(const EdgeView& edges, const VertexPartition& part,
               std::size_t shard);

  /// Arcs of owned vertex `v` (global numbering).
  std::span<const Arc> neighbors(Vertex v) const {
    const Vertex l = v - first_;
    return {arcs_.data() + offsets_[l], arcs_.data() + offsets_[l + 1]};
  }

  std::size_t num_arcs() const { return arcs_.size(); }

 private:
  Vertex first_ = 0;
  std::vector<std::size_t> offsets_;  // size owned + 1
  std::vector<Arc> arcs_;
  std::vector<std::size_t> cursor_;  // scatter scratch, reused
};

/// One shard's owned edges: arena storage plus each slice edge's global id.
/// Slice order is ascending global id, so compactions stay aligned with the
/// global survivor ranks.
struct ShardSlice {
  EdgeArena arena;
  std::vector<EdgeId> global_ids;

  std::size_t size() const { return global_ids.size(); }
};

/// Build shard `shard`'s slice of `edges` under `part` (owner of edge e =
/// owner of stored endpoint u_e).
ShardSlice make_shard_slice(const EdgeView& edges, const VertexPartition& part,
                            std::size_t shard);

}  // namespace spar::graph
