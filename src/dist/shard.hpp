// The sharded SPMD core of the distributed protocols (Theorem 2 spanner,
// Theorem 5 distributed PARALLELSPARSIFY).
//
// Every shard of a Transport mesh calls the same entry point with the same
// input graph and options; vertices are split into contiguous owned ranges
// (graph::VertexPartition) and each shard decides ONLY for its owned
// vertices, using the exact per-vertex decision functions of
// spanner/bs_core.hpp over a graph::ShardAdjacency that carries global edge
// ids. Cross-shard coupling is a handful of superstep kinds:
//
//   A. center sync    -- owned border vertices push their new cluster center
//                        to every shard holding them as a ghost;
//   B. decision sync  -- add/discard verdicts on border edges go to the other
//                        endpoint's owner, so both trackers of an edge replay
//                        the identical commit (bs_core::commit_owned);
//   C. stats allreduce -- per-iteration (alive arcs, added) sums, so every
//                        shard computes the SAME model-level DistMetrics the
//                        PR 1 sequential simulator produced;
//   D. bundle publish -- each peel component's owned spanner edges broadcast
//                        so every shard keeps the full alive/in-bundle masks
//                        (the t-bundle loop is then shared code:
//                        spanner::detail::peel_bundle, verbatim).
//
// Everything else is shard-local: sampling coins and off-bundle coin flips
// are pure functions of (seed, id), so survivor masks and the global
// compaction ranks are recomputed identically everywhere instead of being
// communicated. The result is bit-identical output for ANY shard count and
// either transport -- the same edge sets, in the same order, with the same
// model metrics as a one-shard run and the shared-memory
// implementations (pinned by tests/dist/test_shard.cpp).
//
// Each shard holds its owned edges as a graph::ShardSlice (EdgeArena slice,
// compacted in place every sparsify round) plus a replicated read-mostly
// edge directory (u/v/w by global id) that backs ghost adjacency and
// ownership routing; see DESIGN.md §8 for the layout discussion.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/dist_spanner.hpp"
#include "dist/transport.hpp"
#include "graph/edge_view.hpp"
#include "graph/graph.hpp"

namespace spar::dist {

/// One shard's share of a spanner run. `metrics` is the model-level account
/// and comes out IDENTICAL on every shard (superstep C).
struct ShardSpannerOutput {
  std::vector<graph::EdgeId> owned_spanner_edges;  ///< sorted global ids
  DistMetrics metrics;
};

/// SPMD spanner: every shard of `net` calls this with the same `edges`,
/// `alive` mask and options. The union of owned_spanner_edges over shards
/// equals baswana_sen_spanner's edge set on the same mask.
ShardSpannerOutput run_shard_spanner(Transport& net,
                                     const graph::EdgeView& edges,
                                     const std::vector<bool>* alive,
                                     const DistSpannerOptions& options);

/// A shard's owned slice of a result edge universe: edge ids are the FINAL
/// global ids (compaction ranks), so slices from all shards reassemble into
/// the exact edge list the shared-memory pipeline produces.
struct ShardEdges {
  std::vector<graph::EdgeId> ids;
  std::vector<graph::Vertex> u;
  std::vector<graph::Vertex> v;
  std::vector<double> w;

  std::size_t size() const { return ids.size(); }
};

struct ShardSampleOutput {
  ShardEdges owned;              ///< this shard's slice of the sparsifier
  std::size_t final_edges = 0;   ///< global sparsifier size (same on all shards)
  std::size_t bundle_edges = 0;
  std::size_t off_bundle_edges = 0;
  std::size_t sampled_edges = 0;
  std::size_t t_used = 0;
  DistMetrics metrics;
};

/// SPMD PARALLELSAMPLE round: every shard's share of
/// run_distributed_sample (dist/runner.hpp).
ShardSampleOutput run_shard_sample(Transport& net, const graph::Graph& g,
                                   const DistSampleOptions& options);

struct ShardSparsifyOutput {
  ShardEdges owned;
  std::size_t final_edges = 0;
  std::vector<DistRound> rounds;
  DistMetrics metrics;
};

/// SPMD PARALLELSPARSIFY: every shard's share of run_distributed_sparsify
/// (dist/runner.hpp).
ShardSparsifyOutput run_shard_sparsify(Transport& net, const graph::Graph& g,
                                       const DistSparsifyOptions& options);

/// Reassemble the full result edge list from every shard's owned slice.
/// Slices must cover [0, final_edges) with disjoint id sets (which the
/// ownership rule guarantees); throws otherwise.
graph::Graph merge_shard_edges(graph::Vertex n, std::size_t final_edges,
                               const std::vector<ShardEdges>& slices);

}  // namespace spar::dist
