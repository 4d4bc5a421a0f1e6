// Execution harness that runs the sharded SPMD core (dist/shard.hpp) on one
// shard or on S shards, as threads or as real OS processes. These three
// functions are the only way to run a distributed protocol.
//
//  * kLoopback    -- S threads over a LoopbackHub in this process (S == 1
//                    runs inline: the sequential simulator, and what a
//                    default-constructed DistExecOptions asks for).
//  * kSocketUnix  -- S forked dist_worker processes meshed over UNIX-domain
//                    sockets in a scratch directory.
//
// Whatever the backend and shard count, the merged result is bit-identical:
// the same edge set, in the same order, with the same model-level
// DistMetrics (the runner asserts every shard reported identical metrics).
// Only `wire` varies -- it reports what the chosen mesh actually shipped,
// summed over shards.
//
// The socket backend serializes the input graph to the scratch directory
// (graph/io_binary.hpp), execs one dist_worker per shard, and reassembles
// the per-shard result files (dist/worker_io.hpp). The worker binary is
// located through DistExecOptions::worker_path, falling back to
// $SPAR_DIST_WORKER.
#pragma once

#include <string>

#include "dist/dist_spanner.hpp"
#include "graph/graph.hpp"

namespace spar::dist {

enum class DistBackend {
  kLoopback,
  kSocketUnix,
};

struct DistExecOptions {
  std::size_t shards = 1;
  DistBackend backend = DistBackend::kLoopback;
  /// dist_worker binary for the socket backend; empty = $SPAR_DIST_WORKER.
  std::string worker_path;
  /// Scratch directory for graph/result/socket files; empty = a fresh
  /// mkdtemp under $TMPDIR (removed on completion). A caller-provided
  /// directory must exist and is left in place.
  std::string scratch_dir;
};

/// Theorem 2 spanner on `exec.shards` shards. For every backend and shard
/// count the edge set equals spanner::baswana_sen_spanner's for the seed.
DistSpannerResult run_distributed_spanner(const graph::Graph& g,
                                          const DistSpannerOptions& options,
                                          const DistExecOptions& exec);

/// One distributed PARALLELSAMPLE round on `exec.shards` shards.
DistSampleResult run_distributed_sample(const graph::Graph& g,
                                        const DistSampleOptions& options,
                                        const DistExecOptions& exec);

/// Theorem 5 distributed PARALLELSPARSIFY on `exec.shards` shards.
DistSparsifyResult run_distributed_sparsify(const graph::Graph& g,
                                            const DistSparsifyOptions& options,
                                            const DistExecOptions& exec);

}  // namespace spar::dist
