// One shard of the distributed mesh, as an OS process.
//
// Launched S times (by dist/runner.cpp, scripts/check.sh or by hand), each
// instance loads the same graph, joins the socket mesh, runs the sharded
// protocol core for its --shard, and serializes its share of the result to
// --out (dist/worker_io.hpp). Exit 0 on success; any failure prints to
// stderr and exits 1, which EOFs this shard's sockets and releases every
// peer blocked on the superstep barrier.
//
//   dist_worker --graph g.bin --mode spanner|sample|sparsify
//               --shard S_ID --shards S --out result.bin
//               (--unix-base PATH | --tcp-dir DIR)
//               [--k N] [--epsilon E] [--rho R] [--t T]
//               [--keep-probability P] [--seed S]
//               [--connect-timeout-ms MS]
#include <cstdio>
#include <exception>
#include <string>

#include "dist/shard.hpp"
#include "dist/transport.hpp"
#include "dist/worker_io.hpp"
#include "graph/edge_view.hpp"
#include "graph/graph.hpp"
#include "graph/io_binary.hpp"
#include "support/assert.hpp"
#include "support/options.hpp"
#include "support/work_counter.hpp"

namespace {

using namespace spar;

int run(int argc, char** argv) {
  support::Options opts(argc, argv);

  const std::string graph_path = opts.get("graph", "");
  const std::string mode = opts.get("mode", "");
  const std::string out_path = opts.get("out", "");
  const auto shard = static_cast<std::size_t>(opts.get_int("shard", 0));
  const auto shards = static_cast<std::size_t>(opts.get_int("shards", 1));
  SPAR_CHECK(!graph_path.empty() && !mode.empty() && !out_path.empty(),
             "dist_worker: --graph, --mode and --out are required");
  SPAR_CHECK(shard < shards, "dist_worker: --shard out of range");

  dist::SocketMeshOptions mesh;
  mesh.unix_base = opts.get("unix-base", "");
  mesh.tcp_rendezvous_dir = opts.get("tcp-dir", "");
  mesh.connect_timeout_ms =
      static_cast<int>(opts.get_int("connect-timeout-ms", 15000));
  SPAR_CHECK(mesh.unix_base.empty() != mesh.tcp_rendezvous_dir.empty(),
             "dist_worker: exactly one of --unix-base / --tcp-dir required");

  const graph::Graph g = graph::load_binary(graph_path);
  dist::SocketTransport net(shard, shards, mesh);
  support::WorkCounter work;
  dist::detail::WorkerResult res;

  if (mode == "spanner") {
    dist::DistSpannerOptions opt;
    opt.k = static_cast<std::size_t>(opts.get_int("k", 0));
    opt.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    opt.work = &work;
    graph::EdgeArena arena(g);
    dist::ShardSpannerOutput out =
        dist::run_shard_spanner(net, arena.view(), nullptr, opt);
    res.spanner_ids = std::move(out.owned_spanner_edges);
    res.metrics = out.metrics;
  } else if (mode == "sample") {
    dist::DistSampleOptions opt;
    opt.epsilon = opts.get_double("epsilon", 0.5);
    opt.t = static_cast<std::size_t>(opts.get_int("t", 0));
    opt.keep_probability = opts.get_double("keep-probability", 0.25);
    opt.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    opt.work = &work;
    dist::ShardSampleOutput out = dist::run_shard_sample(net, g, opt);
    res.owned = std::move(out.owned);
    res.final_edges = out.final_edges;
    res.bundle_edges = out.bundle_edges;
    res.off_bundle_edges = out.off_bundle_edges;
    res.sampled_edges = out.sampled_edges;
    res.t_used = out.t_used;
    res.metrics = out.metrics;
  } else if (mode == "sparsify") {
    dist::DistSparsifyOptions opt;
    opt.epsilon = opts.get_double("epsilon", 0.5);
    opt.rho = opts.get_double("rho", 4.0);
    opt.t = static_cast<std::size_t>(opts.get_int("t", 0));
    opt.keep_probability = opts.get_double("keep-probability", 0.25);
    opt.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    opt.work = &work;
    dist::ShardSparsifyOutput out = dist::run_shard_sparsify(net, g, opt);
    res.owned = std::move(out.owned);
    res.final_edges = out.final_edges;
    res.rounds = std::move(out.rounds);
    res.metrics = out.metrics;
  } else {
    SPAR_CHECK(false, "dist_worker: unknown --mode " + mode);
  }

  res.wire = net.wire();
  res.work = work.total();
  dist::detail::write_worker_result(out_path, res);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist_worker: %s\n", e.what());
    return 1;
  }
}
