// One shard of the distributed mesh, as an OS process.
//
// Launched S times (by dist/runner.cpp, scripts/check.sh or by hand), each
// instance loads the same graph, joins the UNIX-socket mesh, runs the
// sharded protocol core for its --shard, and serializes its share of the
// result to --out (dist/worker_io.hpp). Exit 0 on success; any failure
// prints to stderr and exits 1, which EOFs this shard's sockets and releases
// every peer blocked on the superstep barrier.
//
//   dist_worker --graph g.bin --mode spanner|sample|sparsify
//               --shard S_ID --shards S --out result.bin --unix-base PATH
//               [--k N] [--epsilon E] [--rho R] [--t T]
//               [--keep-probability P] [--seed S]
//               [--connect-timeout-ms MS]
//
// An option not listed here is an error, and every integer is range-checked
// before the graph loads.
#include <cstdio>
#include <exception>

#include "dist/transport.hpp"
#include "dist/worker_io.hpp"
#include "graph/io_binary.hpp"
#include "support/options.hpp"
#include "support/work_counter.hpp"

namespace {

using namespace spar;

int run(int argc, char** argv) {
  const dist::detail::WorkerArgs args =
      dist::detail::read_worker_args(support::Options(argc, argv));
  const graph::Graph g = graph::load_binary(args.graph_path);
  dist::SocketTransport net(args.shard, args.shards, args.mesh);
  support::WorkCounter work;
  dist::detail::WorkerResult res =
      dist::detail::run_one_shard(net, g, args.proto, &work);
  res.work = work.total();
  dist::detail::write_worker_result(args.out_path, res);
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
