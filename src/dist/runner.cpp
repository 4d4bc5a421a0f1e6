#include "dist/runner.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/shard.hpp"
#include "dist/worker_io.hpp"
#include "graph/edge_view.hpp"
#include "graph/io_binary.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/work_counter.hpp"

namespace spar::dist {
namespace {

bool same_metrics(const DistMetrics& a, const DistMetrics& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.words == b.words && a.max_message_words == b.max_message_words &&
         a.max_round_words == b.max_round_words;
}

/// Every shard must have computed the identical model-level account
/// (superstep C makes this structural; a mismatch means a protocol bug,
/// so fail loudly rather than averaging it away).
void check_metrics_agree(const std::vector<detail::WorkerResult>& shards) {
  for (std::size_t s = 1; s < shards.size(); ++s) {
    SPAR_CHECK(same_metrics(shards[s].metrics, shards[0].metrics),
               "dist runner: shard " + std::to_string(s) +
                   " disagrees with shard 0 on model metrics");
    SPAR_CHECK(shards[s].rounds.size() == shards[0].rounds.size(),
               "dist runner: shard " + std::to_string(s) +
                   " disagrees with shard 0 on round count");
    SPAR_CHECK(shards[s].final_edges == shards[0].final_edges &&
                   shards[s].bundle_edges == shards[0].bundle_edges &&
                   shards[s].off_bundle_edges == shards[0].off_bundle_edges &&
                   shards[s].sampled_edges == shards[0].sampled_edges &&
                   shards[s].t_used == shards[0].t_used,
               "dist runner: shard " + std::to_string(s) +
                   " disagrees with shard 0 on edge totals");
  }
}

std::vector<detail::WorkerResult> run_loopback(
    std::size_t shards, const graph::Graph& g,
    const detail::ProtoOptions& proto, support::WorkCounter* work) {
  LoopbackHub hub(shards);
  std::vector<detail::WorkerResult> results(shards);

  if (shards == 1) {
    results[0] = detail::run_one_shard(hub.endpoint(0), g, proto, work);
    return results;
  }

  // WorkCounter slots are keyed by par::thread_id(), which is 0 on every
  // plain std::thread outside a loop; give each shard thread a private
  // counter and fold the totals in after the join.
  std::vector<support::WorkCounter> local_work(shards);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      try {
        results[s] = detail::run_one_shard(
            hub.endpoint(s), g, proto,
            work != nullptr ? &local_work[s] : nullptr);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        hub.abort();  // release siblings parked at the barrier
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  if (work != nullptr) {
    for (const support::WorkCounter& c : local_work) work->add(c.total());
  }
  return results;
}

std::vector<detail::WorkerResult> run_sockets(const DistExecOptions& exec,
                                              const graph::Graph& g,
                                              const detail::ProtoOptions& proto,
                                              support::WorkCounter* work) {
  std::string worker = exec.worker_path;
  if (worker.empty()) {
    const char* env = std::getenv("SPAR_DIST_WORKER");
    SPAR_CHECK(env != nullptr && env[0] != '\0',
               "dist runner: socket backend needs DistExecOptions::worker_path "
               "or $SPAR_DIST_WORKER pointing at the dist_worker binary");
    worker = env;
  }

  std::string scratch = exec.scratch_dir;
  bool cleanup = false;
  if (scratch.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
        "/spar-dist.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    SPAR_CHECK(::mkdtemp(buf.data()) != nullptr,
               "dist runner: mkdtemp failed under " + tmpl);
    scratch = buf.data();
    cleanup = true;
  }

  std::vector<detail::WorkerResult> results;
  try {
    const std::string graph_path = scratch + "/graph.bin";
    graph::save_binary(graph_path, g);

    const std::size_t shards = exec.shards;
    std::vector<pid_t> pids(shards, -1);
    detail::WorkerArgs args;
    args.graph_path = graph_path;
    args.shards = shards;
    args.mesh.unix_base = scratch + "/mesh";
    args.proto = proto;
    for (std::size_t s = 0; s < shards; ++s) {
      args.shard = s;
      args.out_path = scratch + "/result." + std::to_string(s);
      std::vector<std::string> flags = detail::worker_flags(args);
      std::vector<char*> argv;
      argv.reserve(flags.size() + 2);
      argv.push_back(worker.data());
      for (std::string& f : flags) argv.push_back(f.data());
      argv.push_back(nullptr);

      const pid_t pid = ::fork();
      SPAR_CHECK(pid >= 0, "dist runner: fork failed for shard " +
                               std::to_string(s));
      if (pid == 0) {
        ::execv(worker.c_str(), argv.data());
        std::perror("dist runner: execv dist_worker");
        ::_exit(127);
      }
      pids[s] = pid;
    }

    // Reap everything before judging, so a failing shard never leaves
    // zombies; then report the first failure (its stderr already went to
    // ours). Surviving shards of a failed mesh exit on their own -- the dead
    // peer's sockets EOF/EPIPE out of the barrier -- but belt-and-braces
    // kill them anyway.
    std::vector<int> status(shards, 0);
    bool any_failed = false;
    for (std::size_t s = 0; s < shards; ++s) {
      if (::waitpid(pids[s], &status[s], 0) < 0) status[s] = -1;
      if (!WIFEXITED(status[s]) || WEXITSTATUS(status[s]) != 0) {
        if (!any_failed) {
          any_failed = true;
          for (std::size_t o = 0; o < shards; ++o) {
            if (o != s && pids[o] > 0) ::kill(pids[o], SIGTERM);
          }
        }
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      SPAR_CHECK(WIFEXITED(status[s]) && WEXITSTATUS(status[s]) == 0,
                 "dist runner: dist_worker shard " + std::to_string(s) +
                     " failed (status " + std::to_string(status[s]) + ")");
    }

    results.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      results.push_back(detail::read_worker_result(scratch + "/result." +
                                                   std::to_string(s)));
    }
  } catch (...) {
    if (cleanup) {
      std::error_code ec;
      std::filesystem::remove_all(scratch, ec);
    }
    throw;
  }
  if (cleanup) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
  if (work != nullptr) {
    for (const detail::WorkerResult& r : results) work->add(r.work);
  }
  return results;
}

std::vector<detail::WorkerResult> run_mesh(const graph::Graph& g,
                                           const detail::ProtoOptions& proto,
                                           support::WorkCounter* work,
                                           const DistExecOptions& exec) {
  SPAR_CHECK(exec.shards >= 1, "dist runner: shards must be >= 1");
  std::vector<detail::WorkerResult> results;
  if (exec.backend == DistBackend::kLoopback) {
    results = run_loopback(exec.shards, g, proto, work);
  } else {
    results = run_sockets(exec, g, proto, work);
  }
  check_metrics_agree(results);
  return results;
}

WireMetrics sum_wire(const std::vector<detail::WorkerResult>& shards) {
  WireMetrics wire;
  for (const detail::WorkerResult& r : shards) wire.absorb(r.wire);
  return wire;
}

std::vector<ShardEdges> take_slices(std::vector<detail::WorkerResult>& shards) {
  std::vector<ShardEdges> slices;
  slices.reserve(shards.size());
  for (detail::WorkerResult& r : shards) slices.push_back(std::move(r.owned));
  return slices;
}

}  // namespace

detail::WorkerResult detail::run_one_shard(Transport& net,
                                           const graph::Graph& g,
                                           const ProtoOptions& proto,
                                           support::WorkCounter* work) {
  WorkerResult res;
  switch (proto.mode) {
    case Mode::kSpanner: {
      DistSpannerOptions opt;
      opt.k = proto.k;
      opt.seed = proto.seed;
      opt.work = work;
      const graph::EdgeArena arena(g);
      ShardSpannerOutput out =
          run_shard_spanner(net, arena.view(), nullptr, opt);
      res.spanner_ids = std::move(out.owned_spanner_edges);
      res.metrics = out.metrics;
      break;
    }
    case Mode::kSample: {
      DistSampleOptions opt;
      opt.epsilon = proto.epsilon;
      opt.t = proto.t;
      opt.keep_probability = proto.keep_probability;
      opt.seed = proto.seed;
      opt.work = work;
      ShardSampleOutput out = run_shard_sample(net, g, opt);
      res.owned = std::move(out.owned);
      res.final_edges = out.final_edges;
      res.bundle_edges = out.bundle_edges;
      res.off_bundle_edges = out.off_bundle_edges;
      res.sampled_edges = out.sampled_edges;
      res.t_used = out.t_used;
      res.metrics = out.metrics;
      break;
    }
    case Mode::kSparsify: {
      DistSparsifyOptions opt;
      opt.epsilon = proto.epsilon;
      opt.rho = proto.rho;
      opt.t = proto.t;
      opt.keep_probability = proto.keep_probability;
      opt.seed = proto.seed;
      opt.work = work;
      ShardSparsifyOutput out = run_shard_sparsify(net, g, opt);
      res.owned = std::move(out.owned);
      res.final_edges = out.final_edges;
      res.rounds = std::move(out.rounds);
      res.metrics = out.metrics;
      break;
    }
  }
  res.wire = net.wire();
  return res;
}

DistSpannerResult run_distributed_spanner(const graph::Graph& g,
                                          const DistSpannerOptions& options,
                                          const DistExecOptions& exec) {
  detail::ProtoOptions proto;
  proto.mode = detail::Mode::kSpanner;
  proto.k = options.k;
  proto.seed = options.seed;
  std::vector<detail::WorkerResult> shards =
      run_mesh(g, proto, options.work, exec);

  DistSpannerResult result;
  result.metrics = shards[0].metrics;
  result.wire = sum_wire(shards);
  for (const detail::WorkerResult& r : shards) {
    result.spanner_edges.insert(result.spanner_edges.end(),
                                r.spanner_ids.begin(), r.spanner_ids.end());
  }
  std::sort(result.spanner_edges.begin(), result.spanner_edges.end());
  return result;
}

DistSampleResult run_distributed_sample(const graph::Graph& g,
                                        const DistSampleOptions& options,
                                        const DistExecOptions& exec) {
  detail::ProtoOptions proto;
  proto.mode = detail::Mode::kSample;
  proto.epsilon = options.epsilon;
  proto.t = options.t;
  proto.keep_probability = options.keep_probability;
  proto.seed = options.seed;
  std::vector<detail::WorkerResult> shards =
      run_mesh(g, proto, options.work, exec);

  DistSampleResult result;
  result.bundle_edges = static_cast<std::size_t>(shards[0].bundle_edges);
  result.off_bundle_edges =
      static_cast<std::size_t>(shards[0].off_bundle_edges);
  result.sampled_edges = static_cast<std::size_t>(shards[0].sampled_edges);
  result.t_used = static_cast<std::size_t>(shards[0].t_used);
  result.metrics = shards[0].metrics;
  result.wire = sum_wire(shards);
  const std::size_t final_edges =
      static_cast<std::size_t>(shards[0].final_edges);
  result.sparsifier = merge_shard_edges(g.num_vertices(), final_edges,
                                        take_slices(shards));
  return result;
}

DistSparsifyResult run_distributed_sparsify(const graph::Graph& g,
                                            const DistSparsifyOptions& options,
                                            const DistExecOptions& exec) {
  detail::ProtoOptions proto;
  proto.mode = detail::Mode::kSparsify;
  proto.epsilon = options.epsilon;
  proto.rho = options.rho;
  proto.t = options.t;
  proto.keep_probability = options.keep_probability;
  proto.seed = options.seed;
  std::vector<detail::WorkerResult> shards =
      run_mesh(g, proto, options.work, exec);

  DistSparsifyResult result;
  result.rounds = shards[0].rounds;
  result.metrics = shards[0].metrics;
  result.wire = sum_wire(shards);
  const std::size_t final_edges =
      static_cast<std::size_t>(shards[0].final_edges);
  result.sparsifier = merge_shard_edges(g.num_vertices(), final_edges,
                                        take_slices(shards));
  return result;
}

}  // namespace spar::dist
