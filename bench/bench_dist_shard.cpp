// E16: sharded multi-process execution of the distributed protocols.
//
// Two claims are instantiated side by side:
//
//  1. Resharding invariance -- the model-level account (rounds, messages,
//     words; the Theorem 2 budgets) and the output edge set are IDENTICAL
//     for every shard count and backend. Each row prints a golden hash of
//     the output; within a (family, n) block every hash must match, and
//     the binary exits nonzero if one does not.
//  2. What a real mesh costs -- wall-clock for loopback threads vs real
//     dist_worker processes over UNIX sockets at shards 1/2/4, next to the
//     measured wire traffic (words shipped, frames, wire bytes) that the
//     transport reconciles against the model words every superstep.
//
// --selftest runs a tiny 4-shard socket spanner + one sparsify round and
// compares against the one-shard run (the check.sh smoke). --quick shrinks
// the sweep for CI; BENCH_pr8.json records a full run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "dist/dist_spanner.hpp"
#include "dist/runner.hpp"
#include "support/framing.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

using namespace spar;

namespace {

/// Golden hash of a result edge list: order-sensitive chunked-FNV over the
/// (u, v, weight-bits) stream, so "same hash" means same edges, same order,
/// same weights to the last bit.
std::uint64_t golden_hash(const graph::Graph& g) {
  std::vector<std::uint64_t> words;
  words.reserve(g.num_edges() * 3 + 1);
  words.push_back(g.num_vertices());
  for (const graph::Edge& e : g.edges()) {
    words.push_back(e.u);
    words.push_back(e.v);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(e.w));
    __builtin_memcpy(&bits, &e.w, sizeof(bits));
    words.push_back(bits);
  }
  return support::framing::checksum_bytes(
      words.data(), words.size() * sizeof(std::uint64_t), words.size());
}

std::uint64_t golden_hash_ids(const std::vector<graph::EdgeId>& ids) {
  return support::framing::checksum_bytes(
      ids.data(), ids.size() * sizeof(graph::EdgeId), ids.size());
}

std::string hex(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

const char* backend_name(dist::DistBackend b) {
  switch (b) {
    case dist::DistBackend::kLoopback: return "loopback";
    case dist::DistBackend::kSocketUnix: return "unix";
  }
  return "?";
}

int selftest(const std::string& worker) {
  const graph::Graph g = graph::connected_erdos_renyi(256, 0.06, 5);

  dist::DistSpannerOptions sopt;
  sopt.seed = 9;
  dist::DistExecOptions one;
  one.shards = 1;
  dist::DistExecOptions four;
  four.shards = 4;
  four.backend = dist::DistBackend::kSocketUnix;
  four.worker_path = worker;

  const auto span1 = dist::run_distributed_spanner(g, sopt, one);
  const auto span4 = dist::run_distributed_spanner(g, sopt, four);
  const bool span_ok =
      span1.spanner_edges == span4.spanner_edges &&
      span1.metrics.rounds == span4.metrics.rounds &&
      span1.metrics.words == span4.metrics.words;
  std::printf("spanner  1-shard %s  4-shard-socket %s  rounds %llu  %s\n",
              hex(golden_hash_ids(span1.spanner_edges)).c_str(),
              hex(golden_hash_ids(span4.spanner_edges)).c_str(),
              static_cast<unsigned long long>(span4.metrics.rounds),
              span_ok ? "match" : "MISMATCH");

  dist::DistSampleOptions mopt;
  mopt.t = 3;
  mopt.seed = 9;
  const auto samp1 = dist::run_distributed_sample(g, mopt, one);
  const auto samp4 = dist::run_distributed_sample(g, mopt, four);
  const bool samp_ok =
      samp1.sparsifier.same_edges(samp4.sparsifier) &&
      samp1.metrics.words == samp4.metrics.words &&
      samp4.wire.wire_bytes ==
          samp4.wire.payload_bytes + samp4.wire.frames * 48;
  std::printf("sample   1-shard %s  4-shard-socket %s  wire %llu B  %s\n",
              hex(golden_hash(samp1.sparsifier)).c_str(),
              hex(golden_hash(samp4.sparsifier)).c_str(),
              static_cast<unsigned long long>(samp4.wire.wire_bytes),
              samp_ok ? "match" : "MISMATCH");

  if (span_ok && samp_ok) {
    std::printf("SELFTEST PASS\n");
    return 0;
  }
  std::printf("SELFTEST FAIL\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 11);
  const std::string worker = opt.get("worker", "");

  if (opt.get_bool("selftest", false)) return selftest(worker);

  std::vector<graph::Vertex> sizes = {512, 1024, 2048};
  if (quick) sizes = {512, 1024};
  const std::vector<std::size_t> shard_counts = {1, 2, 4};

  struct Config {
    dist::DistBackend backend;
    std::size_t shards;
  };
  std::vector<Config> configs;
  for (std::size_t s : shard_counts)
    configs.push_back({dist::DistBackend::kLoopback, s});
  for (std::size_t s : shard_counts)
    configs.push_back({dist::DistBackend::kSocketUnix, s});

  int failures = 0;

  support::Table table({"family", "n", "backend", "shards", "ms", "rounds",
                        "rounds/lg^2 n", "model words", "wire words",
                        "frames", "wire bytes", "hash"});
  for (const char* family : {"er", "grid"}) {
    for (const graph::Vertex n : sizes) {
      const graph::Graph g = bench::make_family(family, n, seed);
      dist::DistSparsifyOptions popt;
      popt.t = 3;
      popt.rho = 4.0;
      popt.seed = seed;

      std::uint64_t want_hash = 0;
      dist::DistMetrics want_metrics;
      bool have_base = false;
      for (const Config& cfg : configs) {
        dist::DistExecOptions exec;
        exec.shards = cfg.shards;
        exec.backend = cfg.backend;
        exec.worker_path = worker;

        support::Timer timer;
        const auto result = dist::run_distributed_sparsify(g, popt, exec);
        const double ms = timer.millis();
        const std::uint64_t hash = golden_hash(result.sparsifier);
        if (!have_base) {
          want_hash = hash;
          want_metrics = result.metrics;
          have_base = true;
        }
        if (hash != want_hash ||
            result.metrics.words != want_metrics.words ||
            result.metrics.rounds != want_metrics.rounds) {
          ++failures;
        }

        const double lg = bench::log2n(n);
        table.add_row({family, std::to_string(n), backend_name(cfg.backend),
                       std::to_string(cfg.shards), support::Table::cell(ms),
                       std::to_string(result.metrics.rounds),
                       support::Table::cell(
                           double(result.metrics.rounds) / (lg * lg)),
                       std::to_string(result.metrics.words),
                       std::to_string(result.wire.words),
                       std::to_string(result.wire.frames),
                       std::to_string(result.wire.wire_bytes), hex(hash)});
      }
    }
  }
  table.print(
      "E16: sharded PARALLELSPARSIFY -- resharding invariance & mesh cost");
  std::printf(
      "\nWithin each (family, n) block every hash and every model count is "
      "identical across\nbackends and shard counts; 'wire words' is what the "
      "mesh actually shipped (0 for one\nshard), reconciled against bytes "
      "every superstep. %s\n",
      failures == 0 ? "INVARIANCE OK" : "INVARIANCE BROKEN");
  return failures == 0 ? 0 : 1;
}
