// The contract between the launcher (dist/runner.cpp) and its dist_worker
// processes. Internal to src/dist; not installed API.
//
//  * The command line: WorkerArgs is everything one worker needs, the runner
//    writes it with worker_flags() and the worker reads it back with
//    read_worker_args(), so every flag is named in exactly one place.
//  * The shard dispatch: run_one_shard() runs a mode's protocol core on one
//    Transport endpoint, for loopback threads and worker processes alike.
//  * The result file: a worker's whole output -- its owned edge slice,
//    per-run stats, model metrics and wire metrics -- is flattened into a
//    word stream (doubles bit-cast), framed as magic + word count + payload
//    + chunked-FNV checksum (support/framing.hpp, seeded with the count).
//    The launcher refuses a truncated or corrupted file instead of merging
//    garbage.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "dist/shard.hpp"
#include "spanner/baswana_sen.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/framing.hpp"
#include "support/options.hpp"
#include "support/work_counter.hpp"

namespace spar::dist::detail {

/// The protocol a worker runs (its --mode).
enum class Mode { kSpanner, kSample, kSparsify };

inline constexpr const char* kModeNames[] = {"spanner", "sample", "sparsify"};

/// All three protocol option sets flattened for the worker command line.
struct ProtoOptions {
  Mode mode = Mode::kSpanner;
  std::size_t k = 0;
  double epsilon = 0.5;
  double rho = 4.0;
  std::size_t t = 0;
  double keep_probability = 0.25;
  std::uint64_t seed = 1;
};

/// One worker's command line: the shard it plays, its input graph, result
/// file and mesh, and the protocol to run.
struct WorkerArgs {
  std::string graph_path;
  std::string out_path;
  std::size_t shard = 0;
  std::size_t shards = 1;
  SocketMeshOptions mesh;
  ProtoOptions proto;
};

/// The dist_worker flags (everything after argv[0]) that carry `args`.
inline std::vector<std::string> worker_flags(const WorkerArgs& args) {
  const auto exact = [](double x) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);  // round-trips every double
    return std::string(buf);
  };
  const ProtoOptions& p = args.proto;
  return {
      "--graph=" + args.graph_path,
      "--out=" + args.out_path,
      "--shard=" + std::to_string(args.shard),
      "--shards=" + std::to_string(args.shards),
      "--unix-base=" + args.mesh.unix_base,
      "--connect-timeout-ms=" + std::to_string(args.mesh.connect_timeout_ms),
      std::string("--mode=") + kModeNames[static_cast<int>(p.mode)],
      "--k=" + std::to_string(p.k),
      "--epsilon=" + exact(p.epsilon),
      "--rho=" + exact(p.rho),
      "--t=" + std::to_string(p.t),
      "--keep-probability=" + exact(p.keep_probability),
      "--seed=" + std::to_string(p.seed),
  };
}

/// Reads a worker command line back. Unknown flags, missing required ones
/// and out-of-range integers throw before anything is loaded: k is capped at
/// 64 clustering levels, enough for stretch 2k-1 at any n < 2^64.
inline WorkerArgs read_worker_args(const support::Options& opts) {
  opts.reject_unknown({"graph", "out", "shard", "shards", "unix-base",
                       "connect-timeout-ms", "mode", "k", "epsilon", "rho", "t",
                       "keep-probability", "seed"});
  constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();
  WorkerArgs args;
  ProtoOptions& p = args.proto;
  args.graph_path = opts.get("graph", "");
  args.out_path = opts.get("out", "");
  args.mesh.unix_base = opts.get("unix-base", "");
  const std::string mode = opts.get("mode", "");
  SPAR_CHECK(!args.graph_path.empty() && !args.out_path.empty() &&
                 !args.mesh.unix_base.empty() && !mode.empty(),
             "--graph, --mode, --out and --unix-base are required");
  const auto* names = std::begin(kModeNames);
  const auto* name = std::find(names, std::end(kModeNames), mode);
  SPAR_CHECK(name != std::end(kModeNames), "unknown --mode " + mode);
  p.mode = static_cast<Mode>(name - names);

  args.shards =
      static_cast<std::size_t>(opts.get_int_in("shards", 1, 1, kNoCap));
  args.shard = static_cast<std::size_t>(opts.get_int_in(
      "shard", 0, 0, static_cast<std::int64_t>(args.shards) - 1));
  args.mesh.connect_timeout_ms = static_cast<int>(opts.get_int_in(
      "connect-timeout-ms", args.mesh.connect_timeout_ms, 1,
      std::numeric_limits<int>::max()));
  p.k = static_cast<std::size_t>(opts.get_int_in("k", 0, 0, spanner::kMaxSpannerK));
  p.epsilon = opts.get_double("epsilon", p.epsilon);
  p.rho = opts.get_double("rho", p.rho);
  p.t = static_cast<std::size_t>(opts.get_int_in("t", 0, 0, kNoCap));
  p.keep_probability = opts.get_double("keep-probability", p.keep_probability);
  p.seed =
      support::parse_number<std::uint64_t>("--seed", opts.get("seed", "1"));
  return args;
}

inline constexpr std::uint64_t kWorkerFileMagic = 0x5350415257524b52ULL;  // "SPARWRKR"

/// Union of every mode's outputs; unused sections stay empty.
struct WorkerResult {
  std::vector<graph::EdgeId> spanner_ids;  // spanner mode
  ShardEdges owned;                        // sample / sparsify modes
  std::uint64_t final_edges = 0;
  std::uint64_t bundle_edges = 0;
  std::uint64_t off_bundle_edges = 0;
  std::uint64_t sampled_edges = 0;
  std::uint64_t t_used = 0;
  std::vector<DistRound> rounds;  // sparsify mode
  DistMetrics metrics;
  WireMetrics wire;
  std::uint64_t work = 0;  // WorkCounter total of this shard's share
};

/// Runs shard net.shard_id()'s share of `proto.mode` on `g` (every shard of
/// the mesh calls this with the same graph and options) and collects its
/// result, wire metrics included.
WorkerResult run_one_shard(Transport& net, const graph::Graph& g,
                           const ProtoOptions& proto,
                           support::WorkCounter* work);

class WordWriter {
 public:
  void u64(std::uint64_t x) { words_.push_back(x); }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    words_.push_back(bits);
  }
  template <typename T>
  void u64_span(const std::vector<T>& xs) {
    u64(xs.size());
    for (const T& x : xs) u64(static_cast<std::uint64_t>(x));
  }
  void f64_span(const std::vector<double>& xs) {
    u64(xs.size());
    for (double x : xs) f64(x);
  }
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
};

class WordReader {
 public:
  explicit WordReader(const std::vector<std::uint64_t>& words)
      : words_(words) {}
  std::uint64_t u64() {
    SPAR_CHECK(at_ < words_.size(), "worker result: truncated word stream");
    return words_[at_++];
  }
  double f64() {
    const std::uint64_t bits = u64();
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
  }
  template <typename T>
  std::vector<T> u64_span() {
    const std::uint64_t count = u64();
    SPAR_CHECK(count <= words_.size() - at_,
               "worker result: array length exceeds stream");
    std::vector<T> xs(static_cast<std::size_t>(count));
    for (auto& x : xs) x = static_cast<T>(u64());
    return xs;
  }
  std::vector<double> f64_span() {
    const std::uint64_t count = u64();
    SPAR_CHECK(count <= words_.size() - at_,
               "worker result: array length exceeds stream");
    std::vector<double> xs(static_cast<std::size_t>(count));
    for (auto& x : xs) x = f64();
    return xs;
  }
  bool done() const { return at_ == words_.size(); }

 private:
  const std::vector<std::uint64_t>& words_;
  std::size_t at_ = 0;
};

inline void encode_metrics(WordWriter& w, const DistMetrics& m) {
  w.u64(m.rounds);
  w.u64(m.messages);
  w.u64(m.words);
  w.u64(m.max_message_words);
  w.u64(m.max_round_words);
}

inline DistMetrics decode_metrics(WordReader& r) {
  DistMetrics m;
  m.rounds = r.u64();
  m.messages = r.u64();
  m.words = r.u64();
  m.max_message_words = r.u64();
  m.max_round_words = r.u64();
  return m;
}

inline void encode_wire(WordWriter& w, const WireMetrics& m) {
  w.u64(m.supersteps);
  w.u64(m.frames);
  w.u64(m.messages);
  w.u64(m.words);
  w.u64(m.payload_bytes);
  w.u64(m.wire_bytes);
  w.u64(m.max_round_words);
}

inline WireMetrics decode_wire(WordReader& r) {
  WireMetrics m;
  m.supersteps = r.u64();
  m.frames = r.u64();
  m.messages = r.u64();
  m.words = r.u64();
  m.payload_bytes = r.u64();
  m.wire_bytes = r.u64();
  m.max_round_words = r.u64();
  return m;
}

inline void write_worker_result(const std::string& path,
                                const WorkerResult& res) {
  WordWriter w;
  w.u64_span(res.spanner_ids);
  w.u64_span(res.owned.ids);
  w.u64_span(res.owned.u);
  w.u64_span(res.owned.v);
  w.f64_span(res.owned.w);
  w.u64(res.final_edges);
  w.u64(res.bundle_edges);
  w.u64(res.off_bundle_edges);
  w.u64(res.sampled_edges);
  w.u64(res.t_used);
  w.u64(res.rounds.size());
  for (const DistRound& r : res.rounds) {
    w.u64(r.edges_before);
    w.u64(r.edges_after);
    encode_metrics(w, r.metrics);
  }
  encode_metrics(w, res.metrics);
  encode_wire(w, res.wire);
  w.u64(res.work);

  const std::vector<std::uint64_t>& words = w.words();
  const std::uint64_t count = words.size();
  const std::uint64_t checksum = support::framing::checksum_bytes(
      words.data(), count * sizeof(std::uint64_t), count);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SPAR_CHECK(out.good(), "dist_worker: cannot write " + path);
  out.write(reinterpret_cast<const char*>(&kWorkerFileMagic),
            sizeof(kWorkerFileMagic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  SPAR_CHECK(out.good(), "dist_worker: write failed for " + path);
}

inline WorkerResult read_worker_result(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPAR_CHECK(in.good(), "shard launcher: cannot read result " + path);
  std::uint64_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  SPAR_CHECK(in.good() && magic == kWorkerFileMagic,
             "shard launcher: bad result header in " + path);
  SPAR_CHECK(count < (1ULL << 32),
             "shard launcher: absurd result size in " + path);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(words.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  std::uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  SPAR_CHECK(in.good(), "shard launcher: truncated result " + path);
  const std::uint64_t expect = support::framing::checksum_bytes(
      words.data(), count * sizeof(std::uint64_t), count);
  SPAR_CHECK(checksum == expect,
             "shard launcher: result checksum mismatch in " + path);

  WordReader r(words);
  WorkerResult res;
  res.spanner_ids = r.u64_span<graph::EdgeId>();
  res.owned.ids = r.u64_span<graph::EdgeId>();
  res.owned.u = r.u64_span<graph::Vertex>();
  res.owned.v = r.u64_span<graph::Vertex>();
  res.owned.w = r.f64_span();
  res.final_edges = r.u64();
  res.bundle_edges = r.u64();
  res.off_bundle_edges = r.u64();
  res.sampled_edges = r.u64();
  res.t_used = r.u64();
  const std::uint64_t num_rounds = r.u64();
  SPAR_CHECK(num_rounds < (1ULL << 20), "shard launcher: absurd round count");
  res.rounds.resize(static_cast<std::size_t>(num_rounds));
  for (DistRound& round : res.rounds) {
    round.edges_before = static_cast<std::size_t>(r.u64());
    round.edges_after = static_cast<std::size_t>(r.u64());
    round.metrics = decode_metrics(r);
  }
  res.metrics = decode_metrics(r);
  res.wire = decode_wire(r);
  res.work = r.u64();
  SPAR_CHECK(r.done(), "shard launcher: trailing bytes in " + path);
  SPAR_CHECK(res.owned.ids.size() == res.owned.u.size() &&
                 res.owned.ids.size() == res.owned.v.size() &&
                 res.owned.ids.size() == res.owned.w.size(),
             "shard launcher: ragged owned slice in " + path);
  return res;
}

}  // namespace spar::dist::detail
