// load_gen: replay client + correctness oracle for solver_server (E15).
//
// Drives the service with deterministic, seeded right-hand sides and
// measures end-to-end latency/throughput at several load levels:
//
//  * open-loop mode (--rates=R1,R2,...): requests arrive by a Poisson
//    process at R requests/second REGARDLESS of completions -- the honest
//    way to measure a service's latency under load (closed-loop clients
//    self-throttle and hide queueing). Reports p50/p99 sojourn time
//    (arrival -> reply) and achieved QPS per level.
//  * closed-loop mode (--concurrency=C): C requests pipelined on the
//    connection, each completion immediately replaced -- measures peak
//    sustainable throughput at a fixed offered concurrency. This is the
//    mode the E15 comparison of batching against a --max-batch=1 server
//    uses.
//
// Correctness: every reply is checked BIT-FOR-BIT against a local oracle
// (the same graph spec -> SDDMatrix -> InverseChain with the server's
// default options -> per-RHS solve_sdd). This asserts the service's
// coalescing invariance end to end: batching, request interleaving, the
// wire round trip, and chain eviction/rebuild must never change a single
// bit of any solution. A mismatch is a hard failure (exit 1).
//
// By default one warmup request is sent (and discarded) before the timed
// levels so they measure steady-state serving, not the one-time chain
// build -- the build cost is reported separately in the server's registry
// stats (build_micros). --warmup=0 includes the cold build in level 1.
//
//   load_gen --socket=/tmp/spar.sock --spec=gen:grid:64x64
//     [--requests=200] [--rates=4,16,64 | --concurrency=16]
//     [--seed=1] [--warmup=1] [--quick] [--json=out.json] [--no-verify]
//     [--shutdown-server] [--graph=g] [--tolerance=1e-8]
//
// An option not listed here is an error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "linalg/vector_ops.hpp"
#include "server/protocol.hpp"
#include "solver/solver.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"

namespace {

using namespace spar;
using server::Frame;
using server::MsgType;
using server::PayloadReader;
using server::PayloadWriter;
using server::Socket;
using Clock = std::chrono::steady_clock;

struct Reply {
  linalg::Vector solution;
  std::uint64_t iterations = 0;
  bool converged = false;
  std::uint32_t batch_cols = 0;
  double latency_ms = 0.0;  ///< arrival (scheduled) -> reply received
};

struct LevelResult {
  std::string mode;       ///< "open" or "closed"
  double offered = 0.0;   ///< rate (req/s) or concurrency
  std::size_t requests = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch_cols = 0.0;
  std::uint64_t total_iterations = 0;
};

/// Deterministic RHS for request `i`: the stream both the client and the
/// oracle regenerate independently. Mean-free for singular Laplacians so
/// the system is consistent.
linalg::Vector make_rhs(std::size_t n, std::uint64_t seed, std::uint64_t i,
                        bool mean_free) {
  support::Rng rng(support::mix64(seed, i));
  linalg::Vector b(n);
  for (double& v : b) v = rng.normal();
  if (mean_free) linalg::remove_mean(b);
  return b;
}

void send_solve(const Socket& sock, std::mutex& write_mu, const std::string& name,
                std::uint64_t id, const linalg::Vector& rhs) {
  PayloadWriter w;
  w.str(name);
  w.u64(rhs.size());
  w.f64_span(rhs);
  std::lock_guard<std::mutex> lock(write_mu);
  server::send_frame(sock, MsgType::kSolve, id, w.bytes());
}

Reply parse_reply(const Frame& frame) {
  if (frame.type() == MsgType::kError) {
    PayloadReader r(frame.payload);
    throw Error("server error for request " + std::to_string(frame.request_id()) +
                ": " + r.str());
  }
  if (frame.type() != MsgType::kSolveReply)
    throw Error("unexpected reply type " +
                std::to_string(static_cast<unsigned>(frame.header.type)));
  PayloadReader r(frame.payload);
  Reply out;
  const std::uint64_t n = r.u64();
  // n doubles must fit in the remaining payload; a corrupt length must not
  // become an 8n-byte allocation before f64_span would catch it.
  if (n > r.remaining() / sizeof(double))
    throw Error("solve reply declares more doubles than the payload carries");
  out.solution.resize(static_cast<std::size_t>(n));
  r.f64_span(out.solution);
  out.iterations = r.u64();
  r.f64();  // relative_residual (oracle re-derives it)
  out.converged = r.u8() != 0;
  out.batch_cols = r.u32();
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

LevelResult summarize(const std::vector<Reply>& replies, double wall_seconds) {
  LevelResult lvl;
  lvl.requests = replies.size();
  lvl.qps = static_cast<double>(replies.size()) / wall_seconds;
  std::vector<double> lat;
  lat.reserve(replies.size());
  double cols = 0.0;
  for (const Reply& r : replies) {
    lat.push_back(r.latency_ms);
    cols += r.batch_cols;
    lvl.total_iterations += r.iterations;
  }
  lvl.p50_ms = percentile(lat, 0.50);
  lvl.p99_ms = percentile(lat, 0.99);
  lvl.mean_batch_cols = replies.empty() ? 0.0 : cols / static_cast<double>(replies.size());
  return lvl;
}

/// Open-loop Poisson level: a sender thread fires requests on schedule, the
/// caller's thread collects replies. Latency is reply_time - SCHEDULED
/// arrival, so queueing delay from falling behind the schedule is charged
/// to the server (open-loop semantics).
LevelResult run_open_loop(const Socket& sock, const std::string& name, std::size_t n,
                          bool mean_free, std::uint64_t seed, std::size_t requests,
                          double rate, std::vector<Reply>& replies_out) {
  std::mutex write_mu;
  std::vector<Clock::time_point> scheduled(requests);
  const Clock::time_point start = Clock::now();

  // Pre-draw deterministic Poisson inter-arrival gaps.
  {
    support::Rng rng(support::mix64(seed, 0xA221));
    double t = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t));
    }
  }

  std::thread sender([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(scheduled[i]);
      send_solve(sock, write_mu, name, i, make_rhs(n, seed, i, mean_free));
    }
  });

  std::vector<Reply> replies(requests);
  Frame frame;
  for (std::size_t got = 0; got < requests; ++got) {
    if (!server::recv_frame(sock, frame)) throw Error("server closed mid-level");
    Reply r = parse_reply(frame);
    const std::uint64_t id = frame.request_id();
    if (id >= requests) throw Error("reply for unknown request id");
    r.latency_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - scheduled[id]).count();
    replies[id] = std::move(r);
  }
  sender.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  LevelResult lvl = summarize(replies, wall);
  lvl.mode = "open";
  lvl.offered = rate;
  replies_out = std::move(replies);
  return lvl;
}

/// Closed-loop level: `concurrency` requests pipelined; every reply
/// immediately refills the window. Latency is send -> reply.
LevelResult run_closed_loop(const Socket& sock, const std::string& name,
                            std::size_t n, bool mean_free, std::uint64_t seed,
                            std::size_t requests, std::size_t concurrency,
                            std::vector<Reply>& replies_out) {
  std::mutex write_mu;
  std::vector<Clock::time_point> sent(requests);
  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  auto fire = [&](std::size_t i) {
    sent[i] = Clock::now();
    send_solve(sock, write_mu, name, i, make_rhs(n, seed, i, mean_free));
  };
  for (; next < std::min(concurrency, requests); ++next) fire(next);

  std::vector<Reply> replies(requests);
  Frame frame;
  for (std::size_t got = 0; got < requests; ++got) {
    if (!server::recv_frame(sock, frame)) throw Error("server closed mid-level");
    Reply r = parse_reply(frame);
    const std::uint64_t id = frame.request_id();
    if (id >= requests) throw Error("reply for unknown request id");
    r.latency_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - sent[id]).count();
    replies[id] = std::move(r);
    if (next < requests) fire(next++);
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  LevelResult lvl = summarize(replies, wall);
  lvl.mode = "closed";
  lvl.offered = static_cast<double>(concurrency);
  replies_out = std::move(replies);
  return lvl;
}

std::vector<double> parse_csv(const std::string& s, const char* what) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(support::parse_number<double>(what, s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  support::Options opt(argc, argv);
  opt.reject_unknown({"socket", "spec", "requests", "rates", "concurrency", "seed", "warmup",
                      "quick", "json", "no-verify", "shutdown-server", "graph", "tolerance"});
  const bool quick = opt.get_bool("quick", false);
  const std::string socket_path = opt.get("socket", "/tmp/spar_solver.sock");
  const std::string spec = opt.get("spec", quick ? "gen:grid:24x24" : "gen:grid:64x64");
  const std::string name = opt.get("graph", "g");
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();
  const std::size_t requests =
      static_cast<std::size_t>(opt.get_int_in("requests", quick ? 48 : 200, 1, kNoCap));
  const std::size_t warmup = static_cast<std::size_t>(opt.get_int_in("warmup", 1, 0, kNoCap));
  const double tolerance = opt.get_double("tolerance", 1e-8);
  const bool verify = !opt.get_bool("no-verify", false);

  // Local twin of the server-side graph: the oracle and the RHS shapes.
  const graph::Graph g = spec.rfind("gen:", 0) == 0 ? graph::generate_spec(spec)
                                                    : graph::load_graph(spec);
  const solver::SDDMatrix m(g);
  const std::size_t n = m.dimension();
  const bool mean_free = m.is_singular();

  Socket sock = server::connect_unix(socket_path);

  // Register the graph (idempotent: replaces any previous binding of name).
  {
    PayloadWriter w;
    w.str(name);
    w.str(spec);
    server::send_frame(sock, MsgType::kRegisterGraph, 0, w.bytes());
    Frame frame;
    if (!server::recv_frame(sock, frame))
      throw Error("graph registration failed: server closed the connection");
    if (frame.type() != MsgType::kOk) {
      std::string detail;
      if (frame.type() == MsgType::kError) {
        PayloadReader r(frame.payload);
        detail = ": " + r.str();
      }
      throw Error("graph registration failed" + detail);
    }
  }

  // Warmup: force the server-side chain build before any timed level.
  {
    std::mutex write_mu;
    for (std::size_t i = 0; i < warmup; ++i)
      send_solve(sock, write_mu, name, i,
                 make_rhs(n, seed, 0x57A0000 + i, mean_free));
    Frame frame;
    for (std::size_t i = 0; i < warmup; ++i) {
      if (!server::recv_frame(sock, frame))
        throw Error("server closed during warmup");
      parse_reply(frame);  // discard; throws on kError
    }
  }

  std::vector<LevelResult> levels;
  std::vector<std::vector<Reply>> level_replies;
  if (opt.has("concurrency")) {
    for (double c : parse_csv(opt.get("concurrency", "16"), "--concurrency")) {
      std::vector<Reply> replies;
      levels.push_back(run_closed_loop(sock, name, n, mean_free, seed, requests,
                                       static_cast<std::size_t>(c), replies));
      level_replies.push_back(std::move(replies));
    }
  } else {
    const std::string rates = opt.get("rates", quick ? "200" : "4,16,64");
    for (double rate : parse_csv(rates, "--rates")) {
      std::vector<Reply> replies;
      levels.push_back(
          run_open_loop(sock, name, n, mean_free, seed, requests, rate, replies));
      level_replies.push_back(std::move(replies));
    }
  }

  // Bit-identity oracle: per-RHS solve_sdd against a locally built chain
  // (same spec, same default ChainOptions => same seeded construction as
  // the server's registry). Any deviation -- batching, eviction/rebuild,
  // the wire -- is a contract violation.
  std::size_t verified = 0;
  if (verify) {
    solver::SolveOptions sopt;
    sopt.tolerance = tolerance;
    const solver::InverseChain chain(m, sopt.chain);
    for (std::size_t l = 0; l < level_replies.size(); ++l) {
      for (std::size_t i = 0; i < level_replies[l].size(); ++i) {
        const auto local =
            solver::solve_sdd(m, chain, make_rhs(n, seed, i, mean_free), sopt);
        const linalg::Vector& remote = level_replies[l][i].solution;
        if (remote.size() != local.solution.size() ||
            std::memcmp(remote.data(), local.solution.data(),
                        remote.size() * sizeof(double)) != 0)
          throw Error("BIT-IDENTITY VIOLATION: level " + std::to_string(l) +
                      " request " + std::to_string(i) +
                      " differs from local solve_sdd");
        if (level_replies[l][i].iterations != local.iterations)
          throw Error("iteration-count mismatch at level " + std::to_string(l) +
                      " request " + std::to_string(i));
        ++verified;
      }
    }
  }

  if (opt.get_bool("shutdown-server", false)) {
    server::send_frame(sock, MsgType::kShutdown, 0, {});
    Frame frame;
    if (!server::recv_frame(sock, frame) || frame.type() != MsgType::kOk)
      throw Error("shutdown handshake failed");
  }

  std::ostringstream json;
  json << "{\"spec\":\"" << spec << "\",\"n\":" << n << ",\"requests\":" << requests
       << ",\"verified_bit_identical\":" << verified << ",\"levels\":[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& l = levels[i];
    json << (i ? "," : "") << "{\"mode\":\"" << l.mode << "\",\"offered\":" << l.offered
         << ",\"qps\":" << l.qps << ",\"p50_ms\":" << l.p50_ms
         << ",\"p99_ms\":" << l.p99_ms << ",\"mean_batch_cols\":" << l.mean_batch_cols
         << ",\"total_iterations\":" << l.total_iterations << "}";
  }
  json << "]}";

  for (const LevelResult& l : levels)
    std::printf("%-6s offered=%-8.0f qps=%-9.1f p50=%-8.3fms p99=%-8.3fms avg_batch=%.2f\n",
                l.mode.c_str(), l.offered, l.qps, l.p50_ms, l.p99_ms,
                l.mean_batch_cols);
  if (verify)
    std::printf("bit-identity: %zu/%zu replies match local solve_sdd exactly\n",
                verified, verified);

  if (opt.has("json")) {
    std::ofstream out(opt.get("json", ""));
    out << json.str() << "\n";
  } else {
    std::printf("%s\n", json.str().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load_gen: %s\n", e.what());
    return 1;
  }
}
