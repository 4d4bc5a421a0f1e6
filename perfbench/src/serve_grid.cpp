// serve_grid: request -> reply through the solver_server daemon.
//
// The benchmark writes a 32x32 grid as SPARBIN, boots solver_server with
// its default options on a private UNIX socket, registers the file, and
// runs a closed loop with 16 solve requests in flight on one connection,
// as two groups of 8 that take turns on the daemon's pool worker,
// right-hand sides seeded and mean-free. The daemon is the system under
// test; the chain build happens once per boot and lands in set-up (spawn ->
// registered -> first reply, repeated and reported as a median). Steady
// state is chain apply and batching.
//
// Gate per reply (the load_gen oracle): bit-identical to a local solve_sdd
// on a chain built with the daemon's options, same iteration count, and
// converged.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/io_binary.hpp"
#include "layers.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

extern char** environ;

namespace perfbench {

using namespace spar;
using server::Frame;
using server::MsgType;
using server::PayloadReader;
using server::PayloadWriter;
using server::Socket;

namespace {

constexpr std::size_t kInFlight = 16;
constexpr std::size_t kGroups = 2;
constexpr std::size_t kGroupSize = kInFlight / kGroups;
/// The pause is well past the time the daemon's batcher takes to close the
/// next batch once its worker frees; the lead is well past the primer
/// batch's 2 ms deadline. Both are well under one batch solve.
constexpr std::chrono::milliseconds kResendPause{2};
constexpr std::chrono::milliseconds kPrimerLead{10};
constexpr std::uint64_t kWarmupId = std::uint64_t{1} << 40;
const std::string kGraphName = "grid";

/// A solver_server child on a private UNIX socket. shutdown() drains it over
/// the wire; the destructor kills and reaps a child that is still running,
/// so no path out of the benchmark leaves it behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socket_path)
      : socket_path_(socket_path) {
    const std::string socket_arg = "--socket=" + socket_path;
    char* argv[] = {const_cast<char*>(binary.c_str()), const_cast<char*>(socket_arg.c_str()),
                    nullptr};
    if (posix_spawn(&pid_, binary.c_str(), nullptr, nullptr, argv, environ) != 0) {
      pid_ = -1;
      throw Error("cannot start " + binary);
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      unlink(socket_path_.c_str());
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Connects once the daemon listens (it builds nothing before listening).
  Socket connect() const {
    const Clock::time_point start = Clock::now();
    while (true) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_)
        throw Error("solver_server exited before listening");
      try {
        return server::connect_unix(socket_path_);
      } catch (const std::exception&) {
        if (seconds_between(start, Clock::now()) > 60.0)
          throw Error("solver_server did not listen within 60 s");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  /// kShutdown handshake, then reaps the child; returns its peak RSS (MiB).
  double shutdown(const Socket& sock) {
    server::send_frame(sock, MsgType::kShutdown, 0, {});
    Frame frame;
    if (!server::recv_frame(sock, frame) || frame.type() != MsgType::kOk)
      throw Error("solver_server shutdown handshake failed");
    int status = 0;
    rusage ru{};
    wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw Error("solver_server did not exit cleanly");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

struct Reply {
  bool ok = false;
  std::string error;
  linalg::Vector solution;
  std::uint64_t iterations = 0;
  bool converged = false;
  std::uint32_t batch_cols = 0;
  std::uint64_t queue_us = 0;
  std::uint64_t solve_us = 0;
  Clock::time_point sent;
  Clock::time_point received;
};

Frame expect_frame(const Socket& sock) {
  Frame frame;
  if (!server::recv_frame(sock, frame)) throw Error("solver_server closed the connection");
  return frame;
}

void send_solve(const Socket& sock, std::uint64_t id, const linalg::Vector& rhs) {
  PayloadWriter w;
  w.str(kGraphName);
  w.u64(rhs.size());
  w.f64_span(rhs);
  server::send_frame(sock, MsgType::kSolve, id, w.bytes());
}

Reply parse_reply(const Frame& frame) {
  Reply out;
  PayloadReader r(frame.payload);
  if (frame.type() != MsgType::kSolveReply) {
    out.error = frame.type() == MsgType::kError ? "server error: " + r.str()
                                                : "unexpected reply type";
    return out;
  }
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / sizeof(double)) throw Error("solve reply shorter than declared");
  out.solution.resize(static_cast<std::size_t>(n));
  r.f64_span(out.solution);
  out.iterations = r.u64();
  r.f64();  // relative residual: the oracle compares solutions bit for bit
  out.converged = r.u8() != 0;
  out.batch_cols = r.u32();
  out.queue_us = r.u64();
  out.solve_us = r.u64();
  out.ok = true;
  return out;
}

/// Boots a daemon, registers the graph file, and waits for the first reply.
std::unique_ptr<ServerProcess> boot(const Config& cfg, const std::string& graph_path,
                                    std::size_t n, Socket& sock) {
  auto srv = std::make_unique<ServerProcess>(PERFBENCH_SERVER_PATH, cfg.out_dir + "/s.sock");
  sock = srv->connect();
  PayloadWriter w;
  w.str(kGraphName);
  w.str(graph_path);
  server::send_frame(sock, MsgType::kRegisterGraph, 0, w.bytes());
  if (expect_frame(sock).type() != MsgType::kOk) throw Error("graph registration failed");
  send_solve(sock, kWarmupId, make_rhs(n, cfg.seed, kWarmupId));
  const Reply warm = parse_reply(expect_frame(sock));
  if (!warm.ok) throw Error("warm-up solve failed: " + warm.error);
  return srv;
}

/// Where a closed loop sends its requests: the daemon over the socket, or
/// an in-process SolverService.
struct Endpoint {
  std::function<void(std::uint64_t id, const linalg::Vector& rhs)> send;
  /// Blocks for the next reply; returns its request id.
  std::function<std::uint64_t(Reply& out)> receive;
};

Endpoint daemon_endpoint(const Socket& sock) {
  return {[&sock](std::uint64_t id, const linalg::Vector& rhs) { send_solve(sock, id, rhs); },
          [&sock](Reply& out) {
            const Frame frame = expect_frame(sock);
            out = parse_reply(frame);
            return frame.request_id();
          }};
}

/// An in-process SolverService with the daemon's defaults.
class InprocService {
 public:
  explicit InprocService(const graph::Graph& g) { service_.put_graph(kGraphName, g); }
  InprocService(const InprocService&) = delete;
  InprocService& operator=(const InprocService&) = delete;

  Endpoint endpoint() {
    return {[this](std::uint64_t id, const linalg::Vector& rhs) {
              service_.submit(kGraphName, rhs, [this, id](server::SolveResult res) {
                Reply r;
                r.ok = res.ok;
                r.error = std::move(res.error);
                r.solution = std::move(res.solution);
                r.iterations = res.iterations;
                r.converged = res.converged;
                r.batch_cols = res.batch_cols;
                r.queue_us = res.queue_us;
                r.solve_us = res.solve_us;
                std::lock_guard<std::mutex> lock(mu_);
                done_.emplace_back(id, std::move(r));
                cv_.notify_all();
              });
            },
            [this](Reply& out) {
              std::unique_lock<std::mutex> lock(mu_);
              cv_.wait(lock, [this] { return !done_.empty(); });
              const std::uint64_t id = done_.front().first;
              out = std::move(done_.front().second);
              done_.pop_front();
              return id;
            }};
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::uint64_t, Reply>> done_;
  // Declared last: it drains before what its callbacks touch goes.
  server::SolverService service_{server::ServiceOptions{}};
};

/// One closed loop: every reply (all are verified) and the timed window.
/// Requests sent inside the window are the latency sample.
struct Loop {
  std::vector<Reply> replies;
  std::vector<Clock::time_point> completions;  ///< of groups, inside the window
  Clock::time_point window_start;
  Clock::time_point window_end;

  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const Reply& r : replies)
      if (r.sent >= window_start && r.sent < window_end)
        out.push_back(ms_between(r.sent, r.received));
    return out;
  }
  /// Times between consecutive group completions: each is one batch on the
  /// worker.
  std::vector<double> batch_gaps_s() const {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < completions.size(); ++i)
      gaps.push_back(seconds_between(completions[i - 1], completions[i]));
    return gaps;
  }
  /// Replies per second: a group's replies over the median batch.
  double qps() const { return static_cast<double>(kGroupSize) / median(batch_gaps_s()); }
};

/// Closed loop: kInFlight requests in flight as kGroups groups that take
/// turns on the service's single pool worker. A group goes out again, its
/// requests back to back, kResendPause after its last reply; by then the
/// other group's batch has closed and is solving, so this group arrives
/// whole while the worker is busy and waits as one batch. Batches never
/// split or merge, and the worker never idles.
///
/// Two loops were tried first. With each reply releasing one request,
/// millisecond scheduling jitter decided how the 2 ms batch deadline split
/// arrivals, and throughput moved by a third from run to run. With waves of
/// all 16, the worker idled while a wave was read in, and under host load
/// that outlasted the deadline and split batches at random.
///
/// Start-up: a lone primer request keeps the worker busy while group 0
/// arrives, and group 1 goes out once group 0's batch has replaced it. The
/// first group sent `warmup_s` after the call opens the timed window (the
/// first seconds after a boot run slow); the window closes when a group
/// completes `seconds` or more after it opened, once `min_timed` requests
/// were sent in it and three groups completed in it, and the loop then
/// drains. Request ids run from `first_id`; replies are indexed by
/// id - first_id.
Loop closed_loop(const Endpoint& ep, std::size_t n, std::uint64_t seed, std::uint64_t first_id,
                 double warmup_s, double seconds, std::size_t min_timed) {
  Loop loop;
  const Clock::time_point warm_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  bool timing = false;
  std::size_t timed_sent = 0;
  std::vector<std::size_t> group_of;  // by reply index; kGroups: the primer
  std::array<std::size_t, kGroups + 1> outstanding{};
  auto send = [&](std::size_t g, std::size_t count) {
    const std::uint64_t first = first_id + loop.replies.size();
    std::vector<linalg::Vector> rhs;
    for (std::size_t i = 0; i < count; ++i) rhs.push_back(make_rhs(n, seed, first + i));
    if (g < kGroups && !timing && Clock::now() >= warm_until) {
      timing = true;
      loop.window_start = Clock::now();
    }
    for (std::size_t i = 0; i < count; ++i) {
      loop.replies.emplace_back().sent = Clock::now();
      group_of.push_back(g);
      ep.send(first + i, rhs[i]);
    }
    outstanding[g] = count;
    if (timing) timed_sent += count;
  };
  // Reads one reply; returns its group when that completed it, else -1.
  auto receive = [&]() -> int {
    Reply reply;
    const std::uint64_t id = ep.receive(reply);
    const std::uint64_t idx = id - first_id;
    if (id < first_id || idx >= loop.replies.size() ||
        loop.replies[idx].received != Clock::time_point{})
      throw Error("reply for an unknown request id");
    reply.sent = loop.replies[idx].sent;
    reply.received = Clock::now();
    loop.replies[idx] = std::move(reply);
    const std::size_t g = group_of[idx];
    return --outstanding[g] == 0 ? static_cast<int>(g) : -1;
  };

  send(kGroups, 1);
  std::this_thread::sleep_for(kPrimerLead);
  send(0, kGroupSize);
  while (receive() != static_cast<int>(kGroups)) {
  }
  std::this_thread::sleep_for(kResendPause);
  send(1, kGroupSize);
  for (std::size_t open = kGroups; open > 0;) {
    const int g = receive();
    if (g < 0) continue;
    const Clock::time_point now = Clock::now();
    if (open < kGroups) {
      --open;
      continue;
    }
    if (timing) loop.completions.push_back(now);
    if (!timing || seconds_between(loop.window_start, now) < seconds || timed_sent < min_timed ||
        loop.completions.size() < 3) {
      std::this_thread::sleep_for(kResendPause);
      send(static_cast<std::size_t>(g), kGroupSize);
    } else {
      loop.window_end = now;
      --open;
    }
  }
  return loop;
}

/// Reads one counter out of the daemon's stats JSON.
double stats_field(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) throw Error("stats JSON lacks " + key);
  return std::stod(json.substr(at + key.size() + 3));
}

std::string fetch_stats(const Socket& sock) {
  server::send_frame(sock, MsgType::kStats, 0, {});
  const Frame frame = expect_frame(sock);
  if (frame.type() != MsgType::kStatsReply) throw Error("stats request failed");
  PayloadReader r(frame.payload);
  return r.str();
}

/// Request spans for the trace: send -> reply, with the server-reported
/// queue and solve times placed at the end of the request they delayed.
void trace_requests(const std::vector<Reply>& replies, std::uint64_t first_id) {
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    const int track = 1 + static_cast<int>(i % kInFlight);
    const auto id = static_cast<std::int64_t>(first_id + i);
    const int req = tracer().add("serve.request", r.sent, r.received, -1, track, id);
    const Clock::time_point solve_from =
        std::max(r.sent, r.received - std::chrono::microseconds(r.solve_us));
    const Clock::time_point queue_from =
        std::max(r.sent, solve_from - std::chrono::microseconds(r.queue_us));
    tracer().add("server.queue", queue_from, solve_from, req, track, id);
    tracer().add("server.solve", solve_from, r.received, req, track, id);
  }
}

/// In-process SolverService with the daemon's defaults: the same closed
/// loop without the socket, reporting the per-request SolveResult timings.
void probe_inproc_service(const graph::Graph& g, double seconds, std::uint64_t seed,
                          Report& report) {
  const std::size_t n = g.num_vertices();
  InprocService inproc(g);
  const Endpoint ep = inproc.endpoint();
  {
    const Scope span("server.inproc_setup");  // builds the registry's chain
    Reply warm;
    ep.send(kWarmupId, make_rhs(n, seed, kWarmupId));
    ep.receive(warm);
    if (!warm.ok) throw Error("in-process warm-up solve failed: " + warm.error);
  }
  const std::uint64_t first_id = std::uint64_t{3} << 40;
  const int span = tracer().begin("server.inproc_loop");
  const Loop loop = closed_loop(ep, n, seed, first_id, 0.0, seconds, 0);
  tracer().end(span);

  std::vector<double> queue_ms, solve_ms;
  for (std::size_t i = 0; i < loop.replies.size(); ++i) {
    const Reply& r = loop.replies[i];
    tracer().add("server.inproc_request", r.sent, r.received, span,
                 1 + static_cast<int>(i % kInFlight), static_cast<std::int64_t>(first_id + i));
    if (r.sent < loop.window_start || r.sent >= loop.window_end) continue;
    queue_ms.push_back(static_cast<double>(r.queue_us) / 1e3);
    solve_ms.push_back(static_cast<double>(r.solve_us) / 1e3);
  }
  const std::vector<double> latency_ms = loop.latencies_ms();
  report.set("server.queue_ms_p50", median(queue_ms));
  report.set("server.solve_ms_p50", median(solve_ms));
  report.set("server.inproc_latency_p50_ms", median(latency_ms));
  std::printf("in-process service: %zu requests, p50 latency %.3f ms (queue %.3f ms, "
              "batch solve %.3f ms), %.3f replies/s\n",
              latency_ms.size(), median(latency_ms), median(queue_ms), median(solve_ms),
              loop.qps());
}

/// The oracle: solve_sdd per reply on the local chain, spread over worker
/// threads that each run the solver single-threaded (results are
/// bit-identical for any thread count, so this also checks that contract).
/// Returns one failure message per reply, empty when it passed.
std::vector<std::string> verify_replies(
    const solver::SDDMatrix& m, const solver::InverseChain& chain,
    const solver::SolveOptions& sopt, std::uint64_t seed,
    const std::vector<std::pair<const Reply*, std::uint64_t>>& checks) {
  std::vector<std::string> failures(checks.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    const support::par::ThreadLimit one_thread(1);
    for (std::size_t k; (k = next++) < checks.size();) {
      const Reply& r = *checks[k].first;
      const std::string id = std::to_string(checks[k].second);
      failures[k] = r.error;
      if (!r.ok) continue;
      try {
        const solver::SolveReport local =
            solver::solve_sdd(m, chain, make_rhs(m.dimension(), seed, checks[k].second), sopt);
        if (r.solution.size() != local.solution.size() ||
            std::memcmp(r.solution.data(), local.solution.data(),
                        r.solution.size() * sizeof(double)) != 0)
          failures[k] = "reply " + id + " differs from local solve_sdd";
        else if (r.iterations != local.iterations)
          failures[k] = "reply " + id + " iteration count differs";
        else if (!r.converged)
          failures[k] = "reply " + id + " did not converge";
      } catch (const std::exception& e) {
        failures[k] = "reply " + id + ": local solve failed: " + e.what();
      }
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < support::par::max_threads(); ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  return failures;
}

}  // namespace

void run_serve_grid(const Config& cfg, Report& report) {
  const graph::Vertex side = cfg.tiny ? 8 : 32;
  const std::string path = cfg.out_dir + "/serve_grid.spb";
  graph::save_binary(path, graph::grid2d(side, side));
  const std::size_t n = static_cast<std::size_t>(side) * side;

  // The client runs on one thread: the wire checksums are parallel loops,
  // and a 4-thread team woken per frame would compete with the daemon.
  std::optional<support::par::ThreadLimit> client_threads(std::in_place, 1);

  // Set-up: spawn -> registered -> first reply, once per daemon. Each daemon
  // then serves its share of the timed loop. A daemon served at one of two
  // speeds, ~1.6x apart, for its whole life, and which one changed from boot
  // to boot; so latency and throughput are the best daemon's (the slower
  // ones measured the host, not the program). Set-up and memory are medians.
  const int daemons = cfg.trace ? 1 : 3;
  const double warmup_s = cfg.tiny ? 0.2 : 3.0;
  const double loop_s = cfg.seconds / (cfg.trace ? 2 : daemons);
  // p95 needs >= 10 samples beyond it: at least 200 timed requests a daemon.
  const std::size_t min_timed = cfg.trace || cfg.tiny ? 0 : 200;
  std::vector<double> setup_s, peak_rss_mb;
  std::vector<Loop> loops;
  std::vector<std::uint64_t> first_ids;
  Loop traced;
  const std::uint64_t traced_first = std::uint64_t{1} << 41;
  double size_closes = 0.0, deadline_closes = 0.0;
  for (int d = 0; d < daemons; ++d) {
    Socket sock;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<ServerProcess> srv = boot(cfg, path, n, sock);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    const std::string stats_before = fetch_stats(sock);
    const Endpoint daemon = daemon_endpoint(sock);
    first_ids.push_back(static_cast<std::uint64_t>(d) << 36);
    loops.push_back(closed_loop(daemon, n, cfg.seed, first_ids.back(), warmup_s, loop_s, min_timed));
    if (cfg.trace) {
      tracer().set_enabled(true);
      const int span = tracer().begin("serve.closed_loop");
      traced = closed_loop(daemon, n, cfg.seed, traced_first, 0.0, loop_s, 0);
      trace_requests(traced.replies, traced_first);
      tracer().end(span);
    }
    const std::string stats_after = fetch_stats(sock);
    size_closes += stats_field(stats_after, "size_closes") - stats_field(stats_before, "size_closes");
    deadline_closes += stats_field(stats_after, "deadline_closes") -
                       stats_field(stats_before, "deadline_closes");
    peak_rss_mb.push_back(srv->shutdown(sock));
    const std::vector<double> latencies = loops.back().latencies_ms();
    std::printf("daemon %d: set-up %.3f s, %zu timed requests, p50 %.3f ms, p95 %.3f ms, "
                "%.3f replies/s\n",
                d, setup_s.back(), latencies.size(), percentile(latencies, 0.50),
                percentile(latencies, 0.95), loops.back().qps());
  }
  client_threads.reset();

  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", median(peak_rss_mb));
  std::vector<double> p50, p95, qps;
  for (const Loop& loop : loops) {
    const std::vector<double> latencies = loop.latencies_ms();
    p50.push_back(percentile(latencies, 0.50));
    p95.push_back(percentile(latencies, 0.95));
    qps.push_back(loop.qps());
  }
  report.set("latency_p50_ms", *std::min_element(p50.begin(), p50.end()));
  report.set("latency_p95_ms", *std::min_element(p95.begin(), p95.end()));
  report.set("qps", *std::max_element(qps.begin(), qps.end()));
  std::printf("latency: best of %d daemons, p50 %.3f ms, p95 %.3f ms, %.3f replies/s\n", daemons,
              report.get("latency_p50_ms"), report.get("latency_p95_ms"), report.get("qps"));
  double cols = 0.0;
  std::size_t replies = traced.replies.size();
  for (const Reply& r : traced.replies) cols += r.batch_cols;
  for (const Loop& loop : loops) {
    replies += loop.replies.size();
    for (const Reply& r : loop.replies) cols += r.batch_cols;
  }
  const double mean_cols = cols / static_cast<double>(replies);
  std::printf("daemons: mean batch %.2f columns, %.0f size closes, %.0f deadline closes, "
              "set-up %.3f s (median of %d)\n",
              mean_cols, size_closes, deadline_closes, median(setup_s), daemons);

  // Oracle: a local chain with the daemon's options, solve_sdd per reply.
  const graph::Graph g = traced_load(path);
  const solver::SDDMatrix m(g);
  solver::SolveOptions sopt;
  sopt.tolerance = server::ServiceOptions{}.tolerance;
  const Clock::time_point b0 = Clock::now();
  const int build = tracer().begin("solver.chain_build");
  const solver::InverseChain chain(m, server::RegistryOptions{}.chain);
  tracer().end(build);
  const double chain_build_s = seconds_between(b0, Clock::now());
  if (Reply& first = loops[0].replies[0]; cfg.corrupt == "reply" && first.ok)
    first.solution[0] = std::nextafter(first.solution[0], 1e300);
  std::vector<std::pair<const Reply*, std::uint64_t>> checks;  // reply, request id
  for (std::size_t d = 0; d < loops.size(); ++d)
    for (std::size_t i = 0; i < loops[d].replies.size(); ++i)
      checks.emplace_back(&loops[d].replies[i], first_ids[d] + i);
  for (std::size_t i = 0; i < traced.replies.size(); ++i)
    checks.emplace_back(&traced.replies[i], traced_first + i);
  const std::vector<std::string> failures = verify_replies(m, chain, sopt, cfg.seed, checks);
  for (const std::string& failure : failures) report.op(failure);

  probe_solver_layers(m, chain, chain_build_s, sopt, cfg.seed, report);
  if (cfg.trace) {
    report.set("graph.load_s", span_median_s("graph.load"));
    report.set("solver.chain_build_s", chain_build_s);
    report.set("server.mean_batch_cols", mean_cols);
    report.set("server.size_closes", size_closes);
    report.set("server.deadline_closes", deadline_closes);
    probe_inproc_service(g, cfg.tiny ? 0.5 : 4.0, cfg.seed, report);
    probe_sparsify_layers(g, report);
    set_trace_overhead(report, loops[0].latencies_ms(), traced.latencies_ms());
  }
}

}  // namespace perfbench
