// solver_server: the solver-as-a-service daemon.
//
// Listens on a UNIX socket, keeps named graphs with prebuilt inverse chains
// resident (chain_registry.hpp), and coalesces concurrent solve requests
// into blocked solves (service.hpp). One thread per connection reads
// frames; responses for a connection are written in request order.
//
//   solver_server --socket=/tmp/spar.sock
//     [--max-batch=16] [--deadline-us=2000] [--chain-memory-budget=BYTES]
//     [--tolerance=1e-8] [--max-iterations=20000]
//     [--graph=name=gen:grid:64x64 ...]
//
// --max-batch=1 serves every request alone (the per-request baseline). An
// option not listed here is an error. Solves run on the process-wide thread
// pool (OMP_NUM_THREADS wide when set, else as wide as the CPUs it may use).
//
// --graph preloads name->spec pairs at startup (clients can also register
// graphs over the wire with kRegisterGraph). A kShutdown frame from any
// client drains the service and exits cleanly.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "support/error.hpp"
#include "support/options.hpp"

namespace {

using namespace spar;
using server::Frame;
using server::MsgType;
using server::PayloadReader;
using server::PayloadWriter;
using server::Socket;

graph::Graph load_spec(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) return graph::generate_spec(spec);
  return graph::load_graph(spec);
}

/// Per-connection state: frames in, frames out. Responses must go out in
/// request order even though batched solves complete asynchronously, so
/// each request gets a ticket and a writer lock serializes the socket.
class Connection {
 public:
  Connection(Socket sock, server::SolverService& service, std::atomic<bool>& stop)
      : sock_(std::move(sock)), service_(service), stop_flag_(stop) {}

  void run() {
    Frame frame;
    try {
      while (server::recv_frame(sock_, frame)) {
        switch (frame.type()) {
          case MsgType::kRegisterGraph:
            handle_register(frame);
            break;
          case MsgType::kSolve:
            handle_solve(frame);
            break;
          case MsgType::kStats:
            handle_stats(frame);
            break;
          case MsgType::kShutdown:
            reply_ok(frame.request_id());
            stop_flag_.store(true);
            return;
          default:
            server::send_error(sock_, frame.request_id(),
                               "unknown message type " +
                                   std::to_string(static_cast<unsigned>(
                                       frame.header.type)));
        }
      }
    } catch (const std::exception& e) {
      // Protocol violation or peer vanished mid-frame: drop the connection.
      std::fprintf(stderr, "[solver_server] connection error: %s\n", e.what());
    }
    drain_pending();
  }

  /// Unblocks a reader parked in recv_frame (shutdown path): the socket is
  /// half-closed, read sees EOF, run() unwinds. The fd itself stays owned
  /// by the Connection until its thread joins.
  void abort_socket() { sock_.shutdown_rw(); }

 private:
  void handle_register(const Frame& frame) {
    PayloadReader r(frame.payload);
    const std::string name = r.str();
    const std::string spec = r.str();
    try {
      service_.put_graph(name, load_spec(spec));
      reply_ok(frame.request_id());
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(write_mu_);
      server::send_error(sock_, frame.request_id(), e.what());
    }
  }

  void handle_solve(const Frame& frame) {
    PayloadReader r(frame.payload);
    const std::string name = r.str();
    const std::uint64_t n = r.u64();
    // n doubles must fit in the REMAINING payload bytes; comparing the count
    // against the byte length would let a 1 GiB frame demand an 8 GiB vector.
    if (n > r.remaining() / sizeof(double)) {
      server::send_error(sock_, frame.request_id(), "rhs length exceeds payload");
      return;
    }
    linalg::Vector rhs(static_cast<std::size_t>(n));
    r.f64_span(rhs);

    // Responses go out on THIS thread's socket from a service thread; the
    // pending counter lets the reader drain before closing.
    pending_.fetch_add(1);
    const std::uint64_t id = frame.request_id();
    try {
      service_.submit(name, std::move(rhs), [this, id](server::SolveResult res) {
        std::lock_guard<std::mutex> lock(write_mu_);
        try {
          if (!res.ok) {
            server::send_error(sock_, id, res.error);
          } else {
            PayloadWriter w;
            w.u64(res.solution.size());
            w.f64_span(res.solution);
            w.u64(res.iterations);
            w.f64(res.relative_residual);
            w.u8(res.converged ? 1 : 0);
            w.u32(res.batch_cols);
            w.u64(res.queue_us);
            w.u64(res.solve_us);
            server::send_frame(sock_, MsgType::kSolveReply, id, w.bytes());
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[solver_server] reply failed: %s\n", e.what());
        }
        if (pending_.fetch_sub(1) == 1) {
          // Lock before notify so the decrement can't slip between
          // drain_pending's predicate check and its sleep.
          std::lock_guard<std::mutex> pl(pending_mu_);
          pending_cv_.notify_all();
        }
      });
    } catch (const std::exception& e) {
      pending_.fetch_sub(1);
      std::lock_guard<std::mutex> lock(write_mu_);
      server::send_error(sock_, id, e.what());
    }
  }

  void handle_stats(const Frame& frame) {
    PayloadWriter w;
    w.str(service_.stats_json());
    std::lock_guard<std::mutex> lock(write_mu_);
    server::send_frame(sock_, MsgType::kStatsReply, frame.request_id(), w.bytes());
  }

  void reply_ok(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(write_mu_);
    server::send_frame(sock_, MsgType::kOk, id, {});
  }

  void drain_pending() {
    std::unique_lock<std::mutex> lock(pending_mu_);
    pending_cv_.wait(lock, [this] { return pending_.load() == 0; });
  }

  Socket sock_;
  server::SolverService& service_;
  std::atomic<bool>& stop_flag_;
  std::mutex write_mu_;
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::atomic<int> pending_{0};
};

int run(int argc, char** argv) {
  support::Options opt(argc, argv);
  // Flag and range checks come before any thread starts or socket binds.
  opt.reject_unknown({"socket", "max-batch", "deadline-us", "tolerance", "max-iterations",
                      "chain-memory-budget", "graph"});
  const std::string socket_path = opt.get("socket", "/tmp/spar_solver.sock");

  constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();
  server::ServiceOptions service_opt;
  service_opt.max_batch =
      static_cast<std::size_t>(opt.get_int_in("max-batch", 16, 1, kNoCap));
  service_opt.deadline_us =
      static_cast<std::uint64_t>(opt.get_int_in("deadline-us", 2000, 0, kNoCap));
  service_opt.tolerance = opt.get_double("tolerance", 1e-8);
  service_opt.max_iterations =
      static_cast<std::size_t>(opt.get_int_in("max-iterations", 20000, 1, kNoCap));
  service_opt.registry.memory_budget_bytes =
      static_cast<std::size_t>(opt.get_int_in("chain-memory-budget", 0, 0, kNoCap));

  server::SolverService service(service_opt);

  // --graph=name=spec preloads; repeatable via comma separation.
  if (opt.has("graph")) {
    std::string list = opt.get("graph", "");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t comma = list.find(',', pos);
      // gen specs contain ':' but not ','; commas split entries.
      if (comma == std::string::npos) comma = list.size();
      const std::string pair = list.substr(pos, comma - pos);
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        throw Error("--graph wants name=spec, got: " + pair);
      service.put_graph(pair.substr(0, eq), load_spec(pair.substr(eq + 1)));
      pos = comma + 1;
    }
  }

  server::Listener listener = server::Listener::unix_domain(socket_path);
  std::atomic<bool> stop{false};
  std::fprintf(stderr, "[solver_server] listening on %s (max-batch=%zu deadline-us=%llu)\n",
               socket_path.c_str(), service_opt.max_batch,
               static_cast<unsigned long long>(service_opt.deadline_us));

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<Connection>> connections;
  // The acceptor blocks in accept(); a kShutdown handler sets `stop` and a
  // watcher thread closes the listener to break the accept loop.
  std::thread watcher([&] {
    while (!stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.shutdown();
  });
  while (true) {
    Socket client = listener.accept();
    if (!client.valid()) break;  // listener shut down
    auto conn = std::make_shared<Connection>(std::move(client), service, stop);
    connections.push_back(conn);
    threads.emplace_back([conn] { conn->run(); });
  }
  stop.store(true);
  watcher.join();
  // Drain order matters: finish every in-flight solve first (all replies go
  // out inside service.shutdown()'s wait), THEN half-close the sockets so
  // connections idling in recv_frame -- e.g. a second client that never
  // sent kShutdown -- see EOF and unwind instead of pinning their threads.
  service.shutdown();
  for (const auto& conn : connections) conn->abort_socket();
  for (std::thread& t : threads) t.join();
  std::fprintf(stderr, "[solver_server] drained, exiting: %s\n",
               service.stats_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solver_server: %s\n", e.what());
    return 1;
  }
}
