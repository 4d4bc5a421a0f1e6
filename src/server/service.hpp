// SolverService: the solver-as-a-service core -- an admission queue that
// coalesces concurrently arriving right-hand sides for the same graph into
// blocked solve_sdd_multi calls over registry-resident chains.
//
// Why batching wins: solve_sdd_multi traverses each chain level's CSR once
// per iteration for ALL columns in the block (PR 5 measured 2.5-3.5x total
// throughput at k = 16 vs per-RHS solves). A service with concurrent
// clients can manufacture that block shape at runtime: hold the first
// request of a batch for at most deadline_us, admit same-graph arrivals
// until the batch reaches max_batch columns, then dispatch. The tradeoff is
// explicit and bounded:
//
//   batch closes at max_batch columns  -> throughput-optimal block
//   ... or at the OLDEST request's     -> p99 latency never pays more than
//       deadline_us, whichever first      deadline_us of queueing
//
// Coalescing invariance: solve_sdd_multi's per-column bit-identity contract
// means a request's solution does not depend on WHICH batch served it or on
// how many neighbours it had -- responses are bit-identical to a standalone
// solve_sdd against the same chain. Batching changes throughput, never
// bytes. The load generator asserts exactly this end to end.
//
// Execution: the dispatcher thread runs each batch itself. The blocked
// kernels' parallel loops fan out over the process-wide TaskPool
// (support/parallel.hpp) like every other caller's, with chunk-deterministic
// results (identical across thread counts) by the substrate's contract.
// While a batch runs, arrivals queue; when it returns, the next batch admits
// everything already queued for its graph.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/multivector.hpp"
#include "server/chain_registry.hpp"

namespace spar::server {

struct ServiceOptions {
  /// Max right-hand sides coalesced into one blocked solve.
  std::size_t max_batch = 16;
  /// Max microseconds the oldest request of a forming batch may queue
  /// before the batch is dispatched regardless of size.
  std::uint64_t deadline_us = 2000;
  double tolerance = 1e-8;             ///< per-solve target relative residual
  std::size_t max_iterations = 20000;  ///< per-solve PCG iteration cap
  RegistryOptions registry;            ///< chain cache budget + build options
};

/// Outcome of one submitted request, delivered to its callback.
struct SolveResult {
  bool ok = false;
  std::string error;               ///< set when !ok
  linalg::Vector solution;
  std::uint64_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  std::uint32_t batch_cols = 0;    ///< columns in the batch that served this
  std::uint64_t queue_us = 0;      ///< submit -> dispatch wait
  std::uint64_t solve_us = 0;      ///< blocked solve wall time (whole batch)
};

/// Service-level counters (registry counters live in ChainRegistry::stats).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;          ///< blocked solves dispatched
  std::uint64_t batched_requests = 0; ///< requests served in a batch with k >= 2
  std::uint64_t size_closes = 0;      ///< batches closed by reaching max_batch
  std::uint64_t deadline_closes = 0;  ///< batches closed by deadline expiry
  std::size_t max_batch_seen = 0;
};

class SolverService {
 public:
  using Callback = std::function<void(SolveResult)>;

  explicit SolverService(ServiceOptions options);
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Installs (or replaces) a named graph in the registry.
  void put_graph(const std::string& name, graph::Graph g);

  /// Enqueues one solve of L(name) x = rhs. The callback fires exactly once,
  /// on the dispatcher thread, when the request's batch completes (or fails).
  /// Throws spar::Error after shutdown() has begun.
  void submit(const std::string& name, linalg::Vector rhs, Callback cb);

  /// Stops admission, drains every queued request (their callbacks still
  /// fire), and joins the dispatcher. Idempotent.
  void shutdown();

  ServiceStats stats() const;
  const ChainRegistry& registry() const { return registry_; }

  /// Everything above as a JSON object (service counters + per-chain
  /// registry stats), for the kStats RPC and ops logging.
  std::string stats_json() const;

 private:
  struct Pending {
    std::string name;
    linalg::Vector rhs;
    Callback cb;
    std::chrono::steady_clock::time_point enqueued;
  };
  using Batch = std::vector<Pending>;

  void dispatcher_main();
  /// Collects the next batch under the queue lock discipline; returns false
  /// when stopping and drained.
  bool next_batch(Batch& out);
  /// Runs one batch: acquire chain, blocked solve, per-column callbacks.
  void execute(Batch& batch);

  ServiceOptions options_;
  ChainRegistry registry_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< arrivals wake the dispatcher
  std::deque<Pending> queue_;
  ServiceStats stats_;
  bool stopping_ = false;

  std::thread dispatcher_;
};

}  // namespace spar::server
