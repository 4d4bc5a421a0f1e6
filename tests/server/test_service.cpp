// SolverService: admission queue + dynamic batching over registry chains.
//
// The central contract is coalescing invariance: whatever batches the
// dispatcher forms -- driven by arrival timing, max_batch, and deadline --
// every response is bit-identical to a standalone solve_sdd against the
// same (deterministically built) chain. Plus lifecycle: shutdown drains,
// callbacks fire exactly once, errors are delivered not thrown.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <vector>

#include "graph/generators.hpp"
#include "solver/solver.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::server {
namespace {

linalg::Vector test_rhs(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  linalg::Vector b(n);
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  return b;
}

/// Collects callback results and lets the test wait for a count.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<SolveResult> results;

  SolverService::Callback cb() {
    return [this](SolveResult r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(r));
      cv.notify_all();
    };
  }
  void wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return results.size() >= count; });
  }
};

TEST(SolverService, SolvesMatchStandaloneSolveSddBitwise) {
  ServiceOptions opt;
  opt.max_batch = 4;
  opt.deadline_us = 50000;  // generous: let requests coalesce
  SolverService service(opt);
  service.put_graph("g", graph::grid2d(13, 11));

  const graph::Graph local = graph::grid2d(13, 11);
  const solver::SDDMatrix m(local);
  const solver::InverseChain chain(m, solver::ChainOptions{});
  const std::size_t n = m.dimension();

  constexpr std::size_t kRequests = 8;
  Collector got;
  std::vector<std::pair<std::size_t, linalg::Vector>> expected;
  std::vector<SolveResult> ordered(kRequests);
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < kRequests; ++i) {
    const linalg::Vector rhs = test_rhs(n, 100 + i);
    solver::SolveOptions sopt;
    expected.emplace_back(i, solver::solve_sdd(m, chain, rhs, sopt).solution);
    service.submit("g", rhs, [&, i](SolveResult r) {
      ordered[i] = std::move(r);
      // Under the lock: the waiter cannot miss the wake-up, or return and
      // destroy the condition variable while notify_all still runs.
      std::lock_guard<std::mutex> lock(got.mu);
      if (done.fetch_add(1) + 1 == kRequests) got.cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(got.mu);
    got.cv.wait(lock, [&] { return done.load() == kRequests; });
  }
  for (const auto& [i, want] : expected) {
    const SolveResult& r = ordered[i];
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.converged);
    ASSERT_EQ(r.solution.size(), want.size());
    EXPECT_EQ(std::memcmp(r.solution.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "request " << i << ": batched response != standalone solve_sdd";
    EXPECT_GE(r.batch_cols, 1u);
    EXPECT_LE(r.batch_cols, opt.max_batch);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_GE(stats.batches, 1u);
}

TEST(SolverService, QueuedRequestsAllCoalesceIntoOneBatch) {
  // Regression: the admit loop once held a REFERENCE to the seed's name
  // while push_back reallocated the batch, so comparisons ran against a
  // dangling string and every batch silently capped at two columns.
  ServiceOptions opt;
  opt.max_batch = 16;
  opt.deadline_us = 200000;  // long: all submissions land before the close
  SolverService service(opt);
  service.put_graph("g", graph::grid2d(8, 9));
  constexpr std::size_t kRequests = 6;
  Collector got;
  for (std::size_t i = 0; i < kRequests; ++i)
    service.submit("g", test_rhs(72, 20 + i), got.cb());
  got.wait_for(kRequests);
  for (const SolveResult& r : got.results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_cols, kRequests)
        << "pre-queued same-graph requests must coalesce into one batch";
  }
}

TEST(SolverService, UnknownGraphDeliversErrorCallback) {
  SolverService service(ServiceOptions{});
  Collector got;
  service.submit("missing", linalg::Vector(10, 1.0), got.cb());
  got.wait_for(1);
  EXPECT_FALSE(got.results[0].ok);
  EXPECT_NE(got.results[0].error.find("unknown graph"), std::string::npos);
}

TEST(SolverService, WrongRhsSizeFailsTheRequestNotTheService) {
  ServiceOptions opt;
  opt.deadline_us = 100;
  SolverService service(opt);
  service.put_graph("g", graph::grid2d(6, 6));
  Collector got;
  service.submit("g", linalg::Vector(7, 1.0), got.cb());  // n = 36, not 7
  got.wait_for(1);
  EXPECT_FALSE(got.results[0].ok);
  // The service survives and keeps serving.
  service.submit("g", test_rhs(36, 3), got.cb());
  got.wait_for(2);
  EXPECT_TRUE(got.results[1].ok);
}

TEST(SolverService, BatchingDisabledServesSingletonsWithSameBits) {
  // Same request stream against a batching service and one with
  // max_batch = 1: batch_cols differ, bytes must not.
  const graph::Graph g = graph::grid2d(9, 12);
  const std::size_t n = g.num_vertices();
  auto run = [&](std::size_t max_batch) {
    ServiceOptions opt;
    opt.max_batch = max_batch;
    opt.deadline_us = 20000;
    SolverService service(opt);
    service.put_graph("g", graph::grid2d(9, 12));
    Collector got;
    std::vector<SolveResult> ordered(6);
    std::atomic<std::size_t> done{0};
    for (std::size_t i = 0; i < 6; ++i)
      service.submit("g", test_rhs(n, 40 + i), [&, i](SolveResult r) {
        ordered[i] = std::move(r);
        std::lock_guard<std::mutex> lock(got.mu);
        ++done;
        got.cv.notify_all();
      });
    std::unique_lock<std::mutex> lock(got.mu);
    got.cv.wait(lock, [&] { return done.load() == 6; });
    return ordered;
  };
  const auto batched = run(8);
  const auto singles = run(1);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(batched[i].ok && singles[i].ok);
    EXPECT_EQ(singles[i].batch_cols, 1u);
    EXPECT_EQ(std::memcmp(batched[i].solution.data(), singles[i].solution.data(),
                          batched[i].solution.size() * sizeof(double)),
              0)
        << "batching must never change response bytes (request " << i << ")";
  }
}

TEST(SolverService, ShutdownDrainsQueuedRequests) {
  ServiceOptions opt;
  opt.deadline_us = 200000;  // long deadline: requests are queued at shutdown
  opt.max_batch = 64;
  SolverService service(opt);
  service.put_graph("g", graph::grid2d(8, 8));
  Collector got;
  constexpr std::size_t kRequests = 5;
  for (std::size_t i = 0; i < kRequests; ++i)
    service.submit("g", test_rhs(64, 7 + i), got.cb());
  service.shutdown();  // must fire every callback before returning
  {
    std::lock_guard<std::mutex> lock(got.mu);
    ASSERT_EQ(got.results.size(), kRequests);
    for (const SolveResult& r : got.results) EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_THROW(service.submit("g", test_rhs(64, 1), got.cb()), spar::Error);
}

TEST(SolverService, StatsJsonCarriesServiceAndRegistryCounters) {
  ServiceOptions opt;
  opt.max_batch = 3;
  SolverService service(opt);
  service.put_graph("g", graph::grid2d(7, 7));
  Collector got;
  service.submit("g", test_rhs(49, 2), got.cb());
  got.wait_for(1);
  const std::string json = service.stats_json();
  for (const char* key :
       {"\"requests\":", "\"batches\":", "\"deadline_closes\":", "\"registry\":",
        "\"chains\":", "\"name\":\"g\"", "\"builds\":1"})
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
}

TEST(SolverService, StatsJsonEscapesControlCharactersInGraphNames) {
  // Regression: a client-supplied graph name with control characters (or
  // quotes/backslashes) must not produce invalid JSON from kStats.
  SolverService service(ServiceOptions{});
  const std::string name = "bad\nname\t\"q\"\\v\r\x01x";
  service.put_graph(name, graph::grid2d(5, 5));
  const std::string json = service.stats_json();
  for (const char c : json)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character leaked into " << json;
  EXPECT_NE(json.find("bad\\nname\\t\\\"q\\\"\\\\v\\r\\u0001x"),
            std::string::npos)
      << json;
}

TEST(SolverService, PoolWidthDoesNotChangeResponseBits) {
  // The dispatcher solves each batch at the process pool's full width;
  // replies must equal a one-thread local solve_sdd bit for bit by the
  // substrate's chunk-determinism contract.
  const graph::Graph g = graph::grid2d(10, 14);
  const std::size_t n = g.num_vertices();
  const auto served = [&] {
    ServiceOptions opt;
    opt.deadline_us = 10000;
    SolverService service(opt);
    service.put_graph("g", graph::grid2d(10, 14));
    std::vector<SolveResult> ordered(4);
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    for (std::size_t i = 0; i < 4; ++i)
      service.submit("g", test_rhs(n, 60 + i), [&, i](SolveResult r) {
        ordered[i] = std::move(r);
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load() == 4; });
    return ordered;
  }();

  const support::par::ThreadLimit one_thread(1);
  const solver::SDDMatrix m(g);
  solver::SolveOptions sopt;
  sopt.tolerance = ServiceOptions{}.tolerance;
  const solver::InverseChain chain(m, RegistryOptions{}.chain);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(served[i].ok) << served[i].error;
    const auto local = solver::solve_sdd(m, chain, test_rhs(n, 60 + i), sopt);
    ASSERT_EQ(served[i].solution.size(), local.solution.size());
    EXPECT_EQ(std::memcmp(served[i].solution.data(), local.solution.data(),
                          local.solution.size() * sizeof(double)),
              0)
        << "pool width changed bytes (request " << i << ")";
  }
}

}  // namespace
}  // namespace spar::server
