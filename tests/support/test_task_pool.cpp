// TaskPool: the worker pool behind every parallel loop.
//
// The contracts under test:
//  * run() executes every index exactly once, with the caller helping;
//  * nesting is deadlock-free: a group body may itself call run() /
//    parallel_for, which claims idle workers and runs the rest inline;
//  * the process-wide pool keeps the substrate's determinism contract: loops
//    started by a second external caller give the bits of a one-thread run;
//  * exceptions from group bodies propagate to the caller of run();
//  * thread_id() stays below the group's width inside a loop body, so
//    WorkerLocal slot indexing is race-free under the pool.
#include "support/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace spar::support {
namespace {

TEST(TaskPool, RunIndexedCoversEveryIndexOnce) {
  par::TaskPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(1000, pool.workers() + 1, [&](std::int64_t i, int) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, ThreadCountRequestClampsToOneWorker) {
  // A request below one worker is clamped, not rejected: the pool then
  // behaves as any one-worker pool.
  par::TaskPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, pool.workers() + 1, [&](std::int64_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.workers() + 1);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, NestedRunIndexedDoesNotDeadlock) {
  par::TaskPool pool(2);
  std::atomic<int> total{0};
  pool.run(4, pool.workers() + 1, [&](std::int64_t, int) {
    // Nested dispatch onto the same pool: workers help instead of blocking.
    pool.run(8, pool.workers() + 1, [&](std::int64_t, int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

/// Runs `fn` on a thread of its own -- a second external caller of the
/// process pool, beside the test's main thread -- and returns its result.
template <typename F>
auto on_new_thread(F fn) {
  decltype(fn()) out{};
  std::thread([&] { out = fn(); }).join();
  return out;
}

TEST(TaskPool, ParallelForUnderPoolIsBitIdenticalToSerial) {
  const std::int64_t n = 4096;
  auto fill = [n] {
    std::vector<double> out(n);
    par::parallel_for(0, n, [&](std::int64_t i) {
      out[i] = 1.0 / static_cast<double>(i + 1);
    });
    return out;
  };
  const std::vector<double> serial = [&] {
    par::ThreadLimit limit(1);
    return fill();
  }();
  // A new thread's loops run on the process pool, at its full width.
  int width = 0;
  const std::vector<double> pooled = on_new_thread([&] {
    width = par::max_threads();
    return fill();
  });
  EXPECT_EQ(width, par::detail::process_width());
  EXPECT_EQ(pooled, serial);
}

TEST(TaskPool, ParallelReduceUnderPoolMatchesSerialExactly) {
  const std::int64_t n = 100000;
  auto reduce = [n] {
    return par::parallel_reduce(
        std::int64_t{0}, n, 0.0,
        [](std::int64_t b, std::int64_t e) {
          double s = 0.0;
          for (std::int64_t i = b; i < e; ++i) s += 1.0 / static_cast<double>(i + 1);
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = [&] {
    par::ThreadLimit limit(1);
    return reduce();
  }();
  const double pooled = on_new_thread(reduce);
  // Chunk-order combines => bit-identical, not merely approximately equal.
  EXPECT_EQ(pooled, serial);
}

TEST(TaskPool, ConcurrentCallersEachCompleteTheirGroups) {
  // Several external threads share one pool's workers: each group still runs
  // every index once, and each caller's worker ids stay below its width.
  par::TaskPool pool(3);
  const int width = pool.workers() + 1;
  std::vector<std::thread> callers;
  std::vector<std::int64_t> sums(4, 0);
  std::atomic<bool> bad{false};
  for (std::size_t t = 0; t < sums.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<std::int64_t>> part(static_cast<std::size_t>(width));
        pool.run(200, width, [&](std::int64_t i, int worker) {
          if (worker < 0 || worker >= width) bad.store(true);
          part[static_cast<std::size_t>(worker)].fetch_add(i);
        });
        for (const auto& p : part) sums[t] += p.load();
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_FALSE(bad.load());
  for (const std::int64_t s : sums) EXPECT_EQ(s, 50 * (199 * 200 / 2));
}

TEST(TaskPool, ThreadIdStaysInsideParallelWidth) {
  par::TaskPool pool(3);
  const int width = pool.workers() + 1;
  std::atomic<bool> bad{false};
  pool.run(256, width, [&](std::int64_t, int worker) {
    const int id = par::thread_id();
    if (id < 0 || id >= width) bad.store(true);
    if (worker < 0 || worker >= width) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(TaskPool, BodyExceptionPropagatesToCaller) {
  par::TaskPool pool(2);
  const int width = pool.workers() + 1;
  EXPECT_THROW(pool.run(100, width,
                        [&](std::int64_t i, int) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing group and stays usable.
  std::atomic<int> ok{0};
  pool.run(10, width, [&](std::int64_t, int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(TaskPool, WorkerLocalSlotsDoNotCollideUnderPool) {
  // One scratch accumulator per worker id; slot ownership is the substrate's
  // "worker id is stable within a call" guarantee, provided by the pool.
  // Run on a second external caller, so the loop dispatches onto the process
  // pool beside the main thread.
  std::thread([&] {
    par::WorkerLocal<std::uint64_t> counts;
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(par::detail::process_width()));
    std::atomic<std::uint64_t> grand{0};
    par::parallel_chunks(0, 10000,
                         [&](std::int64_t cb, std::int64_t ce, std::int64_t, int worker) {
                           counts.local(worker, [] { return std::uint64_t{0}; }) +=
                               static_cast<std::uint64_t>(ce - cb);
                           grand.fetch_add(static_cast<std::uint64_t>(ce - cb));
                         });
    EXPECT_EQ(grand.load(), 10000u);
  }).join();
}

}  // namespace
}  // namespace spar::support
