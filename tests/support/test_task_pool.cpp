// TaskPool: the worker pool behind every parallel loop and the solver
// service.
//
// The contracts under test:
//  * run_indexed executes every index exactly once, with the caller helping;
//  * nesting is deadlock-free: a task body may itself call run_indexed /
//    parallel_for, which dispatches onto the SAME workers;
//  * pool execution keeps the substrate's determinism contract: loops run
//    inside a pool task (on that pool) give the bits of a one-thread run;
//  * exceptions from task bodies propagate to the caller of run_indexed;
//  * thread_id() stays in [0, parallel_width) inside a loop body, so
//    WorkerLocal slot indexing is race-free under the pool.
#include "support/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace spar::support {
namespace {

TEST(TaskPool, RunIndexedCoversEveryIndexOnce) {
  par::TaskPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_indexed(1000, [&](std::int64_t i, int) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, ThreadCountRequestClampsToOneWorker) {
  // A pool always has at least one worker: detached tasks (submit/async)
  // need SOMEONE to run them even when the caller asked for zero.
  par::TaskPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  EXPECT_EQ(pool.parallel_width(), 2);
  std::vector<std::atomic<int>> hits(64);
  pool.run_indexed(64, [&](std::int64_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.parallel_width());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, NestedRunIndexedDoesNotDeadlock) {
  par::TaskPool pool(2);
  std::atomic<int> total{0};
  pool.run_indexed(4, [&](std::int64_t, int) {
    // Nested dispatch onto the same pool: workers help instead of blocking.
    pool.run_indexed(8, [&](std::int64_t, int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
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
  par::TaskPool pool(3);
  // A pool worker's loops run on its own pool, at the pool's width.
  const std::vector<double> pooled = pool.async([&] {
                                           EXPECT_EQ(par::max_threads(), pool.parallel_width());
                                           return fill();
                                         }).get();
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
  par::TaskPool pool(4);
  const double pooled = pool.async(reduce).get();
  // Chunk-order combines => bit-identical, not merely approximately equal.
  EXPECT_EQ(pooled, serial);
}

TEST(TaskPool, ConcurrentCallersEachCompleteTheirGroups) {
  // Several external threads share one pool's workers: each group still runs
  // every index once, and each caller's worker ids stay below its width.
  par::TaskPool pool(3);
  std::vector<std::thread> callers;
  std::vector<std::int64_t> sums(4, 0);
  std::atomic<bool> bad{false};
  for (std::size_t t = 0; t < sums.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<std::int64_t>> part(static_cast<std::size_t>(pool.parallel_width()));
        pool.run_indexed(200, [&](std::int64_t i, int worker) {
          if (worker < 0 || worker >= pool.parallel_width()) bad.store(true);
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
  std::atomic<bool> bad{false};
  pool.run_indexed(256, [&](std::int64_t, int worker) {
    const int id = par::thread_id();
    if (id < 0 || id >= pool.parallel_width()) bad.store(true);
    if (worker < 0 || worker >= pool.parallel_width()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(TaskPool, BodyExceptionPropagatesToCaller) {
  par::TaskPool pool(2);
  EXPECT_THROW(
      pool.run_indexed(100,
                       [&](std::int64_t i, int) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing group and stays usable.
  std::atomic<int> ok{0};
  pool.run_indexed(10, [&](std::int64_t, int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(TaskPool, AsyncReturnsValueAndRunsOnWorker) {
  par::TaskPool pool(2);
  auto f = pool.async([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(TaskPool, SubmitRunsDetachedTasks) {
  par::TaskPool pool(2);
  std::atomic<int> ran{0};
  std::promise<void> done;
  auto fut = done.get_future();
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      if (ran.fetch_add(1) + 1 == 8) done.set_value();
    });
  fut.wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskPool, WorkerLocalSlotsDoNotCollideUnderPool) {
  par::TaskPool pool(3);
  // One scratch accumulator per worker id; slot ownership is the substrate's
  // "worker id is stable within a call" guarantee, provided by the pool.
  // Run inside a pool task, so the loop dispatches onto this pool.
  pool.async([&] {
        par::WorkerLocal<std::uint64_t> counts;
        ASSERT_EQ(counts.size(), static_cast<std::size_t>(pool.parallel_width()));
        std::atomic<std::uint64_t> grand{0};
        par::parallel_chunks(0, 10000,
                             [&](std::int64_t cb, std::int64_t ce, std::int64_t, int worker) {
                               counts.local(worker, [] { return std::uint64_t{0}; }) +=
                                   static_cast<std::uint64_t>(ce - cb);
                               grand.fetch_add(static_cast<std::uint64_t>(ce - cb));
                             });
        EXPECT_EQ(grand.load(), 10000u);
      })
      .get();
}

}  // namespace
}  // namespace spar::support
