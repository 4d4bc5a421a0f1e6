#include "support/work_counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace spar::support {
namespace {

TEST(WorkCounter, StartsAtZero) {
  WorkCounter wc;
  EXPECT_EQ(wc.total(), 0u);
}

TEST(WorkCounter, AccumulatesSerially) {
  WorkCounter wc;
  wc.add(3);
  wc.add(4);
  EXPECT_EQ(wc.total(), 7u);
}

TEST(WorkCounter, ResetClears) {
  WorkCounter wc;
  wc.add(10);
  wc.reset();
  EXPECT_EQ(wc.total(), 0u);
}

TEST(WorkCounter, ParallelAccumulationIsExact) {
  WorkCounter wc;
  const int iterations = 100000;
  par::parallel_for(0, iterations, [&](std::int64_t) { wc.add(1); });
  EXPECT_EQ(wc.total(), static_cast<std::uint64_t>(iterations));
}

TEST(WorkCounter, ConcurrentLoopsSharingACounterLoseNothing) {
  // Two loops running at once reuse worker ids (each caller is id 0), so
  // several threads add to one slot; no update may be lost.
  WorkCounter wc;
  constexpr int kCallers = 4;
  constexpr int kIterations = 200000;
  std::atomic<int> ready{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) {  // start together so the adds overlap
      }
      par::parallel_for(0, kIterations, [&](std::int64_t) { wc.add(1); });
      for (int i = 0; i < kIterations; ++i) wc.add(1);
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wc.total(), static_cast<std::uint64_t>(2 * kCallers * kIterations));
}

TEST(WorkScope, NullCounterIsNoop) {
  const WorkScope scope(nullptr);
  EXPECT_FALSE(scope.enabled());
  scope.add(100);  // must not crash
}

TEST(WorkScope, ForwardsToCounter) {
  WorkCounter wc;
  const WorkScope scope(&wc);
  EXPECT_TRUE(scope.enabled());
  scope.add(5);
  scope.add(6);
  EXPECT_EQ(wc.total(), 11u);
}

}  // namespace
}  // namespace spar::support
