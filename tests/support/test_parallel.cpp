// The parallel substrate's contracts: full coverage of the index space,
// thread-count-independent chunking, deterministic reductions, serial-path
// equivalence, and per-chunk RNG stream stability. These properties are what
// every randomized parallel algorithm in libspar leans on.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace spar::support {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(0, n, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  int calls = 0;
  par::parallel_for(0, 0, [&](std::int64_t) { ++calls; });
  par::parallel_for(5, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, DisabledOptRunsSerially) {
  // enable=false must take the serial path: thread_id() inside is 0.
  std::atomic<int> nonzero_tid{0};
  par::parallel_for(
      0, 1000,
      [&](std::int64_t) {
        if (par::thread_id() != 0) nonzero_tid.fetch_add(1);
      },
      {.enable = false});
  EXPECT_EQ(nonzero_tid.load(), 0);
}

TEST(ParallelChunks, PartitionsRangeExactly) {
  const std::int64_t begin = 7, end = 12345, grain = 128;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(end), 0);
  std::atomic<std::int64_t> chunk_count{0};
  par::parallel_chunks(
      begin, end,
      [&](std::int64_t cb, std::int64_t ce, std::int64_t chunk, int worker) {
        EXPECT_GE(cb, begin);
        EXPECT_LE(ce, end);
        EXPECT_LT(cb, ce);
        EXPECT_GE(chunk, 0);
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, par::max_threads());
        // Chunk boundaries must be a pure function of (range, grain).
        EXPECT_EQ(cb, begin + chunk * grain);
        for (std::int64_t i = cb; i < ce; ++i) seen[static_cast<std::size_t>(i)]++;
        chunk_count.fetch_add(1);
      },
      {.grain = grain});
  for (std::int64_t i = begin; i < end; ++i) EXPECT_EQ(seen[i], 1) << i;
  EXPECT_EQ(chunk_count.load(), (end - begin + grain - 1) / grain);
}

TEST(ParallelReduce, MatchesSerialFold) {
  const std::int64_t n = 50000;
  const auto sum = par::parallel_reduce(
      0, n, std::int64_t{0},
      [](std::int64_t cb, std::int64_t ce) {
        std::int64_t s = 0;
        for (std::int64_t i = cb; i < ce; ++i) s += i;
        return s;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  // Floating-point partials are combined in chunk order, so the result is
  // bit-identical for every thread count -- the property a reduction over
  // per-thread partials does NOT give.
  const std::int64_t n = 200000;
  std::vector<double> values(static_cast<std::size_t>(n));
  Rng rng(99);
  for (double& v : values) v = rng.uniform(-1.0, 1.0);

  const auto run = [&] {
    return par::parallel_sum(0, n, [&](std::int64_t i) {
      return values[static_cast<std::size_t>(i)];
    });
  };
  double base;
  {
    par::ThreadLimit one(1);
    base = run();
  }
  for (int threads : {2, 4}) {
    par::ThreadLimit limit(threads);
    EXPECT_EQ(base, run()) << threads << " threads";
  }
}

TEST(ParallelReduce, SerialAndParallelPathsAgreeBitwise) {
  // enable=false forces the inline path; it must chunk identically, so a
  // disabled or one-thread loop produces the same bits as a parallel one.
  const std::int64_t n = 150000;
  std::vector<double> values(static_cast<std::size_t>(n));
  Rng rng(7);
  for (double& v : values) v = rng.normal();
  const auto run = [&](bool enable) {
    return par::parallel_sum(
        0, n,
        [&](std::int64_t i) { return values[static_cast<std::size_t>(i)] * 1.5; },
        {.enable = enable});
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(ParallelReduce, ExplicitGrainOverridesDefault) {
  const std::int64_t n = 10000;
  int chunks_seen = 0;
  par::parallel_reduce(
      0, n, 0,
      [&](std::int64_t, std::int64_t) {
        ++chunks_seen;  // serial in this config: safe to count
        return 0;
      },
      [](int a, int b) { return a + b; }, {.grain = 1000, .enable = false});
  EXPECT_EQ(chunks_seen, 10);
}

TEST(DefaultGrain, PureFunctionOfRangeLength) {
  // Never a function of thread count: this is what keeps chunk layouts (and
  // thus reductions and RNG stream assignment) machine-independent.
  const auto g1 = par::default_grain(1 << 20);
  {
    par::ThreadLimit limit(4);
    EXPECT_EQ(par::default_grain(1 << 20), g1);
  }
  {
    par::ThreadLimit limit(1);
    EXPECT_EQ(par::default_grain(1 << 20), g1);
  }
  EXPECT_GE(par::default_grain(1), 1);
  EXPECT_GE(par::default_grain(1 << 30), (1 << 30) / (1 << 12));
}

TEST(ChunkRng, SameSeedAndChunkSameStream) {
  Rng a = par::chunk_rng(42, 7);
  Rng b = par::chunk_rng(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());
}

TEST(ChunkRng, DistinctChunksDistinctStreams) {
  Rng a = par::chunk_rng(42, 0);
  Rng b = par::chunk_rng(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 4);  // independent streams collide only by chance
}

TEST(ChunkRng, StreamsIndependentOfThreadCount) {
  // Drawing chunk streams inside a parallel loop yields the same per-chunk
  // values regardless of the thread count executing the loop.
  const std::int64_t n = 1 << 16;
  const std::int64_t grain = 1 << 10;
  const auto draw = [&] {
    std::vector<std::uint64_t> first_draw(static_cast<std::size_t>(n / grain));
    par::parallel_chunks(
        0, n,
        [&](std::int64_t, std::int64_t, std::int64_t chunk, int) {
          Rng rng = par::chunk_rng(5, static_cast<std::uint64_t>(chunk));
          first_draw[static_cast<std::size_t>(chunk)] = rng();
        },
        {.grain = grain});
    return first_draw;
  };
  std::vector<std::uint64_t> base;
  {
    par::ThreadLimit one(1);
    base = draw();
  }
  {
    par::ThreadLimit four(4);
    EXPECT_EQ(base, draw());
  }
}

TEST(ParallelCompact, MatchesSerialFilterAcrossThreadCounts) {
  const std::int64_t n = 50000;
  const auto keep = [](std::int64_t i) { return i % 3 == 0 || i % 7 == 0; };
  std::vector<std::int64_t> expected;
  for (std::int64_t i = 0; i < n; ++i)
    if (keep(i)) expected.push_back(i);

  for (int threads : {1, 2, 4}) {
    par::ThreadLimit limit(threads);
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
    const std::size_t kept = par::parallel_compact(
        0, n, keep,
        [&](std::int64_t i, std::size_t pos) { out[pos] = i; },
        {.grain = 512});
    ASSERT_EQ(kept, expected.size()) << threads << " threads";
    out.resize(kept);
    EXPECT_EQ(out, expected) << threads << " threads";
  }
}

TEST(ParallelCompact, RanksAreStableWithDefaultGrain) {
  // Ranks must equal the serial filter-append order even when the grain (and
  // therefore the chunk layout) is the default heuristic.
  const std::int64_t n = 300000;
  const auto keep = [](std::int64_t i) { return (i & 1) == 0; };
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
  const std::size_t kept = par::parallel_compact(
      0, n, keep, [&](std::int64_t i, std::size_t pos) { out[pos] = i; });
  ASSERT_EQ(kept, static_cast<std::size_t>(n / 2));
  for (std::size_t pos = 0; pos < kept; ++pos)
    ASSERT_EQ(out[pos], static_cast<std::int64_t>(2 * pos));
}

TEST(ParallelCompact, EdgeCases) {
  int calls = 0;
  const auto count = [&](std::int64_t, std::size_t) { ++calls; };
  EXPECT_EQ(par::parallel_compact(0, 0, [](std::int64_t) { return true; }, count), 0u);
  EXPECT_EQ(par::parallel_compact(9, 3, [](std::int64_t) { return true; }, count), 0u);
  EXPECT_EQ(calls, 0);
  // keep-none and keep-all.
  EXPECT_EQ(par::parallel_compact(0, 1000, [](std::int64_t) { return false; }, count,
                                  {.grain = 64}),
            0u);
  EXPECT_EQ(calls, 0);
  // emit runs concurrently across chunks, so it may only write its own slot;
  // which call finishes last is unspecified.
  std::vector<std::int64_t> at(1000, -1);
  EXPECT_EQ(par::parallel_compact(
                0, 1000, [](std::int64_t) { return true; },
                [&](std::int64_t i, std::size_t pos) {
                  EXPECT_EQ(static_cast<std::size_t>(i), pos);
                  at[pos] = i;
                },
                {.grain = 64}),
            1000u);
  for (std::size_t pos = 0; pos < at.size(); ++pos)
    ASSERT_EQ(at[pos], static_cast<std::int64_t>(pos)) << "pos " << pos;
  EXPECT_EQ(at[999], 999);
}

TEST(ThreadLimit, RestoresPreviousBudget) {
  const int before = par::max_threads();
  {
    par::ThreadLimit limit(std::max(1, before / 2));
  }
  EXPECT_EQ(par::max_threads(), before);
}

TEST(ThreadLimit, CapsLoopsStartedInsidePoolTasks) {
  // The budget is per thread: set on a second external caller of the process
  // pool, it caps the loops that thread starts at min(t, process width)
  // threads. Ids stay below max_threads() (so WorkerLocal indexing holds),
  // and each scope restores the budget it found.
  const int width = par::detail::process_width();
  const int outer_before = par::max_threads();
  for (const int t : {1, 2, 3}) {
    std::mutex mu;
    std::set<int> ids;
    bool ids_in_range = true;
    int before = 0, inside = 0, after = 0;
    std::thread([&] {
      before = par::max_threads();
      {
        par::ThreadLimit limit(t);
        inside = par::max_threads();
        par::parallel_chunks(
            0, 256,
            [&](std::int64_t, std::int64_t, std::int64_t, int worker) {
              // Long enough per chunk that idle workers join in.
              const auto until =
                  std::chrono::steady_clock::now() + std::chrono::microseconds(20);
              while (std::chrono::steady_clock::now() < until) {
              }
              std::lock_guard<std::mutex> lk(mu);
              ids.insert(worker);
              if (worker < 0 || worker >= inside || par::thread_id() != worker)
                ids_in_range = false;
            },
            {.grain = 1});
      }
      after = par::max_threads();
    }).join();
    EXPECT_EQ(inside, std::min(t, width));
    EXPECT_LE(ids.size(), static_cast<std::size_t>(t)) << t << " threads";
    EXPECT_TRUE(ids_in_range) << t << " threads";
    EXPECT_EQ(after, before) << t << " threads";
  }
  EXPECT_EQ(par::max_threads(), outer_before);
}

TEST(Backend, DescriptionMentionsBackend) {
  const std::string desc = par::backend_description();
  EXPECT_EQ(desc.rfind("task_pool", 0), 0u) << desc;
  EXPECT_NE(desc.find("max_threads=" + std::to_string(par::max_threads())), std::string::npos)
      << desc;
  EXPECT_LE(par::max_threads(), par::hardware_threads());
}

}  // namespace
}  // namespace spar::support
