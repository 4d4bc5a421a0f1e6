// Shared-memory parallel execution substrate for libspar.
//
// Every parallel loop in the library goes through this header, for three
// reasons:
//  * one engine: every loop runs on the process-wide TaskPool
//    (support/task_pool.hpp), created on first use. A one-thread budget, a
//    disabled loop (ParOpts::enable) or a single chunk runs inline on the
//    caller;
//  * determinism: parallel_reduce splits the range into chunks whose
//    boundaries depend only on (range, grain) -- never on the thread count
//    -- and combines partials in chunk order, so floating-point results are
//    bit-identical for 1 and N threads, on any pool;
//  * per-chunk RNG streams: chunk_rng(seed, chunk) gives randomized parallel
//    algorithms an independent deterministic generator per chunk, the
//    counter-based scheme the paper's CRCW PRAM algorithms assume.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/task_pool.hpp"

namespace spar::support::par {

namespace detail {
/// Threads the process-wide pool runs a loop on: OMP_NUM_THREADS when set
/// (capped at the hardware count), else the hardware count. Read once.
int process_width() noexcept;
/// The process-wide pool (process_width() - 1 workers plus the caller),
/// started on first use; null when process_width() is 1.
TaskPool* process_pool();
}  // namespace detail

/// Thread budget for loops started on this thread: the process pool's width
/// (process_width()), capped by set_num_threads / ThreadLimit.
inline int max_threads() noexcept {
  const int width = detail::process_width();
  const int budget = detail::tls_budget;
  return budget > 0 && budget < width ? budget : width;
}

/// Number of CPUs this process may run on (its affinity mask; >= 1).
int hardware_threads() noexcept;

/// Worker id inside a parallel loop body: 0 on the calling thread, 1.. on
/// helpers; 0 outside any loop. A loop run inline keeps the id of the loop
/// around it. Always < max_threads(). Ids are unique among the threads of
/// one loop only: two loops running at once reuse them.
inline int thread_id() noexcept {
  return std::min(detail::tls_thread_id, max_threads() - 1);
}

/// Sets this thread's budget: loops it starts use at most
/// min(threads, pool width) threads, and so do loops nested in their bodies.
inline void set_num_threads(int threads) noexcept {
  detail::tls_budget = std::max(threads, 1);
}

/// RAII thread-budget override for tests and benches that sweep thread
/// counts; restores the budget it found.
class ThreadLimit {
 public:
  explicit ThreadLimit(int threads) : saved_(detail::tls_budget) {
    set_num_threads(threads);
  }
  ~ThreadLimit() { detail::tls_budget = saved_; }
  ThreadLimit(const ThreadLimit&) = delete;
  ThreadLimit& operator=(const ThreadLimit&) = delete;

 private:
  int saved_;
};

/// Tuning knobs for a parallel loop. `enable == false` runs the loop inline
/// on the caller (for loops too small to pay for waking workers); `grain`
/// fixes the chunk size for chunked loops and reductions (0 = default_grain).
struct ParOpts {
  std::int64_t grain = 0;
  bool enable = true;
};

/// Chunk size used when the caller does not fix one. A pure function of the
/// range length only -- NEVER of the thread count -- so chunk boundaries (and
/// therefore reduction order) are machine- and thread-independent.
constexpr std::int64_t default_grain(std::int64_t n) noexcept {
  constexpr std::int64_t kMinGrain = 1 << 10;
  constexpr std::int64_t kMaxChunks = 1 << 12;
  const std::int64_t for_chunks = (n + kMaxChunks - 1) / kMaxChunks;
  return std::max(kMinGrain, for_chunks);
}

/// Independent deterministic RNG for logical chunk `chunk` under `seed`;
/// the per-thread stream utility for randomized parallel loops.
inline Rng chunk_rng(std::uint64_t seed, std::uint64_t chunk) {
  return stream_rng(mix64(seed, 0x6368756e6bULL /* "chunk" */), chunk);
}

/// Element-parallel loop: f(i) for i in [begin, end). Iterations must be
/// independent. Order of execution is unspecified.
template <typename F>
void parallel_for(std::int64_t begin, std::int64_t end, F&& f,
                  ParOpts opts = {}) {
  const std::int64_t n = end - begin;
  const int threads = opts.enable && n > 1 ? max_threads() : 1;
  if (threads > 1) {
    // Four contiguous blocks per thread, claimed dynamically: a helper that
    // starts late still takes a share. Iterations are independent, so the
    // grouping is unobservable.
    const std::int64_t blocks = std::min<std::int64_t>(n, 4 * threads);
    detail::process_pool()->run(blocks, threads, [&](std::int64_t b, int /*worker*/) {
      for (std::int64_t i = begin + n * b / blocks; i < begin + n * (b + 1) / blocks; ++i) f(i);
    });
    return;
  }
  for (std::int64_t i = begin; i < end; ++i) f(i);
}

/// Chunk-parallel loop with dynamic load balancing:
/// f(chunk_begin, chunk_end, chunk_index, worker_id) for each chunk.
/// worker_id is stable for the duration of one call and < max_threads(),
/// so callers can keep per-worker scratch indexed by it. Chunk boundaries
/// depend only on (range, grain): thread-count independent.
template <typename F>
void parallel_chunks(std::int64_t begin, std::int64_t end, F&& f,
                     ParOpts opts = {}) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const std::int64_t grain = opts.grain > 0 ? opts.grain : default_grain(n);
  const std::int64_t chunks = (n + grain - 1) / grain;
  const auto run_chunk = [&](std::int64_t c, int worker) {
    const std::int64_t cb = begin + c * grain;
    const std::int64_t ce = std::min(end, cb + grain);
    f(cb, ce, c, worker);
  };
  const int threads = opts.enable && chunks > 1 ? max_threads() : 1;
  if (threads > 1) {
    // Chunks are claimed dynamically (load balance); worker ids stay below
    // min(threads, chunks) <= max_threads().
    detail::process_pool()->run(chunks, threads, run_chunk);
    return;
  }
  for (std::int64_t c = 0; c < chunks; ++c) run_chunk(c, 0);
}

/// Deterministic parallel reduction.
///
/// `map(chunk_begin, chunk_end) -> T` folds one chunk serially;
/// `combine(T, T) -> T` merges partials and is applied in ascending chunk
/// order. Because the chunking is thread-count independent and the combine
/// order is fixed, the result is bit-identical across thread counts --
/// unlike a reduction that combines per-thread partials.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end, T identity, Map&& map,
                  Combine&& combine, ParOpts opts = {}) {
  const std::int64_t n = end - begin;
  if (n <= 0) return identity;
  const std::int64_t grain = opts.grain > 0 ? opts.grain : default_grain(n);
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) return combine(identity, map(begin, end));

  std::vector<T> partial(static_cast<std::size_t>(chunks), identity);
  parallel_chunks(
      begin, end,
      [&](std::int64_t cb, std::int64_t ce, std::int64_t c, int /*worker*/) {
        partial[static_cast<std::size_t>(c)] = map(cb, ce);
      },
      {.grain = grain, .enable = opts.enable});
  T acc = identity;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

/// Deterministic parallel stream compaction (prefix-sum scatter).
///
/// Evaluates keep(i) for every i in [begin, end) and calls emit(i, pos) for
/// each kept index, where pos is i's rank among the kept indices -- i.e. the
/// output is the stable order-preserving compaction a serial
/// `for (i) if (keep(i)) out[pos++] = f(i)` loop would produce. Two passes
/// (per-chunk count, then exclusive prefix sum over chunks, then scatter)
/// replace the serial append; because chunk boundaries depend only on
/// (range, grain), every pos is identical for any thread count. Returns the
/// number of kept elements.
///
/// keep(i) is evaluated twice per index (once per pass) and must be pure;
/// emit(i, pos) must tolerate concurrent calls for distinct i (disjoint pos).
template <typename Keep, typename Emit>
std::size_t parallel_compact(std::int64_t begin, std::int64_t end, Keep&& keep,
                             Emit&& emit, ParOpts opts = {}) {
  const std::int64_t n = end - begin;
  if (n <= 0) return 0;
  const std::int64_t grain = opts.grain > 0 ? opts.grain : default_grain(n);
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1 || !opts.enable || max_threads() <= 1) {
    // Single pass: keep() evaluated once per index, exactly the serial loop.
    std::size_t pos = 0;
    for (std::int64_t i = begin; i < end; ++i)
      if (keep(i)) emit(i, pos++);
    return pos;
  }

  std::vector<std::size_t> offset(static_cast<std::size_t>(chunks));
  parallel_chunks(
      begin, end,
      [&](std::int64_t cb, std::int64_t ce, std::int64_t c, int /*worker*/) {
        std::size_t count = 0;
        for (std::int64_t i = cb; i < ce; ++i) count += keep(i) ? 1 : 0;
        offset[static_cast<std::size_t>(c)] = count;
      },
      {.grain = grain, .enable = opts.enable});
  std::size_t total = 0;
  for (std::size_t c = 0; c < offset.size(); ++c) {
    const std::size_t count = offset[c];
    offset[c] = total;
    total += count;
  }
  parallel_chunks(
      begin, end,
      [&](std::int64_t cb, std::int64_t ce, std::int64_t c, int /*worker*/) {
        std::size_t pos = offset[static_cast<std::size_t>(c)];
        for (std::int64_t i = cb; i < ce; ++i)
          if (keep(i)) emit(i, pos++);
      },
      {.grain = grain, .enable = opts.enable});
  return total;
}

/// Human-readable backend summary ("task_pool, max_threads=4, ...") for benches.
std::string backend_description();

/// Lazily-constructed per-worker scratch for parallel_chunks bodies.
///
/// Sized from max_threads() at construction (construct it AFTER any
/// set_num_threads call, before the loop, on the thread that starts it);
/// each slot is created on the first chunk its worker runs. Safe because a
/// worker id is owned by
/// exactly one thread for the duration of a parallel_chunks call. Reusing one
/// WorkerLocal across several parallel_chunks calls is fine -- slots carry
/// over, so make the scratch type's state self-invalidating (e.g. epoch
/// stamps) if it must not leak between calls.
template <typename T>
class WorkerLocal {
 public:
  WorkerLocal() : slots_(static_cast<std::size_t>(max_threads())) {}

  /// Scratch for `worker`, constructing it with `make()` on first use.
  template <typename Make>
  T& local(int worker, Make&& make) {
    auto& slot = slots_[static_cast<std::size_t>(worker)];
    if (!slot) slot.reset(new T(make()));
    return *slot;
  }

  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

/// Convenience: deterministic parallel sum of f(i) over [begin, end).
template <typename F>
double parallel_sum(std::int64_t begin, std::int64_t end, F&& f,
                    ParOpts opts = {}) {
  return parallel_reduce(
      begin, end, 0.0,
      [&](std::int64_t cb, std::int64_t ce) {
        double s = 0.0;
        for (std::int64_t i = cb; i < ce; ++i) s += f(i);
        return s;
      },
      [](double a, double b) { return a + b; }, opts);
}

}  // namespace spar::support::par
