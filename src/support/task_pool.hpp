// Persistent worker-thread pool: the one execution engine of libspar. Every
// parallel_* loop of support/parallel.hpp runs on the process-wide TaskPool
// (support/parallel.cpp), the only pool a process constructs. A pool runs
// fork-join groups (run()), with the calling thread taking part.
//
// Fork-join takes no lock. Each worker owns a cache-line slot whose word
// holds its state and, while it has one, its group's address. A caller hands
// the group (a stack object whose atomic counter hands out indices) to idle
// workers by compare-and-swap on their words and claims indices itself, so a
// helper that starts late still takes what is left. At the join it takes
// back helpers that have not started, so a late wake-up never delays it, and
// waits only for helpers still running. Idle workers poll their own slot for
// a short while after their last work, then sleep on it; a caller that
// claims a sleeping worker wakes it.
//
// A group body may start another loop: it claims other idle workers and runs
// what it cannot hand off, so nesting cannot deadlock and the threads in
// flight never exceed workers() plus the external callers. Which thread runs
// an index never shows in results: the parallel_* loops derive chunk
// boundaries from (range, grain) alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace spar::support::par {

namespace detail {
/// What thread_id() reports: the worker id inside a group body, else 0.
inline thread_local int tls_thread_id = 0;
/// Thread budget set by set_num_threads / ThreadLimit; 0 = no limit. A
/// group body runs under the budget of the thread that started the group.
inline thread_local int tls_budget = 0;
}  // namespace detail

class TaskPool {
 public:
  /// Starts `threads` workers (clamped to >= 1). If a thread fails to start,
  /// joins the ones already started and rethrows.
  explicit TaskPool(int threads);

  /// Stops and joins the workers. Destroying a pool while another thread is
  /// inside run() is a caller bug.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Number of worker threads.
  int workers() const noexcept { return workers_; }

  /// Runs body(index, worker) for every index in [0, count) on at most
  /// `threads` threads -- the caller plus idle workers it claims -- and
  /// returns when all are done. `worker` (also thread_id() in the body) is 0
  /// on the caller and 1.. on helpers in the order they start, below
  /// min(threads, count). Helpers run the body under the caller's thread
  /// budget. The first exception a body throws stops further claims and is
  /// rethrown here.
  template <typename F>
  void run(std::int64_t count, int threads, F&& body) {
    if (count <= 0) return;
    if (count == 1 || threads <= 1) {
      for (std::int64_t i = 0; i < count; ++i) body(i, 0);
      return;
    }
    using Body = std::remove_reference_t<F>;
    Group g;
    g.invoke = [](const void* b, std::int64_t i, int worker) {
      (*static_cast<Body*>(const_cast<void*>(b)))(i, worker);
    };
    g.body = &body;
    g.count = count;
    g.budget = detail::tls_budget;
    dispatch(g, threads);
  }

 private:
  /// One run() call in flight, on the caller's stack; it returns only after
  /// each helper was taken back unstarted or has left.
  struct Group {
    void (*invoke)(const void* body, std::int64_t index, int worker) = nullptr;
    const void* body = nullptr;
    std::int64_t count = 0;
    int budget = 0;
    alignas(64) std::atomic<std::int64_t> next{0};  ///< next unclaimed index
    std::atomic<int> started{0};                    ///< helpers that started
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written once, by the first failure
  };

  /// A worker's mailbox: group address | state (task_pool.cpp).
  struct alignas(64) Slot {
    std::atomic<std::uintptr_t> word{0};
  };

  void dispatch(Group& g, int threads);
  /// Claims and runs indices of `g` as `worker` until none are left; the
  /// first exception a body throws is kept and ends the claims.
  static void claim(Group& g, int worker);
  void worker_main(int index);
  /// Puts the worker of `slot` to sleep unless the pool is stopping.
  void park(Slot& slot);
  /// Wakes every sleeping worker and joins them all.
  void stop_and_join();

  const int workers_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace spar::support::par
