#include "support/task_pool.hpp"

#include <algorithm>
#include <chrono>

namespace spar::support::par {

namespace {

using Clock = std::chrono::steady_clock;

// An idle worker polls its slot this long after its last work, so loops that
// follow each other closer than this find their helpers awake; a joining
// caller polls a running helper kJoinSpin before sleeping until it leaves.
constexpr auto kIdleSpin = std::chrono::microseconds(200);
constexpr auto kJoinSpin = std::chrono::microseconds(50);
constexpr unsigned kClockEvery = 64;  // spin iterations between clock reads

// Slot word = group address | state. A group is 64-byte aligned, so its
// address leaves the low bits free; the address tells a caller which slots
// hold its own group.
enum State : std::uintptr_t {
  kIdle,      // polling its slot; claimable
  kAsleep,    // sleeping on the slot word; claimable, needs a wake-up
  kHanded,    // | group: handed over, not started; the caller may take it back
  kRunning,   // | group: running it
  kJoinWait,  // | group: running it, and the caller sleeps until it leaves
};
constexpr std::uintptr_t kStateMask = 7;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

constexpr auto kAcqRel = std::memory_order_acq_rel;
constexpr auto kAcquire = std::memory_order_acquire;

}  // namespace

TaskPool::TaskPool(int threads)
    : workers_(std::max(threads, 1)), slots_(new Slot[static_cast<std::size_t>(workers_)]) {
  threads_.reserve(static_cast<std::size_t>(workers_));
  try {
    for (int i = 0; i < workers_; ++i) threads_.emplace_back([this, i] { worker_main(i); });
  } catch (...) {
    stop_and_join();
    throw;
  }
}

TaskPool::~TaskPool() { stop_and_join(); }

void TaskPool::stop_and_join() {
  stop_.store(true);
  for (int i = 0; i < workers_; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    std::uintptr_t w = kAsleep;
    if (s.word.compare_exchange_strong(w, kIdle)) s.word.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

void TaskPool::park(Slot& slot) {
  std::uintptr_t w = kIdle;
  if (!slot.word.compare_exchange_strong(w, kAsleep)) return;  // claimed meanwhile
  // Sequentially consistent with stop_and_join()'s store and its scan of the
  // slots: either it sees this worker asleep and wakes it, or this sees stop_.
  if (stop_.load()) {
    w = kAsleep;
    slot.word.compare_exchange_strong(w, kIdle);  // fails if claimed: fine
    return;
  }
  slot.word.wait(kAsleep);
}

void TaskPool::worker_main(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  Clock::time_point idle_since = Clock::now();
  for (unsigned spins = 1;; ++spins) {
    std::uintptr_t w = slot.word.load(kAcquire);
    if ((w & kStateMask) == kHanded) {
      idle_since = Clock::now();  // a caller is active, even if it takes this back
      const std::uintptr_t group = w & ~kStateMask;
      if (!slot.word.compare_exchange_strong(w, group | kRunning, kAcqRel)) continue;
      Group& g = *reinterpret_cast<Group*>(group);
      const int id = g.started.fetch_add(1, std::memory_order_relaxed) + 1;
      const int saved_budget = detail::tls_budget;
      detail::tls_thread_id = id;
      detail::tls_budget = g.budget;
      claim(g, id);
      detail::tls_budget = saved_budget;
      detail::tls_thread_id = 0;
      // The last touch of the group; after it the caller may return.
      if (slot.word.exchange(kIdle, kAcqRel) == (group | kJoinWait)) slot.word.notify_all();
      idle_since = Clock::now();
    } else if (stop_.load(kAcquire)) {
      return;
    } else if (spins % kClockEvery == 0 && Clock::now() - idle_since > kIdleSpin) {
      park(slot);
    } else {
      cpu_relax();
    }
  }
}

void TaskPool::claim(Group& g, int worker) {
  for (std::int64_t i; (i = g.next.fetch_add(1, std::memory_order_relaxed)) < g.count;) {
    try {
      g.invoke(g.body, i, worker);
    } catch (...) {
      if (!g.failed.exchange(true)) g.error = std::current_exception();
      g.next.store(g.count, std::memory_order_relaxed);
    }
  }
}

void TaskPool::dispatch(Group& g, int threads) {
  // Hand the group to idle workers (a calling worker's own slot is never
  // idle); slots [0, end) are the ones that may hold it.
  static_assert(alignof(Group) > kStateMask, "the state bits must fit below the address");
  const auto group = reinterpret_cast<std::uintptr_t>(&g);
  const auto helpers = static_cast<int>(std::min<std::int64_t>(threads, g.count) - 1);
  int end = 0;
  for (int i = 0, handed = 0; i < workers_ && handed < helpers; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    std::uintptr_t w = s.word.load(std::memory_order_relaxed);
    if ((w != kIdle && w != kAsleep) ||
        !s.word.compare_exchange_strong(w, group | kHanded, std::memory_order_release))
      continue;
    if (w == kAsleep) s.word.notify_all();
    ++handed;
    end = i + 1;
  }

  const int saved_id = detail::tls_thread_id;
  detail::tls_thread_id = 0;
  claim(g, 0);

  // Join: take back helpers that never started, wait for the others.
  for (int i = 0; i < end; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    std::uintptr_t w = group | kHanded;
    if (s.word.compare_exchange_strong(w, kIdle, kAcqRel, kAcquire)) continue;
    const Clock::time_point start = Clock::now();
    for (unsigned spins = 1; w == (group | kRunning); ++spins, w = s.word.load(kAcquire)) {
      if (spins % kClockEvery == 0 && Clock::now() - start > kJoinSpin) {
        if (s.word.compare_exchange_strong(w, group | kJoinWait, kAcqRel, kAcquire))
          s.word.wait(group | kJoinWait, kAcquire);
        break;
      }
      cpu_relax();
    }
  }
  detail::tls_thread_id = saved_id;
  if (g.error) std::rethrow_exception(g.error);
}

}  // namespace spar::support::par
