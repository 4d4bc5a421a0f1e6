// Machine-independent work accounting.
//
// The paper's guarantees (Theorems 1, 4, 5, 6) are stated as PRAM *work*
// bounds. Wall-clock time depends on the machine, but work -- the number of
// elementary edge/arithmetic operations an algorithm performs -- does not.
// Algorithms in libspar report work through a WorkCounter so benches can
// verify the O(m log^2 n log^3 rho / eps^2)-type shapes directly.
//
// Counters are accumulated per worker id (par::thread_id(), padded to avoid
// false sharing) and summed on read, so hot loops pay one uncontended atomic
// add.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace spar::support {

class WorkCounter {
 public:
  WorkCounter();

  /// Add `amount` units of work from the calling thread.
  void add(std::uint64_t amount) noexcept;

  /// Total work across all threads since construction or last reset().
  std::uint64_t total() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::vector<Slot> slots_;
};

/// A scoped view that adds to an optional counter; algorithms accept a
/// `WorkCounter*` (may be null) and wrap it in WorkScope so call sites stay
/// branch-free and readable.
class WorkScope {
 public:
  explicit WorkScope(WorkCounter* counter) noexcept : counter_(counter) {}

  void add(std::uint64_t amount) const noexcept {
    if (counter_ != nullptr) counter_->add(amount);
  }

  bool enabled() const noexcept { return counter_ != nullptr; }

 private:
  WorkCounter* counter_;
};

}  // namespace spar::support
