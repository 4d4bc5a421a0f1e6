#include "support/work_counter.hpp"

#include "support/parallel.hpp"

namespace spar::support {

WorkCounter::WorkCounter()
    : slots_(static_cast<std::size_t>(par::max_threads()) + 1) {}

void WorkCounter::add(std::uint64_t amount) noexcept {
  // Slots are keyed by par::thread_id() so one loop's threads never share
  // one; loops running at once reuse ids, and an id beyond the
  // max_threads() seen at construction shares the last slot, so adds are
  // atomic.
  const auto tid = static_cast<std::size_t>(par::thread_id());
  const std::size_t slot = tid < slots_.size() - 1 ? tid : slots_.size() - 1;
  slots_[slot].value.fetch_add(amount, std::memory_order_relaxed);
}

std::uint64_t WorkCounter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& slot : slots_) sum += slot.value.load(std::memory_order_relaxed);
  return sum;
}

void WorkCounter::reset() noexcept {
  for (auto& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
}

}  // namespace spar::support
