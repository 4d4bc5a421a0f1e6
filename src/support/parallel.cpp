#include "support/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

namespace spar::support::par {

int hardware_threads() noexcept {
  // The affinity mask, as taskset or a cpuset sets it; hardware_concurrency
  // counts every online CPU.
  static const int count = [] {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }();
  return count;
}

namespace detail {

int process_width() noexcept {
  // The first entry of OMP_NUM_THREADS: the thread-count setting the build
  // docs and the benchmark notes use, under the name they use.
  static const int width = [] {
    const char* env = std::getenv("OMP_NUM_THREADS");
    char* end = nullptr;
    const long requested = env != nullptr ? std::strtol(env, &end, 10) : 0;
    if (end == env || requested < 1) return hardware_threads();
    return static_cast<int>(std::min<long>(requested, hardware_threads()));
  }();
  return width;
}

TaskPool* process_pool() {
  // Never destroyed: a loop may still run while static destructors do, and
  // parked workers cost nothing at exit.
  static TaskPool* const pool =
      process_width() > 1 ? new TaskPool(process_width() - 1) : nullptr;
  return pool;
}

}  // namespace detail

std::string backend_description() {
  return "task_pool, max_threads=" + std::to_string(max_threads()) +
         ", hardware_threads=" + std::to_string(hardware_threads());
}

}  // namespace spar::support::par
