#include "linalg/vector_ops.hpp"

#include <cmath>
#include <cstdint>

#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace spar::linalg {

namespace {
constexpr std::int64_t kParThreshold = 1 << 14;  // below this, serial is faster

namespace par = support::par;
}  // namespace

double dot(std::span<const double> a, std::span<const double> b) {
  SPAR_DASSERT(a.size() == b.size());
  const auto n = static_cast<std::int64_t>(a.size());
  // parallel_reduce chunks identically for every thread count, so dot() is
  // bit-deterministic across 1..N threads (a per-thread reduction is not).
  return par::parallel_sum(
      0, n, [&](std::int64_t i) { return a[i] * b[i]; },
      {.enable = n >= kParThreshold});
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  SPAR_DASSERT(x.size() == y.size());
  const auto n = static_cast<std::int64_t>(x.size());
  par::parallel_for(
      0, n, [&](std::int64_t i) { y[i] += alpha * x[i]; },
      {.enable = n >= kParThreshold});
}

void scale(double alpha, std::span<double> x) {
  const auto n = static_cast<std::int64_t>(x.size());
  par::parallel_for(
      0, n, [&](std::int64_t i) { x[i] *= alpha; },
      {.enable = n >= kParThreshold});
}

void copy(std::span<const double> x, std::span<double> y) {
  SPAR_DASSERT(x.size() == y.size());
  const auto n = static_cast<std::int64_t>(x.size());
  par::parallel_for(
      0, n, [&](std::int64_t i) { y[i] = x[i]; },
      {.enable = n >= kParThreshold});
}

void fill(std::span<double> x, double value) {
  const auto n = static_cast<std::int64_t>(x.size());
  par::parallel_for(
      0, n, [&](std::int64_t i) { x[i] = value; },
      {.enable = n >= kParThreshold});
}

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(x.size());
  const double sum = par::parallel_sum(
      0, n, [&](std::int64_t i) { return x[i]; },
      {.enable = n >= kParThreshold});
  return sum / static_cast<double>(x.size());
}

void remove_mean(std::span<double> x) {
  const double m = mean(x);
  const auto n = static_cast<std::int64_t>(x.size());
  par::parallel_for(
      0, n, [&](std::int64_t i) { x[i] -= m; },
      {.enable = n >= kParThreshold});
}

}  // namespace spar::linalg
