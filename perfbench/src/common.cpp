#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.load_s", "s"},
    {"spanner.bundle_s", "s"},
    {"spanner.bundle_edges", "count"},
    {"sparsify.sparsify_s", "s"},
    {"sparsify.rounds", "count"},
    {"sparsify.edges_out", "count"},
    {"sparsify.reduction", "x"},
    {"sparsify.certify_s", "s"},
    {"sparsify.cert_eps", "eps"},
    {"solver.chain_build_s", "s"},
    {"solver.chain_levels", "count"},
    {"solver.chain_nnz_ratio", "x"},
    {"solver.apply_ms", "ms"},
    {"solver.solve_ms", "ms"},
    {"solver.pcg_iterations", "count"},
    {"solver.solve_multi_ms", "ms"},
    {"solver.jacobi_pcg_ms", "ms"},
    {"solver.jacobi_pcg_iterations", "count"},
    {"server.queue_ms_p50", "ms"},
    {"server.solve_ms_p50", "ms"},
    {"server.inproc_latency_p50_ms", "ms"},
    {"server.mean_batch_cols", "count"},
    {"server.deadline_closes", "count"},
    {"server.size_closes", "count"},
    {"apps.fiedler_s", "s"},
    {"apps.fiedler_iterations", "count"},
    {"apps.sweep_cut_ms", "ms"},
    {"apps.conductance", "ratio"},
    {"trace.overhead_ms", "ms"},
};

void Report::op(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  std::fprintf(stderr, "[perfbench] operation %llu FAILED: %s\n",
               static_cast<unsigned long long>(attempted), failure.c_str());
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double measure_peak_rss_mb(const std::function<void()>& op) {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // restart VmHWM at the current RSS
  op();
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t hash_doubles(std::span<const double> v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

double run_ops(double seconds, std::size_t min_ops,
               const std::function<void(std::size_t)>& op) {
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  while (true) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= seconds && (i >= min_ops || elapsed >= 6 * seconds)) break;
    op(i++);
  }
  return seconds_between(start, Clock::now());
}

void set_latency_metrics(Report& report, const std::vector<double>& latencies_ms,
                         double qps) {
  report.set("latency_p50_ms", percentile(latencies_ms, 0.50));
  report.set("latency_p95_ms", percentile(latencies_ms, 0.95));
  report.set("qps", qps);
  std::printf("latency: %zu samples, p50 %.3f ms, p95 %.3f ms, %.3f ops/s\n",
              latencies_ms.size(), report.get("latency_p50_ms"),
              report.get("latency_p95_ms"), report.get("qps"));
}

void set_trace_overhead(Report& report, const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms) {
  const double off = median(untraced_ms);
  const double on = median(traced_ms);
  report.set("trace.overhead_ms", on - off);
  std::printf("tracing overhead: median %.3f ms traced (%zu) vs %.3f ms untraced (%zu)\n",
              on, traced_ms.size(), off, untraced_ms.size());
}

double span_median_s(const std::string& name) { return median(tracer().durations(name)); }

}  // namespace perfbench
