// Shared plumbing of the perfbench workloads: run configuration, the report
// every workload fills, the metric table, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// One invocation: which workload, from which seed, for how long.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool tiny = false;      ///< self-test sizes
  /// Self-test fault injection: "reply", "sparsifier" or "fiedler" corrupts
  /// one output of the program before the correctness gates see it.
  std::string corrupt;
  std::string out_dir;  ///< inputs, socket, traces (inside the checkout)
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them in an untraced run.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics: every workload reports all of them in a traced run; a
/// layer the workload's path never calls reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// What a workload hands back to main(): operations attempted/failed and
/// the metric values by name.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const { return values_.at(name); }

  /// Counts one operation; a non-empty `failure` marks it failed.
  void op(const std::string& failure);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, double> values_;
};

void run_sparsify_dense(const Config& cfg, Report& report);
void run_serve_grid(const Config& cfg, Report& report);
void run_partition_grid(const Config& cfg, Report& report);

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
/// Peak RSS (MiB) of one more run of `op`, made after the timed ones.
/// With glibc's default, adaptive mmap threshold the high-water mark of an
/// operation swung 117-187 MiB between identical repeats, depending on what
/// the allocator kept from earlier work. So this fixes the threshold at
/// 128 KiB -- large blocks are mapped and unmapped per allocation from then
/// on, which slows them, hence after the timing -- and restarts the
/// high-water mark: the result is the operation's own live-memory peak.
double measure_peak_rss_mb(const std::function<void()>& op);
/// FNV-1a over the bytes of a double vector: equal iff bit-identical.
std::uint64_t hash_doubles(std::span<const double> v);

/// Runs `op` (passing its index) until `seconds` have passed and at least
/// `min_ops` ran -- the minimum lapses after 6 x `seconds`, so a run on a
/// badly contended machine still ends in time; returns the loop's wall time
/// in seconds.
double run_ops(double seconds, std::size_t min_ops,
               const std::function<void(std::size_t)>& op);

/// Sets latency_p50_ms / latency_p95_ms from per-operation latencies, and qps.
void set_latency_metrics(Report& report, const std::vector<double>& latencies_ms,
                         double qps);

/// Traced runs interleave untraced and traced operations; this reports the
/// difference of their median latencies as trace.overhead_ms.
void set_trace_overhead(Report& report, const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms);

/// Median duration of the spans called `name`, in seconds (0 if none).
double span_median_s(const std::string& name);

}  // namespace perfbench
