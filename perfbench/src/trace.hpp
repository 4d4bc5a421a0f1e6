// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent) plus an optional request id. Spans
// are recorded from the benchmark's own code around the public calls it
// makes into each layer -- src/ is not instrumented. Recording is off unless
// enable() was called; when off, a Scope costs one branch. Spans are kept in
// memory and written at exit as Chrome trace-event JSON (opens in Perfetto
// or about:tracing) and as a flat per-name summary with self time, where a
// span's self time is its duration minus the part its children cover.
//
// Not thread-safe: spans are begun, ended and added from the main thread
// only (timings measured on other threads are added afterwards with add()).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;               ///< index of the enclosing span, -1 = root
  int track = 0;                 ///< Chrome "tid": separates overlapping spans
  std::int64_t request_id = -1;  ///< serve spans: the wire request id
};

/// Per-name aggregate of the recorded spans.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  /// Traced runs switch recording off around the untraced operations they
  /// compare against.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open one; returns its index
  /// (-1 when disabled).
  int begin(const std::string& name);
  void end(int id);

  /// Records a finished span with explicit times (e.g. a request measured
  /// on the wire). `parent` -1 means the innermost open span.
  int add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent = -1, int track = 0, std::int64_t request_id = -1);

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  std::vector<SpanSummary> summary() const;
  void write_chrome_json(const std::string& path) const;
  void write_summary_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Scope {
 public:
  explicit Scope(const std::string& name) : id_(tracer().begin(name)) {}
  ~Scope() { tracer().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
