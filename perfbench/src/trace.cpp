#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{name, now, now, open_.empty() ? -1 : open_.back()});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, int track, std::int64_t request_id) {
  if (!enabled_) return -1;
  if (parent < 0 && !open_.empty()) parent = open_.back();
  spans_.push_back(Span{name, start, end, parent, track, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(std::chrono::duration<double>(s.end - s.start).count());
  return out;
}

std::vector<SpanSummary> Tracer::summary() const {
  // Children intervals of every span, clipped to the parent.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    kids[static_cast<std::size_t>(s.parent)].emplace_back(std::max(s.start, p.start),
                                                          std::min(s.end, p.end));
  }
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered_us = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {  // union length of the child intervals
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered_us += us_between(from, b);
        reach = b;
      }
    }
    SpanSummary& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    const double dur_us = us_between(s.start, s.end);
    row.total_ms += dur_us / 1e3;
    row.self_ms += std::max(0.0, dur_us - covered_us) / 1e3;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << escaped(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << us_between(epoch_, s.start)
        << ",\"dur\":" << us_between(s.start, s.end) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent;
    if (s.request_id >= 0) out << ",\"request_id\":" << s.request_id;
    out << "}}";
  }
  out << "\n]}\n";
}

void Tracer::write_summary_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write summary " + path);
  out << "[";
  bool first = true;
  for (const SpanSummary& row : summary()) {
    out << (first ? "\n" : ",\n") << "{\"span\":\"" << escaped(row.name)
        << "\",\"count\":" << row.count << ",\"total_ms\":" << row.total_ms
        << ",\"self_ms\":" << row.self_ms << "}";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace perfbench
