// perfbench: one workload of libspar's end-to-end benchmark.
//
//   perfbench --workload=sparsify_dense|serve_grid|partition_grid --seed=N
//             --seconds=S --trace=0|1 --out=DIR [--tiny] [--corrupt=KIND]
//             [--commit=SHA] [--source-digest=HEX]
//
// Prints a context line, human-readable progress, and as its last stdout
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace=0, the per-layer metrics with --trace=1.
// A traced run also writes DIR/trace_<workload>_<seed>.json (Chrome
// trace-event format) and DIR/layers_<workload>_<seed>.json (self time per
// span). Exits non-zero, printing no result, when the run cannot complete.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "support/options.hpp"
#include "support/parallel.hpp"

namespace {

using namespace perfbench;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

void print_context(const Config& cfg, const spar::support::Options& opt) {
  std::printf("context: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
              "\"nproc\":%u,\"threads\":%d,\"cpu\":\"%s\",\"compiler\":\"GCC %s\","
              "\"build_type\":\"%s\",\"git_commit\":\"%s\",\"source_digest\":\"%s\"}\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
              std::thread::hardware_concurrency(), spar::support::par::max_threads(),
              cpu_model().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
              opt.get("commit", "unknown").c_str(),
              opt.get("source-digest", "unknown").c_str());
}

int run(int argc, char** argv) {
  const spar::support::Options opt(argc, argv);
  Config cfg;
  cfg.workload = opt.get("workload", "");
  cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  cfg.seconds = opt.get_double("seconds", 10.0);
  cfg.trace = opt.get_int("trace", 0) != 0;
  cfg.tiny = opt.get_bool("tiny", false);
  cfg.corrupt = opt.get("corrupt", "");
  cfg.out_dir = opt.get("out", "");

  void (*workload)(const Config&, Report&) = nullptr;
  if (cfg.workload == "sparsify_dense") workload = run_sparsify_dense;
  if (cfg.workload == "serve_grid") workload = run_serve_grid;
  if (cfg.workload == "partition_grid") workload = run_partition_grid;
  if (workload == nullptr || cfg.out_dir.empty()) {
    std::fprintf(stderr, "usage: perfbench --workload=sparsify_dense|serve_grid|"
                         "partition_grid --out=DIR [--seed=N] [--seconds=S] [--trace=0|1]\n");
    return 2;
  }
  print_context(cfg, opt);

  Report report;
  workload(cfg, report);

  const std::string stem = cfg.workload + "_" + std::to_string(cfg.seed);
  if (cfg.trace) {
    std::printf("per-layer self time (span: count, total ms, self ms):\n");
    for (const SpanSummary& row : tracer().summary())
      std::printf("  %-24s %6zu %12.3f %12.3f\n", row.name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    tracer().write_chrome_json(cfg.out_dir + "/trace_" + stem + ".json");
    tracer().write_summary_json(cfg.out_dir + "/layers_" + stem + ".json");
    std::printf("trace: %s/trace_%s.json, self times: %s/layers_%s.json\n",
                cfg.out_dir.c_str(), stem.c_str(), cfg.out_dir.c_str(), stem.c_str());
  }

  std::string metrics;
  for (const MetricSpec& m : cfg.trace ? kPerLayer : kEndToEnd) {
    if (!cfg.trace && !report.has(m.name))
      throw std::runtime_error(std::string("workload did not measure ") + m.name);
    const double value = report.has(m.name) ? report.get(m.name) : 0.0;
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + number(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
