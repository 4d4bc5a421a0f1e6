// sparsify_dense: file -> sparsifier -> certificate on a dense Erdos-Renyi
// graph (n = 2000, average degree ~1000, m ~ 1.0M) stored as SPARBIN.
//
// One operation is graph::load_graph -> sparsify::parallel_sparsify (eps 0.5,
// rho 8, t 3) -> sparsify::approx_relative_bounds. Dense inputs are where the
// round pipeline removes edges; a degree-16 input comes back unchanged and
// would time a no-op. Set-up is generating and writing the input file.
//
// Gates per operation: the sparsifier spans the input's vertices and is
// connected, every edge is one of the input's pairs, the certificate is
// defined with lower > 0, and the edge set is bit-identical to the first
// operation's (same input, same seed).
#include <cstdio>

#include "common.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_binary.hpp"
#include "graph/traversal.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace spar;

namespace {

std::uint64_t edge_hash(const graph::Graph& h) {
  std::vector<double> flat;
  flat.reserve(3 * h.num_edges());
  for (const graph::Edge& e : h.edges()) {
    flat.push_back(e.u);
    flat.push_back(e.v);
    flat.push_back(e.w);
  }
  return hash_doubles(flat);
}

}  // namespace

void run_sparsify_dense(const Config& cfg, Report& report) {
  const graph::Vertex n = cfg.tiny ? 300 : 2000;
  const double p = (cfg.tiny ? 150.0 : 1000.0) / static_cast<double>(n - 1);
  const std::string path = cfg.out_dir + "/sparsify_dense.spb";

  // Median of 7: a write of the ~16 MB input sometimes stalled for 2x.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point t0 = Clock::now();
    graph::save_binary(path, graph::connected_erdos_renyi(n, p, cfg.seed));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.set("setup_s", median(setup_s));

  // Gate data, built outside the timed loop: which vertex pairs the input has.
  const graph::Graph input = graph::load_graph(path);
  std::vector<bool> is_pair(static_cast<std::size_t>(n) * n, false);
  for (const graph::Edge& e : input.edges()) {
    is_pair[static_cast<std::size_t>(e.u) * n + e.v] = true;
    is_pair[static_cast<std::size_t>(e.v) * n + e.u] = true;
  }
  std::printf("input: n=%u m=%zu (%s)\n", n, input.num_edges(), path.c_str());

  std::vector<double> untraced_ms, traced_ms, to_sparsifier_ms;
  std::uint64_t first_hash = 0;
  std::size_t ops = 0;
  sparsify::SparsifyResult last;
  sparsify::ApproxBounds last_bounds;
  auto operation = [&](bool traced) {
    tracer().set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    const int op = tracer().begin("sparsify_dense.op");
    const graph::Graph g = traced_load(path);
    sparsify::SparsifyResult res = traced_sparsify(g);
    const Clock::time_point t1 = Clock::now();
    const sparsify::ApproxBounds bounds = traced_certify(g, res.sparsifier);
    tracer().end(op);
    const Clock::time_point t2 = Clock::now();
    tracer().set_enabled(false);
    (traced ? traced_ms : untraced_ms).push_back(ms_between(t0, t2));
    to_sparsifier_ms.push_back(ms_between(t0, t1));

    if (cfg.corrupt == "sparsifier" && ops == 1) {
      for (graph::Vertex v = 1; v < n; ++v)
        if (!is_pair[v]) {  // a pair (0, v) the input does not have
          res.sparsifier.add_edge(0, v, 1.0);
          break;
        }
    }
    const graph::Graph& h = res.sparsifier;
    std::string failure;
    if (h.num_vertices() != n || !graph::is_connected(graph::CSRGraph(h)))
      failure = "sparsifier is not a connected graph on the input's vertices";
    for (const graph::Edge& e : h.edges())
      if (failure.empty() && !is_pair[static_cast<std::size_t>(e.u) * n + e.v])
        failure = "sparsifier edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
                  ") is not an input pair";
    if (failure.empty() && !(bounds.defined && bounds.lower > 0.0))
      failure = "certificate undefined or lower bound not positive";
    const std::uint64_t hash = edge_hash(h);
    if (ops++ == 0) first_hash = hash;
    if (failure.empty() && hash != first_hash)
      failure = "sparsifier differs from the first operation's (determinism)";
    report.op(failure);
    last = std::move(res);
    last_bounds = bounds;
  };

  const double wall = run_ops(cfg.seconds, cfg.trace ? 4 : 3,
                              [&](std::size_t i) { operation(cfg.trace && i % 2 == 1); });
  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  std::printf("file -> sparsifier: median %.3f ms; file -> certificate: median %.3f ms\n",
              median(to_sparsifier_ms), median(all_ms));
  set_latency_metrics(report, all_ms, static_cast<double>(all_ms.size()) / wall);

  if (cfg.trace) {
    tracer().set_enabled(true);
    report.set("graph.load_s", span_median_s("graph.load"));
    set_sparsify_metrics(report, input, last, last_bounds);
    probe_bundle(input, report);
    set_trace_overhead(report, untraced_ms, traced_ms);
  } else {
    last = {};  // freed before the high-water mark restarts
    report.set("peak_rss_mb", measure_peak_rss_mb([&] { operation(false); }));
  }
}

}  // namespace perfbench
