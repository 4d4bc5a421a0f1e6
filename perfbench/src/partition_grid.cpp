// partition_grid: graph -> sweep-cut partition through the apps layer on a
// 40x40 grid with log-uniform weights drawn from the seed. (A 64x64 grid
// takes ~6 s per operation: a run held 3 and its p95 was their maximum.)
//
// One operation is SDDMatrix + InverseChain (FiedlerOptions defaults: the
// resident chain, timed as set-up) -> apps::fiedler_vector on that chain ->
// apps::sweep_cut. It uses the solver layer unlike serve_grid: build-heavy,
// with 2-column blocks instead of ~8-16, so a change that trades build cost
// for apply cost, or one tuned for wide blocks, shows here.
//
// Gates per operation: the Fiedler iteration converged, its vector hash is
// identical across the repeats of one seed (the determinism contract), and
// the sweep cut is a proper bipartition with conductance in (0, 1].
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "apps/partition.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/io_binary.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace spar;

namespace {

/// Edge weights are exp(U[-0.5, 0.5]): within a factor e of each other, so
/// chain sizes, and with them time and memory, vary little between seeds.
constexpr double kLogRange = 0.5;

}  // namespace

void run_partition_grid(const Config& cfg, Report& report) {
  const graph::Vertex side = cfg.tiny ? 12 : 40;
  const std::string path = cfg.out_dir + "/partition_grid.spb";
  graph::save_binary(path, graph::randomize_weights(graph::grid2d(side, side), kLogRange,
                                                    cfg.seed));
  tracer().set_enabled(cfg.trace);
  const graph::Graph g = traced_load(path);
  tracer().set_enabled(false);
  const std::size_t n = g.num_vertices();

  const apps::FiedlerOptions fopt;
  std::optional<solver::SDDMatrix> m;
  std::optional<solver::InverseChain> chain;
  apps::FiedlerReport fiedler;
  apps::SweepCutResult cut;
  std::vector<double> setup_s, untraced_ms, traced_ms;
  std::uint64_t first_hash = 0;
  std::size_t ops = 0;
  auto operation = [&](bool traced) {
    tracer().set_enabled(traced);
    chain.reset();
    const Clock::time_point t0 = Clock::now();
    const int op = tracer().begin("partition_grid.op");
    {
      const Scope span("solver.chain_build");
      m.emplace(g);
      chain.emplace(*m, fopt.solve.chain);
    }
    const Clock::time_point t1 = Clock::now();
    {
      const Scope span("apps.fiedler");
      fiedler = apps::fiedler_vector(*m, *chain, fopt);
    }
    {
      const Scope span("apps.sweep_cut");
      cut = apps::sweep_cut(g, fiedler.vector);
    }
    tracer().end(op);
    const Clock::time_point t2 = Clock::now();
    tracer().set_enabled(false);
    setup_s.push_back(seconds_between(t0, t1));
    (traced ? traced_ms : untraced_ms).push_back(ms_between(t0, t2));

    if (cfg.corrupt == "fiedler" && ops == 1)
      fiedler.vector[0] = std::nextafter(fiedler.vector[0], 2.0);
    const std::uint64_t hash = hash_doubles(fiedler.vector);
    if (ops++ == 0) first_hash = hash;
    std::string failure;
    if (!fiedler.converged)
      failure = "Fiedler iteration did not converge";
    else if (hash != first_hash)
      failure = "Fiedler vector differs between repeats of one seed (determinism)";
    else if (cut.cut_size == 0 || cut.cut_size >= n || !(cut.conductance > 0.0) ||
             cut.conductance > 1.0)
      failure = "sweep cut is not a proper bipartition";
    report.op(failure);
    std::printf("partition: lambda2 %.6e in %zu iterations, phi %.6f, |S| %zu, hash %016llx, "
                "%.3f s (chain %.3f s)\n",
                fiedler.value, fiedler.iterations, cut.conductance, cut.cut_size,
                static_cast<unsigned long long>(hash), seconds_between(t0, t2),
                seconds_between(t0, t1));
  };

  const double wall = run_ops(cfg.seconds, cfg.trace ? 4 : 3,
                              [&](std::size_t i) { operation(cfg.trace && i % 2 == 1); });
  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  set_latency_metrics(report, all_ms, static_cast<double>(all_ms.size()) / wall);
  report.set("setup_s", median(setup_s));

  tracer().set_enabled(cfg.trace);
  probe_solver_layers(*m, *chain, median(setup_s), fopt.solve, cfg.seed, report);
  if (cfg.trace) {
    report.set("graph.load_s", span_median_s("graph.load"));
    report.set("solver.chain_build_s", span_median_s("solver.chain_build"));
    report.set("apps.fiedler_s", span_median_s("apps.fiedler"));
    report.set("apps.fiedler_iterations", static_cast<double>(fiedler.iterations));
    report.set("apps.sweep_cut_ms", span_median_s("apps.sweep_cut") * 1e3);
    report.set("apps.conductance", cut.conductance);
    probe_sparsify_layers(g, report);
    set_trace_overhead(report, untraced_ms, traced_ms);
    // The daemon's layers ride this traced run: serve_grid is not a
    // BENCHMARK.json workload (README.md, "Noise and bounds").
    // Capped, so that the traced run stays well inside its time limit.
    Config serve_cfg = cfg;
    serve_cfg.seconds = std::min(cfg.seconds, 10.0);
    Report serve;
    run_serve_grid(serve_cfg, serve);
    for (const char* name :
         {"server.queue_ms_p50", "server.solve_ms_p50", "server.inproc_latency_p50_ms",
          "server.mean_batch_cols", "server.deadline_closes", "server.size_closes"})
      report.set(name, serve.get(name));
    report.attempted += serve.attempted;
    report.failed += serve.failed;
  } else {
    chain.reset();  // before the high-water mark restarts, not inside the operation
    report.set("peak_rss_mb", measure_peak_rss_mb([&] { operation(false); }));
  }
}

}  // namespace perfbench
