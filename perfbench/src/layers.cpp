#include "layers.hpp"

#include <cstdio>

#include "graph/io.hpp"
#include "linalg/vector_ops.hpp"
#include "spanner/bundle.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace spar;

namespace {

sparsify::SparsifyOptions sparsify_options() {
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.rho = 8.0;
  opt.t = 3;
  return opt;
}

/// Power-iteration steps per side of the certificate. The default options
/// stop on convergence, which took 1.6-7.3 s across seeds on sparsify_dense:
/// the time would measure the seed, not the code. A fixed step count makes
/// the work the same on every input; the bounds stay inner estimates.
constexpr std::size_t kCertPowerSteps = 30;

}  // namespace

graph::Graph traced_load(const std::string& path) {
  const Scope span("graph.load");
  return graph::load_graph(path);
}

sparsify::SparsifyResult traced_sparsify(const graph::Graph& g) {
  const Scope span("sparsify.sparsify");
  return sparsify::parallel_sparsify(g, sparsify_options());
}

sparsify::ApproxBounds traced_certify(const graph::Graph& g, const graph::Graph& h) {
  sparsify::CertOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = kCertPowerSteps;
  const Scope span("sparsify.certify");
  return sparsify::approx_relative_bounds(g, h, opt);
}

void set_sparsify_metrics(Report& report, const graph::Graph& g,
                          const sparsify::SparsifyResult& res,
                          const sparsify::ApproxBounds& bounds) {
  report.set("sparsify.sparsify_s", span_median_s("sparsify.sparsify"));
  report.set("sparsify.rounds", static_cast<double>(res.rounds.size()));
  report.set("sparsify.edges_out", static_cast<double>(res.sparsifier.num_edges()));
  report.set("sparsify.reduction", static_cast<double>(g.num_edges()) /
                                       static_cast<double>(res.sparsifier.num_edges()));
  report.set("sparsify.certify_s", span_median_s("sparsify.certify"));
  report.set("sparsify.cert_eps", bounds.epsilon());
  std::printf("sparsify: %zu -> %zu edges in %zu rounds; certificate [%.4f, %.4f], "
              "eps %.4f (requested %.2f)\n",
              g.num_edges(), res.sparsifier.num_edges(), res.rounds.size(), bounds.lower,
              bounds.upper, bounds.epsilon(), sparsify_options().epsilon);
}

void probe_bundle(const graph::Graph& g, Report& report) {
  spanner::BundleOptions opt;
  opt.t = 3;
  std::size_t edges = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const Scope span("spanner.bundle");
    edges = spanner::t_bundle(g, opt).bundle_edge_count;
  }
  report.set("spanner.bundle_s", span_median_s("spanner.bundle"));
  report.set("spanner.bundle_edges", static_cast<double>(edges));
}

void probe_sparsify_layers(const graph::Graph& g, Report& report) {
  const sparsify::SparsifyResult res = traced_sparsify(g);
  const sparsify::ApproxBounds bounds = traced_certify(g, res.sparsifier);
  set_sparsify_metrics(report, g, res, bounds);
  probe_bundle(g, report);
}

linalg::Vector make_rhs(std::size_t n, std::uint64_t seed, std::uint64_t i) {
  support::Rng rng(support::mix64(seed, i));
  linalg::Vector b(n);
  for (double& v : b) v = rng.normal();
  linalg::remove_mean(b);
  return b;
}

void probe_solver_layers(const solver::SDDMatrix& m, const solver::InverseChain& chain,
                         double chain_build_s, const solver::SolveOptions& options,
                         std::uint64_t seed, Report& report) {
  const std::size_t n = m.dimension();
  const std::uint64_t stream = support::mix64(seed, 0xBA5E);
  std::vector<double> apply_ms, solve_ms, jacobi_ms;
  std::size_t chain_iterations = 0, jacobi_iterations = 0;
  linalg::Vector y(n);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const linalg::Vector b = make_rhs(n, stream, i);
    const Clock::time_point t0 = Clock::now();
    {
      const Scope span("solver.apply");
      chain.apply(b, y);
    }
    apply_ms.push_back(ms_between(t0, Clock::now()));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    const linalg::Vector b = make_rhs(n, stream, 100 + i);
    Clock::time_point t0 = Clock::now();
    {
      const Scope span("solver.solve");
      chain_iterations = solver::solve_sdd(m, chain, b, options).iterations;
    }
    solve_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      const Scope span("solver.jacobi_pcg");
      jacobi_iterations = solver::solve_jacobi_pcg(m, b, options).iterations;
    }
    jacobi_ms.push_back(ms_between(t0, Clock::now()));
  }
  std::vector<linalg::Vector> cols;
  for (std::uint64_t j = 0; j < 16; ++j) cols.push_back(make_rhs(n, stream, 200 + j));
  const linalg::MultiVector block = linalg::MultiVector::from_columns(cols);
  const Clock::time_point t0 = Clock::now();
  {
    const Scope span("solver.solve_multi");
    solver::solve_sdd_multi(m, chain, block, options);
  }
  const double multi_ms = ms_between(t0, Clock::now());

  report.set("solver.chain_levels", static_cast<double>(chain.num_levels()));
  report.set("solver.chain_nnz_ratio",
             static_cast<double>(chain.total_nnz()) / static_cast<double>(m.nnz()));
  report.set("solver.apply_ms", median(apply_ms));
  report.set("solver.solve_ms", median(solve_ms));
  report.set("solver.pcg_iterations", static_cast<double>(chain_iterations));
  report.set("solver.solve_multi_ms", multi_ms);
  report.set("solver.jacobi_pcg_ms", median(jacobi_ms));
  report.set("solver.jacobi_pcg_iterations", static_cast<double>(jacobi_iterations));

  const double chain_e2e_ms = chain_build_s * 1e3 + median(solve_ms);
  std::printf("baseline row (tolerance %.0e, k = 1): chain-PCG %.3f ms, %zu iterations "
              "(+ %.3f s chain build, %zu levels, %.1fx input nnz) | Jacobi-PCG %.3f ms, "
              "%zu iterations | chain k = 16 block %.3f ms\n",
              options.tolerance, median(solve_ms), chain_iterations, chain_build_s,
              chain.num_levels(), report.get("solver.chain_nnz_ratio"), median(jacobi_ms),
              jacobi_iterations, multi_ms);
  if (chain_e2e_ms > median(jacobi_ms))
    std::printf("WARNING: the chain loses to Jacobi-PCG end to end: %.3f ms (build + one "
                "solve) vs %.3f ms, %.0fx slower\n",
                chain_e2e_ms, median(jacobi_ms), chain_e2e_ms / median(jacobi_ms));
}

}  // namespace perfbench
