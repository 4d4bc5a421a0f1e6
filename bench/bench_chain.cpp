// E14 (chain construction): the InverseChain build per workload.
//
// Every Peng-Spielman level squares its graph (vertices at hop distance 2
// become adjacent): square() materializes the product A D^{-1} A, the
// largest object the solver touches, and the chain sparsifies the square
// back toward 4n edges. The depth probe picks how many levels to keep.
//
// Table A: chain build per workload at 1, 2 and 4 threads: wall-clock,
// levels and stored size. Each build is hashed (level sizes plus the bits of
// one full apply) against the 1-thread build.
//
// Table B: per-level detail of each workload's build (edges, edges after
// square, gamma, depth probe).
//
// Table C: one solve_sdd per workload to --tol on a seeded right-hand side.
//
// Exit code: nonzero if a build differs across thread counts or a solve
// fails to converge. Wall-clock is reported, never asserted.
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "bench/common.hpp"
#include "solver/chain.hpp"
#include "solver/solver.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

using namespace spar;

namespace {

/// Laplacian of `g` grounded at vertex 0: the near-singular SDD workload the
/// chain benches share (slack elsewhere would shorten the chain).
solver::SDDMatrix grounded(const graph::Graph& g) {
  linalg::Vector slack(g.num_vertices(), 0.0);
  slack[0] = 1.0;
  return solver::SDDMatrix(g, slack);
}

/// FNV-1a fingerprint of a built chain: level sizes plus the IEEE-754 bits of
/// one full apply on a fixed rhs (probes every stored weight). Equal hashes
/// across thread counts == bit-identical chains.
std::uint64_t chain_probe_hash(const solver::InverseChain& chain) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& info : chain.level_info()) {
    mix(info.edges);
    mix(info.edges_after_square);
  }
  const std::size_t n = chain.dimension();
  support::Rng rng(4242);
  linalg::Vector b(n), y(n);
  for (double& v : b) v = rng.normal();
  chain.apply(b, y);
  for (double v : y) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

int run(int argc, char** argv) {
  const support::Options opt(argc, argv);
  opt.reject_unknown({"quick", "seed", "grid-side", "er-n", "levels", "eps", "rho", "t", "tol"});
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 31);
  const auto side =
      static_cast<graph::Vertex>(opt.get_int("grid-side", quick ? 48 : 1000));
  const auto er_n =
      static_cast<graph::Vertex>(opt.get_int("er-n", quick ? 2000 : 125000));
  const auto levels = static_cast<std::size_t>(opt.get_int("levels", 4));
  const double eps = opt.get_double("eps", 0.5);
  const double rho = opt.get_double("rho", 8.0);
  const auto t = static_cast<std::size_t>(opt.get_int("t", 1));
  const double tol = opt.get_double("tol", 1e-6);
  bool ok = true;

  std::printf("parallel backend: %s\n", support::par::backend_description().c_str());

  solver::ChainOptions copt;
  copt.level_epsilon = eps;
  copt.rho = rho;
  copt.t = t;
  copt.max_levels = levels;
  copt.seed = seed;

  const struct {
    std::string name;
    graph::Graph graph;
  } workloads[] = {
      {"grid " + std::to_string(side) + "x" + std::to_string(side),
       graph::grid2d(side, side)},
      {"er n=" + std::to_string(er_n) + " deg~16", bench::make_family("er", er_n, seed)},
  };

  support::Table builds({"workload", "threads", "build ms", "levels", "total nnz",
                         "same bits"});
  support::Table solves({"workload", "levels", "iters", "residual", "converged"});

  for (const auto& w : workloads) {
    const solver::SDDMatrix m = grounded(w.graph);
    std::printf("workload: %s  (n=%zu m=%zu)\n", w.name.c_str(), m.dimension(),
                w.graph.num_edges());

    std::unique_ptr<solver::InverseChain> first;
    std::uint64_t first_hash = 0;
    for (const int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      support::Timer timer;
      auto chain = std::make_unique<solver::InverseChain>(m, copt);
      const double build_ms = timer.millis();
      const std::uint64_t h = chain_probe_hash(*chain);
      if (threads == 1) first_hash = h;
      const bool same = h == first_hash;
      if (!same) {
        std::printf("BUG: chain differs between 1 and %d threads\n", threads);
        ok = false;
      }
      builds.add_row({w.name, std::to_string(threads), support::Table::cell(build_ms),
                      std::to_string(chain->num_levels()),
                      std::to_string(chain->total_nnz()), same ? "yes" : "NO (BUG)"});
      if (threads == 1) first = std::move(chain);
    }

    support::Table lvls({"level", "edges", "after square", "gamma", "probe iters",
                         "probe work"});
    for (std::size_t i = 0; i < first->level_info().size(); ++i) {
      const auto& info = first->level_info()[i];
      lvls.add_row({std::to_string(i), std::to_string(info.edges),
                    std::to_string(info.edges_after_square), support::Table::cell(info.gamma),
                    std::to_string(info.probe_iterations),
                    support::Table::cell(info.probe_work)});
    }
    lvls.print("E14 (b): per-level detail, " + w.name);

    support::Rng rng(77);
    linalg::Vector b(m.dimension());
    for (double& v : b) v = rng.normal();
    solver::SolveOptions sopt;
    sopt.tolerance = tol;
    const solver::SolveReport rep = solver::solve_sdd(m, *first, b, sopt);
    ok = ok && rep.converged;
    solves.add_row({w.name, std::to_string(first->num_levels()),
                    std::to_string(rep.iterations), support::Table::cell(rep.relative_residual),
                    rep.converged ? "yes" : "NO (BUG)"});
  }
  builds.print("E14 (a): chain build, eps=" + support::Table::cell(eps) +
               ", rho=" + support::Table::cell(rho) + ", t=" + std::to_string(t));
  solves.print("E14 (c): one solve_sdd to tol=" + support::Table::cell(tol));

  std::printf("\nacceptance: every build bit-identical across thread counts and every "
              "solve converged: %s\n",
              ok ? "correctness PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "bench_chain: error: %s\n", err.what());
    return 1;
  }
}
