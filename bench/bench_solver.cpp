// E7 (Theorem 6 / Section 4): the Peng-Spielman chain solver with
// PARALLELSPARSIFY between levels, vs plain CG and Jacobi-PCG.
//
// Rows: (family, n) sweep. Columns: chain depth and total stored nonzeros
// (the "size of the approximate inverse chain" driving Theorem 6's work
// bound), PCG iterations for each method at equal tolerance, and wall time.
// The chain should cut iterations by a large factor on high-diameter graphs
// (grids), where CG's sqrt(kappa) iteration count hurts most.
#include <cstdio>
#include <vector>

#include <cmath>

#include "bench/common.hpp"
#include "solver/multigrid.hpp"
#include "solver/solver.hpp"
#include "support/rng.hpp"

using namespace spar;

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 29);

  struct Case {
    std::string family;
    graph::Vertex n;
  };
  std::vector<Case> cases = {{"grid", 1024}, {"grid", 4096}, {"er", 2048},
                             {"pa", 2048},   {"ws", 2048}};
  if (quick) cases = {{"grid", 1024}, {"er", 1024}};

  support::Table table({"family", "n", "m", "method", "iters", "residual",
                        "chain lvls", "chain nnz", "ms"});

  for (const auto& c : cases) {
    const graph::Graph g = bench::make_family(c.family, c.n, seed);
    const solver::SDDMatrix m{graph::Graph(g)};
    support::Rng rng(seed);
    linalg::Vector b(m.dimension());
    for (double& v : b) v = rng.normal();
    linalg::remove_mean(b);

    solver::SolveOptions sopt;
    sopt.tolerance = 1e-8;
    sopt.chain.rho = 8.0;
    sopt.chain.t = 1;

    {
      support::Timer timer;
      const auto report = solver::solve_sdd(m, b, sopt);
      table.add_row({c.family, std::to_string(c.n), std::to_string(g.num_edges()),
                     "chain-pcg", std::to_string(report.iterations),
                     support::Table::cell(report.relative_residual),
                     std::to_string(report.chain_levels),
                     std::to_string(report.chain_total_nnz),
                     support::Table::cell(timer.millis())});
    }
    {
      support::Timer timer;
      const auto report = solver::solve_cg(m, b, sopt);
      table.add_row({c.family, std::to_string(c.n), std::to_string(g.num_edges()),
                     "plain-cg", std::to_string(report.iterations),
                     support::Table::cell(report.relative_residual), "-", "-",
                     support::Table::cell(timer.millis())});
    }
    {
      support::Timer timer;
      const auto report = solver::solve_jacobi_pcg(m, b, sopt);
      table.add_row({c.family, std::to_string(c.n), std::to_string(g.num_edges()),
                     "jacobi-pcg", std::to_string(report.iterations),
                     support::Table::cell(report.relative_residual), "-", "-",
                     support::Table::cell(timer.millis())});
    }
    if (c.family == "grid") {
      // Remark 1 comparator: geometric multigrid on the grid instance class.
      const auto side = static_cast<std::size_t>(std::sqrt(double(c.n)));
      support::Timer timer;
      const auto report = solver::multigrid_solve(m, side, side, b, sopt.tolerance);
      table.add_row({c.family, std::to_string(c.n), std::to_string(g.num_edges()),
                     "multigrid-pcg", std::to_string(report.iterations),
                     support::Table::cell(report.relative_residual),
                     std::to_string(report.levels), std::to_string(report.total_nnz),
                     support::Table::cell(timer.millis())});
    }
  }
  table.print("E7 / Theorem 6: chain-preconditioned CG vs baselines");
  std::printf("\nExpected shape: chain-pcg converges in O(1)-ish iterations "
              "(theory: the chain is an eps-approximate inverse); plain CG "
              "iterations grow with diameter/condition number. On grids, "
              "multigrid (Remark 1's specialized comparator) achieves the "
              "same flat iteration count with a far smaller hierarchy -- the "
              "gap Remark 3 conjectures can be closed.\n");
  return 0;
}
