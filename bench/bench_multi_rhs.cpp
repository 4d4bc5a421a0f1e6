// E13: batched multi-RHS chain solves vs the per-RHS loop.
//
// One InverseChain is built per instance and shared by both paths; the
// comparison is pure solve throughput at equal tolerance. The batched path
// (solve_sdd_multi) traverses each chain level's CSR once per PCG iteration
// for the whole block; the per-RHS loop (k calls to solve_sdd over the same
// chain) streams the chain k times. Batched per-column solutions must be
// BIT-identical to the per-RHS loop -- the binary exits nonzero if they
// differ or if any solve misses the tolerance, so CI can smoke it. Each
// side is timed three times, alternating loop and block, and the table
// shows the medians; a block (k >= 2) whose median is slower than its
// per-RHS loop's prints a WARNING line: a flag for the reader, not a
// failure, since wall-clock is machine-dependent.
//
// A second table times the effective-resistance JL sketch, which routes
// through blocked CG: block_size=1 is the old probe-at-a-time schedule,
// block_size=16 the batched one; the sketch itself is identical bitwise.
//
//   ./bench_multi_rhs [--quick=1] [--seed=N] [--k=1,2,4,8,16,32,64] [--tol=1e-8]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "resistance/effective_resistance.hpp"
#include "solver/solver.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace spar;

namespace {

linalg::MultiVector rhs_block(std::size_t n, std::size_t k, std::uint64_t seed) {
  std::vector<linalg::Vector> cols;
  for (std::size_t j = 0; j < k; ++j) {
    support::Rng rng(support::mix64(seed, j));
    linalg::Vector b(n);
    for (double& v : b) v = rng.normal();
    linalg::remove_mean(b);
    cols.push_back(std::move(b));
  }
  return linalg::MultiVector::from_columns(cols);
}

std::vector<std::size_t> parse_k_list(const support::Options& opt, bool quick) {
  if (!opt.has("k")) {
    if (quick) return {1, 2, 4, 16};  // 2 is the Fiedler block width
    return {1, 2, 4, 8, 16, 32, 64};
  }
  std::vector<std::size_t> out;
  const std::string s = opt.get("k", "");
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t next = s.find(',', pos);
    const std::string tok = s.substr(pos, next == std::string::npos ? next : next - pos);
    out.push_back(support::parse_number<std::size_t>("--k", tok));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  if (out.empty()) throw spar::Error("--k needs at least one value");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 31);
  const double tol = opt.get_double("tol", 1e-8);
  const std::vector<std::size_t> k_list = parse_k_list(opt, quick);

  struct Case {
    std::string family;
    graph::Vertex n;
  };
  // Sized so the chain exceeds L2 (the regime where one-traversal pays): the
  // depth probe keeps 2 levels of the 240x240 grid's chain, ~0.8M stored nnz
  // (~10 MB of CSR data), and 1 level of the er chain, ~0.3M. On a 4-thread
  // box (Release) the grid chain builds in ~1.7 s and the er chain in ~1.1 s.
  std::vector<Case> cases = {{"grid", 57600}, {"er", 16384}};
  if (quick) cases = {{"grid", 4096}, {"er", 1024}};

  solver::SolveOptions sopt;
  sopt.tolerance = tol;
  sopt.chain.rho = 8.0;
  sopt.chain.t = 1;

  support::Table table({"family", "n", "m", "k", "loop ms (med)", "batched ms (med)", "speedup",
                        "iters", "max resid", "bitwise"});
  bool ok = true;
  std::vector<std::string> warnings;

  for (const auto& c : cases) {
    const graph::Graph g = bench::make_family(c.family, c.n, seed);
    const solver::SDDMatrix m{graph::Graph(g)};

    support::Timer chain_timer;
    const solver::InverseChain chain(m, sopt.chain);
    const double chain_ms = chain_timer.millis();
    std::printf("%s n=%zu m=%zu: chain %zu levels, %zu nnz, built in %.0f ms "
                "(shared by both paths)\n",
                c.family.c_str(), m.dimension(), g.num_edges(), chain.num_levels(),
                chain.total_nnz(), chain_ms);

    for (const std::size_t k : k_list) {
      const linalg::MultiVector b = rhs_block(m.dimension(), k, seed + 7);

      std::vector<linalg::Vector> b_cols;
      for (std::size_t j = 0; j < k; ++j) b_cols.push_back(b.column_copy(j));

      // One timing of each side is at the mercy of host noise; alternate
      // the two three times and compare medians.
      constexpr int kRepeats = 3;
      std::vector<double> loop_times, batch_times;
      bool bitwise = true;
      double max_resid = 0.0;
      std::size_t iters = 0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        support::Timer loop_timer;
        std::vector<solver::SolveReport> loop_reports;
        for (std::size_t j = 0; j < k; ++j)
          loop_reports.push_back(solver::solve_sdd(m, chain, b_cols[j], sopt));
        loop_times.push_back(loop_timer.millis());

        support::Timer batch_timer;
        const auto batched = solver::solve_sdd_multi(m, chain, b, sopt);
        batch_times.push_back(batch_timer.millis());

        for (std::size_t j = 0; j < k; ++j) {
          const linalg::Vector col = batched.solutions.column_copy(j);
          bitwise = bitwise &&
                    std::memcmp(col.data(), loop_reports[j].solution.data(),
                                col.size() * sizeof(double)) == 0 &&
                    batched.columns[j].iterations == loop_reports[j].iterations;
          ok = ok && loop_reports[j].converged && batched.columns[j].converged;
          max_resid = std::max(max_resid, batched.columns[j].relative_residual);
          max_resid = std::max(max_resid, loop_reports[j].relative_residual);
          iters = std::max(iters, batched.columns[j].iterations);
        }
      }
      ok = ok && bitwise;
      const double loop_ms = support::percentile(loop_times, 0.5);
      const double batch_ms = support::percentile(batch_times, 0.5);
      if (k >= 2 && batch_ms > loop_ms) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "WARNING: %s n=%u k=%zu: the block (median %.3g ms) is slower than "
                      "its per-RHS loop (median %.3g ms)",
                      c.family.c_str(), static_cast<unsigned>(c.n), k, batch_ms, loop_ms);
        warnings.emplace_back(line);
      }

      table.add_row({c.family, std::to_string(c.n), std::to_string(g.num_edges()),
                     std::to_string(k), support::Table::cell(loop_ms),
                     support::Table::cell(batch_ms),
                     support::Table::cell(loop_ms / batch_ms),
                     std::to_string(iters), support::Table::cell(max_resid),
                     bitwise ? "yes" : "NO"});
    }
  }
  table.print("E13: batched solve_sdd_multi vs per-RHS solve_sdd loop "
              "(shared prebuilt chain, equal tolerance)");
  for (const std::string& w : warnings) std::printf("%s\n", w.c_str());

  // Effective-resistance sketch: the same multi-RHS argument end to end. The
  // sketch output is bit-identical for every block size; only throughput
  // moves.
  {
    const graph::Vertex n = quick ? 700 : 3000;
    const graph::Graph g = bench::make_family("er", n, seed + 3);
    resistance::ApproxResistanceOptions ropt;
    ropt.seed = seed;
    ropt.num_probes = quick ? 16 : 48;

    support::Table er_table({"n", "m", "probes", "block", "ms"});
    linalg::Vector reference;
    for (const std::size_t block : {std::size_t{1}, std::size_t{16}}) {
      ropt.block_size = block;
      support::Timer timer;
      const auto r = resistance::approx_effective_resistances(g, ropt);
      const double ms = timer.millis();
      if (reference.empty()) reference = r;
      ok = ok && r == reference;  // block size must not change the sketch
      er_table.add_row({std::to_string(n), std::to_string(g.num_edges()),
                        std::to_string(ropt.num_probes), std::to_string(block),
                        support::Table::cell(ms)});
    }
    er_table.print("E13b: effective-resistance JL sketch through blocked CG "
                   "(identical output, batched schedule)");
  }

  if (!ok) {
    std::fprintf(stderr, "bench_multi_rhs: FAILED (bitwise mismatch between "
                         "batched and per-RHS solutions, or missed tolerance)\n");
    return 1;
  }
  std::printf("\nbatched == per-RHS loop bit for bit at every k; speedup is the "
              "one-traversal effect (each chain level's CSR streamed once per "
              "iteration for the whole block instead of once per RHS).\n");
  return 0;
}
