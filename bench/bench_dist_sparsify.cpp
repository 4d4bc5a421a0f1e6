// E2b/E5b (Theorem 5, distributed statement): full distributed
// PARALLELSPARSIFY -- per-round rounds/messages/words, confirming that the
// first round dominates the total communication (the geometric-decay
// argument that gives O(m log^3 n log^3 rho / eps^2) total).
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "dist/runner.hpp"

using namespace spar;

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 41);
  const auto n = static_cast<graph::Vertex>(opt.get_int("n", quick ? 100 : 200));

  const graph::Graph g = bench::make_family("complete", n, seed);

  dist::DistSparsifyOptions dopt;
  dopt.rho = opt.get_double("rho", 16.0);
  dopt.t = static_cast<std::size_t>(opt.get_int("t", 1));
  dopt.seed = seed;
  const auto result = dist::run_distributed_sparsify(g, dopt, {});

  support::Table table({"round", "edges in", "edges out", "net rounds",
                        "messages", "words", "max round words"});
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    table.add_row({std::to_string(i + 1), std::to_string(r.edges_before),
                   std::to_string(r.edges_after),
                   std::to_string(r.metrics.rounds),
                   std::to_string(r.metrics.messages),
                   std::to_string(r.metrics.words),
                   std::to_string(r.metrics.max_round_words)});
  }
  table.print("E5 distributed: per-round protocol cost, complete n=" +
              std::to_string(n) + " rho=" + std::to_string(int(dopt.rho)));

  std::printf("\ntotals: %llu rounds, %llu messages, %llu words "
              "(busiest phase %llu words); final %zu of %zu edges\n",
              static_cast<unsigned long long>(result.metrics.rounds),
              static_cast<unsigned long long>(result.metrics.messages),
              static_cast<unsigned long long>(result.metrics.words),
              static_cast<unsigned long long>(result.metrics.max_round_words),
              result.sparsifier.num_edges(), g.num_edges());
  std::printf("Expected shape: messages/words strictly decreasing per round "
              "(geometric size decay); round 1 dominates.\n");
  return 0;
}
