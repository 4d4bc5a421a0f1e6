// E2 (Theorem 2): distributed Baswana-Sen -- O(log^2 n) rounds, O(m log n)
// communication, message size O(log n).
//
// Rows: one per (family, n); columns show rounds / log2(n)^2 and
// words / (m log2 n) (flat columns confirm the claims) plus the exact
// per-message word bound enforced by the simulator.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "dist/runner.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/stretch.hpp"

using namespace spar;

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 11);

  std::vector<graph::Vertex> sizes = {128, 256, 512, 1024, 2048};
  if (quick) sizes = {128, 256, 512};
  const std::vector<std::string> families = {"er", "grid"};

  support::Table table({"family", "n", "m", "rounds", "rounds/lg^2 n", "messages",
                        "words/(m lg n)", "msg words", "max round words",
                        "max_stretch", "bound"});

  for (const auto& family : families) {
    for (const graph::Vertex n : sizes) {
      const graph::Graph g = bench::make_family(family, n, seed);
      const auto result = dist::run_distributed_spanner(g, {.k = 0, .seed = seed}, {});

      const std::size_t k = spanner::auto_spanner_k(g.num_vertices());
      std::string stretch_cell = "-";
      if (g.num_vertices() <= 1100) {
        std::vector<bool> mask(g.num_edges(), false);
        for (auto id : result.spanner_edges) mask[id] = true;
        stretch_cell = support::Table::cell(
            spanner::stretch_over_subgraph(g, mask).max_stretch);
      }

      const double lg = bench::log2n(n);
      table.add_row(
          {family, std::to_string(n), std::to_string(g.num_edges()),
           std::to_string(result.metrics.rounds),
           support::Table::cell(double(result.metrics.rounds) / (lg * lg)),
           std::to_string(result.metrics.messages),
           support::Table::cell(double(result.metrics.words) /
                                (double(g.num_edges()) * lg)),
           std::to_string(result.metrics.max_message_words),
           std::to_string(result.metrics.max_round_words), stretch_cell,
           std::to_string(2 * k - 1)});
    }
  }
  table.print("E2 / Theorem 2: distributed spanner rounds & communication");
  std::printf("\nEvery message is tag + 2 words (O(log n) bits), enforced by the "
              "simulator.\n");
  return 0;
}
