// Distributed demo: run the synchronous Baswana-Sen protocol (Theorem 2) on
// the message-passing simulator and narrate what the network did -- rounds,
// messages, words, and the resulting spanner's quality.
//
//   ./distributed_spanner_demo [--n=400] [--p=0.05] [--seed=3]
#include <cstdio>

#include "dist/runner.hpp"
#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/stretch.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace spar;
  const support::Options opt(argc, argv);
  const auto n = static_cast<graph::Vertex>(opt.get_int("n", 400));
  const double p = opt.get_double("p", 0.05);
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 3));

  const graph::Graph g = graph::connected_erdos_renyi(n, p, seed);
  const std::size_t k = spanner::auto_spanner_k(n);
  std::printf("network: n=%u nodes, m=%zu links; running (2k-1)-spanner with "
              "k=%zu (stretch bound %zu)\n",
              n, g.num_edges(), k, 2 * k - 1);

  const auto result = dist::run_distributed_spanner(g, {.k = 0, .seed = seed}, {});

  std::printf("\nprotocol transcript summary:\n");
  std::printf("  rounds:            %llu  (Theorem 2 budget: O(log^2 n) ~ %.0f)\n",
              static_cast<unsigned long long>(result.metrics.rounds),
              double(k * k));
  std::printf("  messages:          %llu\n",
              static_cast<unsigned long long>(result.metrics.messages));
  std::printf("  words on the wire: %llu  (Theorem 2 budget: O(m log n) ~ %.0f)\n",
              static_cast<unsigned long long>(result.metrics.words),
              double(g.num_edges()) * double(k));
  std::printf("  message size:      %llu words each (O(log n) bits)\n",
              static_cast<unsigned long long>(result.metrics.max_message_words));

  std::vector<bool> mask(g.num_edges(), false);
  for (auto id : result.spanner_edges) mask[id] = true;
  const auto stretch = spanner::stretch_over_subgraph(g, mask);
  std::printf("\nspanner: %zu of %zu edges kept (%.1f%%)\n",
              result.spanner_edges.size(), g.num_edges(),
              100.0 * double(result.spanner_edges.size()) / double(g.num_edges()));
  std::printf("stretch: max %.2f, mean %.2f (bound %zu); dropped edges with a "
              "detour: %zu, disconnected: %zu\n",
              stretch.max_stretch, stretch.mean_stretch, 2 * k - 1,
              stretch.checked_edges, stretch.disconnected_pairs);
  return 0;
}
