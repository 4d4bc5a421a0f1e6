// Thread-count independence: every randomized parallel algorithm must emit
// bit-identical results for 1, 2, and 4 threads, because all coins are
// counter-based functions of (seed, index). This is the property that makes
// the CRCW-PRAM-style implementation debuggable and the benches reproducible.
#include <gtest/gtest.h>

#include "dist/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/bundle.hpp"
#include "sparsify/sparsify.hpp"
#include "support/parallel.hpp"

namespace spar {
namespace {

using graph::Graph;

// Runs f under a temporary thread budget (par::ThreadLimit restores it).
template <typename F>
auto run_with(int threads, F&& f) {
  support::par::ThreadLimit limit(threads);
  return f();
}

TEST(Determinism, SpannerIdenticalAcrossThreadCounts) {
  const Graph g = graph::connected_erdos_renyi(300, 0.08, 3);
  const graph::CSRGraph csr(g);
  const auto base = run_with(1, [&] {
    return spanner::baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 5});
  });
  for (int threads : {2, 4}) {
    const auto other = run_with(threads, [&] {
      return spanner::baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 5});
    });
    EXPECT_EQ(base, other) << threads << " threads";
  }
}

TEST(Determinism, BundleIdenticalAcrossThreadCounts) {
  const Graph g = graph::complete_graph(64);
  const auto base =
      run_with(1, [&] { return spanner::t_bundle(g, {.t = 3, .seed = 7}); });
  const auto other =
      run_with(4, [&] { return spanner::t_bundle(g, {.t = 3, .seed = 7}); });
  EXPECT_EQ(base.in_bundle, other.in_bundle);
}

TEST(Determinism, SparsifyIdenticalAcrossThreadCounts) {
  const Graph g = graph::complete_graph(80);
  sparsify::SparsifyOptions opt;
  opt.rho = 8.0;
  opt.t = 1;
  opt.seed = 9;
  const auto base =
      run_with(1, [&] { return sparsify::parallel_sparsify(g, opt); });
  const auto other =
      run_with(4, [&] { return sparsify::parallel_sparsify(g, opt); });
  EXPECT_TRUE(base.sparsifier.same_edges(other.sparsifier));
}

TEST(Determinism, CsrConstructionIdenticalAcrossThreadCounts) {
  const Graph g = graph::connected_erdos_renyi(500, 0.05, 11);
  const auto fingerprint = [&](int threads) {
    return run_with(threads, [&] {
      const graph::CSRGraph csr(g);
      // Fingerprint the full arc layout.
      std::vector<std::uint64_t> fp;
      for (graph::Vertex v = 0; v < csr.num_vertices(); ++v)
        for (const graph::Arc& arc : csr.neighbors(v))
          fp.push_back((std::uint64_t(arc.to) << 32) ^ arc.id);
      return fp;
    });
  };
  const auto base = fingerprint(1);
  EXPECT_EQ(base, fingerprint(2));
  EXPECT_EQ(base, fingerprint(4));
}

TEST(Determinism, DistributedSpannerIndependentOfSharedMemoryThreads) {
  const Graph g = graph::connected_erdos_renyi(120, 0.1, 13);
  const auto base = run_with(1, [&] {
    return dist::run_distributed_spanner(g, {.k = 0, .seed = 15}, {});
  });
  const auto other = run_with(4, [&] {
    return dist::run_distributed_spanner(g, {.k = 0, .seed = 15}, {});
  });
  EXPECT_EQ(base.spanner_edges, other.spanner_edges);
  EXPECT_EQ(base.metrics.rounds, other.metrics.rounds);
  EXPECT_EQ(base.metrics.messages, other.metrics.messages);
}

}  // namespace
}  // namespace spar
