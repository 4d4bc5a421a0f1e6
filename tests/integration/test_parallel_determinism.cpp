// Seed-determinism of the full PARALLELSPARSIFY pipeline across thread
// counts: the substrate's counter-based coins and deterministic reductions
// must make `parallel_sparsify` emit bit-identical edge sets for 1 and N
// threads, and the distributed simulator must reproduce the shared-memory
// output exactly (same derived seeds, same decision logic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "dist/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "spanner/baswana_sen.hpp"
#include "sparsify/sample.hpp"
#include "sparsify/sparsify.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar {
namespace {

using graph::Graph;

sparsify::SparsifyOptions sparsify_options(std::uint64_t seed) {
  sparsify::SparsifyOptions opt;
  opt.rho = 8.0;
  opt.t = 2;
  opt.seed = seed;
  return opt;
}

/// Order-insensitive, bit-exact fingerprint of (n, edge multiset): FNV-1a
/// over the normalized sorted edge list, weights by IEEE-754 bit pattern.
std::uint64_t edge_multiset_hash(const Graph& g) {
  std::vector<graph::Edge> es(g.edges().begin(), g.edges().end());
  for (auto& e : es)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(es.begin(), es.end(), [](const graph::Edge& a, const graph::Edge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(g.num_vertices());
  mix(es.size());
  for (const auto& e : es) {
    mix(e.u);
    mix(e.v);
    std::uint64_t wb = 0;
    std::memcpy(&wb, &e.w, sizeof(wb));
    mix(wb);
  }
  return h;
}

TEST(ParallelDeterminism, SparsifyEdgeSetsIdenticalAcrossThreadCounts) {
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 21);
  sparsify::SparsifyResult base;
  {
    support::par::ThreadLimit one(1);
    base = sparsify::parallel_sparsify(g, sparsify_options(33));
  }
  for (int threads : {2, 4, 8}) {
    support::par::ThreadLimit limit(threads);
    const auto other = sparsify::parallel_sparsify(g, sparsify_options(33));
    EXPECT_TRUE(base.sparsifier.same_edges(other.sparsifier))
        << threads << " threads";
    ASSERT_EQ(base.rounds.size(), other.rounds.size());
    for (std::size_t r = 0; r < base.rounds.size(); ++r) {
      EXPECT_EQ(base.rounds[r].edges_after, other.rounds[r].edges_after);
      EXPECT_EQ(base.rounds[r].sampled_edges, other.rounds[r].sampled_edges);
    }
  }
}

TEST(ParallelDeterminism, SparsifyOutputMatchesPreRefactorGoldenHashes) {
  // Golden fingerprints recorded from the pre-EdgeArena pipeline (PR 1 state,
  // serial assemble loop + per-round Graph/CSR rebuild) on x86-64 gcc,
  // Release. The zero-copy round pipeline must reproduce them bit for bit,
  // for every thread count, ThreadLimit(1) included. Weights go through
  // IEEE *, /, and glibc exp/log in the generators only, so the constants
  // are stable on the toolchains CI uses. If a deliberate algorithm change breaks them,
  // re-record via the recipe in BUILDING.md ("Re-baselining").
  struct GoldenCase {
    const char* name;
    Graph g;
    sparsify::SparsifyOptions opt;
    std::size_t edges_out;
    std::uint64_t hash;
  };
  sparsify::SparsifyOptions er_opt;
  er_opt.rho = 4.0;
  er_opt.t = 2;
  er_opt.seed = 7;
  sparsify::SparsifyOptions tree_opt;
  tree_opt.rho = 4.0;
  tree_opt.t = 2;
  tree_opt.seed = 9;
  tree_opt.bundle_kind = sparsify::BundleKind::kTree;

  std::vector<GoldenCase> cases;
  cases.push_back({"complete90",
                   graph::randomize_weights(graph::complete_graph(90), 0.5, 21),
                   sparsify_options(33), 1063, 0x499d6702380afe3cULL});
  cases.push_back({"er300", graph::connected_erdos_renyi(300, 0.08, 5), er_opt,
                   3054, 0x1918ee21c74950d0ULL});
  cases.push_back({"er300-tree", graph::connected_erdos_renyi(300, 0.08, 5),
                   tree_opt, 827, 0xb5eebf49cd2ccfedULL});

  for (const auto& c : cases) {
    for (int threads : {1, 2, 4}) {
      support::par::ThreadLimit limit(threads);
      const auto result = sparsify::parallel_sparsify(c.g, c.opt);
      EXPECT_EQ(result.sparsifier.num_edges(), c.edges_out)
          << c.name << " @ " << threads << " threads";
      EXPECT_EQ(edge_multiset_hash(result.sparsifier), c.hash)
          << c.name << " @ " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminism, SampleIdenticalAcrossThreadCountsOnSparseGraph) {
  const Graph g = graph::connected_erdos_renyi(400, 0.06, 5);
  sparsify::SampleOptions opt;
  opt.t = 2;
  opt.seed = 11;
  sparsify::SampleResult base;
  {
    support::par::ThreadLimit one(1);
    base = sparsify::parallel_sample(g, opt);
  }
  {
    support::par::ThreadLimit four(4);
    const auto other = sparsify::parallel_sample(g, opt);
    EXPECT_TRUE(base.sparsifier.same_edges(other.sparsifier));
    EXPECT_EQ(base.bundle_edges, other.bundle_edges);
    EXPECT_EQ(base.sampled_edges, other.sampled_edges);
  }
}

TEST(ParallelDeterminism, DistributedSimulatorReproducesSharedMemorySpanner) {
  const Graph g = graph::connected_erdos_renyi(250, 0.08, 17);
  const graph::CSRGraph csr(g);
  const auto shared =
      spanner::baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = 23});
  const auto distributed = dist::run_distributed_spanner(g, {.k = 0, .seed = 23}, {});
  EXPECT_EQ(shared, distributed.spanner_edges);
}

TEST(ParallelDeterminism, DistributedSampleReproducesSharedMemorySample) {
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 0.5, 29);
  sparsify::SampleOptions shared_opt;
  shared_opt.t = 3;
  shared_opt.seed = 31;
  const auto shared = sparsify::parallel_sample(g, shared_opt);
  dist::DistSampleOptions dist_opt;
  dist_opt.t = 3;
  dist_opt.seed = 31;
  const auto distributed = dist::run_distributed_sample(g, dist_opt, {});
  EXPECT_TRUE(shared.sparsifier.same_edges(distributed.sparsifier));
  EXPECT_EQ(shared.bundle_edges, distributed.bundle_edges);
  EXPECT_EQ(shared.sampled_edges, distributed.sampled_edges);
}

TEST(ParallelDeterminism, DotProductBitIdenticalAcrossThreadCounts) {
  // The linalg reductions feed CG; their chunked deterministic
  // summation keeps whole solver trajectories reproducible across machines.
  const std::size_t n = 1 << 17;  // above the parallel threshold
  std::vector<double> a(n), b(n);
  support::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  double base;
  {
    support::par::ThreadLimit one(1);
    base = linalg::dot(a, b);
  }
  for (int threads : {2, 4}) {
    support::par::ThreadLimit limit(threads);
    EXPECT_EQ(base, linalg::dot(a, b)) << threads << " threads";
  }
}

}  // namespace
}  // namespace spar
