// DynamicSparsifier unit semantics: turnstile discipline (cancellation,
// duplicate-insert / delete-of-absent diagnostics), live-graph tracking,
// stats and eps accounting, rebuild, golden-hash determinism across thread
// counts, and batch-size-invariant quality. The oracle-differential sweep
// lives in test_dynamic_oracle.cpp.
#include "sparsify/dynamic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/update_stream.hpp"
#include "sparsify/spectral_cert.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace spar::sparsify {
namespace {

using graph::Graph;
using graph::UpdateBatch;

/// Same fingerprint scheme as test_stream.cpp / test_parallel_determinism.
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

DynamicOptions base_options(std::size_t batch_updates, std::uint64_t seed = 7) {
  DynamicOptions opt;
  opt.epsilon = 1.0;  // same empirical-certification target as test_stream.cpp
  opt.rho = 4.0;
  opt.t = 3;
  opt.seed = seed;
  opt.batch_updates = batch_updates;
  opt.sketch_min_edges = 256;  // complete(90) levels must actually sketch
  return opt;
}

/// Replay `u` exactly (multiset semantics) -- the trivial oracle.
Graph replay_survivors(const UpdateBatch& u) {
  Graph g(u.num_vertices);
  std::unordered_map<std::uint64_t, double> live;
  const auto key = [](graph::Vertex a, graph::Vertex b) {
    return (static_cast<std::uint64_t>(a < b ? a : b) << 32) | (a < b ? b : a);
  };
  for (std::size_t i = 0; i < u.size(); ++i) {
    const std::uint64_t k = key(u.u[i], u.v[i]);
    if (u.op[i] == static_cast<std::uint8_t>(graph::UpdateOp::kInsert))
      live[k] = u.w[i];
    else
      live.erase(k);
  }
  for (const auto& [k, w] : live)
    g.add_edge(static_cast<graph::Vertex>(k >> 32),
               static_cast<graph::Vertex>(k & 0xffffffffULL), w);
  return g;
}

TEST(DynamicSparsify, CancellationAnnihilatesInsideTheBatch) {
  DynamicSparsifier dyn(8, base_options(1 << 16));
  dyn.push_insert(0, 1, 1.0);
  dyn.push_insert(1, 2, 2.0);
  dyn.push_delete(0, 1);  // same gutter batch: never reaches the tower
  dyn.flush();
  EXPECT_EQ(dyn.live_edges(), 1u);
  EXPECT_EQ(dyn.stats().cancelled_pairs, 1u);
  EXPECT_EQ(dyn.stats().inserts_applied, 1u);
  EXPECT_EQ(dyn.stats().deletes_applied, 0u);
  const Graph live = dyn.live_graph();
  ASSERT_EQ(live.num_edges(), 1u);
  EXPECT_EQ(live.edge(0).w, 2.0);
}

TEST(DynamicSparsify, ReinsertAfterDeleteIsLegal) {
  DynamicSparsifier dyn(4, base_options(2));  // tiny batches: cross-batch path
  dyn.push_insert(0, 1, 1.0);
  dyn.push_insert(1, 2, 1.0);  // flush 1
  dyn.push_delete(0, 1);
  dyn.push_insert(0, 1, 5.0);  // same batch: delete lands, insert re-lands
  dyn.flush();
  EXPECT_EQ(dyn.live_edges(), 2u);
  const Graph live = dyn.live_graph();
  double w01 = 0.0;
  for (const auto& e : live.edges())
    if ((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0)) w01 = e.w;
  EXPECT_EQ(w01, 5.0);
}

TEST(DynamicSparsify, TurnstileViolationsAreDiagnosed) {
  // A violation is a contract breach: a fresh sparsifier per case (the
  // batch that threw stays un-applied, so the object is not reusable).
  const auto violation = [](auto&& act, const char* needle) {
    DynamicSparsifier dyn(8, base_options(1 << 16));
    dyn.push_insert(0, 1, 1.0);
    dyn.flush();
    try {
      act(dyn);
      dyn.flush();
      FAIL() << "expected spar::Error containing \"" << needle << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  violation([](DynamicSparsifier& d) { d.push_insert(0, 1, 2.0); },
            "duplicate insert");
  violation([](DynamicSparsifier& d) { d.push_insert(1, 0, 2.0); },  // swapped
            "duplicate insert");
  violation([](DynamicSparsifier& d) { d.push_delete(2, 3); },
            "delete of absent");
  violation(
      [](DynamicSparsifier& d) {  // in-batch double insert
        d.push_insert(2, 3, 1.0);
        d.push_insert(2, 3, 2.0);
      },
      "duplicate insert");
  violation(
      [](DynamicSparsifier& d) {  // in-batch double delete of a live edge
        d.push_delete(0, 1);
        d.push_delete(0, 1);
      },
      "delete of absent");
}

TEST(DynamicSparsify, RejectsBadOptions) {
  const auto expect_bad = [](auto&& mutate) {
    DynamicOptions opt;
    mutate(opt);
    EXPECT_THROW(DynamicSparsifier(10, opt), Error);
  };
  EXPECT_THROW(DynamicSparsifier(0, DynamicOptions{}), Error);
  expect_bad([](DynamicOptions& o) { o.epsilon = 0.0; });
  expect_bad([](DynamicOptions& o) { o.rho = 0.5; });
  expect_bad([](DynamicOptions& o) { o.keep_probability = 0.0; });
  expect_bad([](DynamicOptions& o) { o.batch_updates = 0; });
}

TEST(DynamicSparsify, LiveGraphTracksTheSurvivingMultiset) {
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 0.5, 11);
  const UpdateBatch u = graph::synthesize_updates(g, 0.3, 23);
  DynamicSparsifier dyn(g.num_vertices(), base_options(400));
  dyn.apply(u);
  EXPECT_EQ(edge_multiset_hash(dyn.live_graph()),
            edge_multiset_hash(replay_survivors(u)));
  EXPECT_EQ(dyn.live_edges(), replay_survivors(u).num_edges());
}

TEST(DynamicSparsify, StatsAndEpsAccountingAreInternallyConsistent) {
  const Graph g = graph::randomize_weights(graph::complete_graph(80), 0.5, 3);
  const UpdateBatch u = graph::synthesize_updates(g, 0.25, 9);
  const DynamicOptions opt = base_options(1500);  // sketch-worthy levels
  DynamicSparsifier dyn(g.num_vertices(), opt);
  dyn.apply(u);
  const DynCheckpoint cp = dyn.checkpoint();
  const DynStats& s = dyn.stats();

  EXPECT_EQ(s.metrics.updates_ingested, u.size());
  EXPECT_EQ(s.metrics.words_ingested, 3 * u.size());
  EXPECT_EQ(s.metrics.reduce_words, 3 * s.metrics.reduce_edges);
  EXPECT_EQ(s.inserts_applied - s.deletes_applied, s.live_edges);
  EXPECT_EQ(s.inserts_applied + s.deletes_applied + 2 * s.cancelled_pairs,
            u.size());
  // Gutter boundaries are a pure function of the update count.
  EXPECT_EQ(s.batches, (u.size() + opt.batch_updates - 1) / opt.batch_updates);
  EXPECT_EQ(s.checkpoints, 1u);
  EXPECT_GE(s.peak_resident_edges, s.live_edges);
  EXPECT_GE(s.levels_used, 1u);
  EXPECT_GE(s.carry_reduces + s.re_reduces, 1u);

  // The advertised budget split: every pass runs at (1+eps)^((1-s)/2) - 1.
  const double expected_pass =
      std::expm1(0.5 * (1.0 - kStalenessEpsShare) * std::log1p(opt.epsilon));
  EXPECT_DOUBLE_EQ(s.per_pass_epsilon, expected_pass);
  EXPECT_LE(cp.certified_epsilon, opt.epsilon + 1e-12);
  EXPECT_EQ(s.max_composed_epsilon, cp.certified_epsilon);
}

TEST(DynamicSparsify, CheckpointCertifiesAndKeepsConnectivity) {
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 21);
  const UpdateBatch u = graph::synthesize_updates(g, 0.2, 5);
  const DynamicOptions opt = base_options(2000);  // dense enough to sketch
  DynamicSparsifier dyn(g.num_vertices(), opt);
  dyn.apply(u);
  const DynCheckpoint cp = dyn.checkpoint();
  const Graph live = dyn.live_graph();
  EXPECT_LT(cp.sparsifier.num_edges(), live.num_edges());
  EXPECT_TRUE(graph::is_connected(graph::CSRGraph(cp.sparsifier)));
  // certified_epsilon is the analytic composition budget; the empirical
  // pencil interval is held to the user-facing target, as in test_stream.cpp.
  EXPECT_LE(cp.certified_epsilon, opt.epsilon + 1e-12);
  const ApproxBounds bounds = exact_relative_bounds(live, cp.sparsifier);
  ASSERT_TRUE(bounds.defined);
  EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
  EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);
}

TEST(DynamicSparsify, CheckpointIsNonDestructiveAndRepeatable) {
  const Graph g = graph::randomize_weights(graph::complete_graph(70), 0.5, 13);
  const UpdateBatch u = graph::synthesize_updates(g, 0.2, 31);
  DynamicSparsifier dyn(g.num_vertices(), base_options(300));
  dyn.apply(u);
  const DynCheckpoint a = dyn.checkpoint();
  const std::size_t passes_after_first = dyn.stats().carry_reduces +
                                         dyn.stats().re_reduces;
  const DynCheckpoint b = dyn.checkpoint();  // clean tower: no new passes
  EXPECT_EQ(dyn.stats().carry_reduces + dyn.stats().re_reduces,
            passes_after_first);
  EXPECT_EQ(edge_multiset_hash(a.sparsifier), edge_multiset_hash(b.sparsifier));
  EXPECT_EQ(a.certified_epsilon, b.certified_epsilon);
}

TEST(DynamicSparsify, CompactCheckpointsAlsoCertify) {
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 17);
  const UpdateBatch u = graph::synthesize_updates(g, 0.2, 7);
  DynamicOptions opt = base_options(2000);
  opt.compact_checkpoints = true;
  DynamicSparsifier dyn(g.num_vertices(), opt);
  dyn.apply(u);
  const DynCheckpoint cp = dyn.checkpoint();
  EXPECT_LE(cp.certified_epsilon, opt.epsilon + 1e-12);
  const Graph live = dyn.live_graph();
  const ApproxBounds bounds = exact_relative_bounds(live, cp.sparsifier);
  ASSERT_TRUE(bounds.defined);
  EXPECT_GT(bounds.lower, 1.0 - opt.epsilon);
  EXPECT_LT(bounds.upper, 1.0 + opt.epsilon);
}

TEST(DynamicSparsify, RebuildCollapsesTheTowerAndStillCertifies) {
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 29);
  const UpdateBatch u = graph::synthesize_updates(g, 0.1, 3);
  DynamicSparsifier dyn(g.num_vertices(), base_options(250));
  dyn.apply(u);
  dyn.rebuild();
  EXPECT_GE(dyn.stats().rebuilds, 1u);
  const DynCheckpoint cp = dyn.checkpoint();
  const Graph live = dyn.live_graph();
  const ApproxBounds bounds = exact_relative_bounds(live, cp.sparsifier);
  ASSERT_TRUE(bounds.defined);
  EXPECT_GT(bounds.lower, 1.0 - dyn.options().epsilon);
  EXPECT_LT(bounds.upper, 1.0 + dyn.options().epsilon);
}

TEST(DynamicSparsify, DeleteToEmptyAndRefill) {
  DynamicSparsifier dyn(6, base_options(3));
  const auto ring = [&](double w) {
    dyn.push_insert(0, 1, w);
    dyn.push_insert(1, 2, w);
    dyn.push_insert(2, 0, w);
  };
  ring(1.0);
  dyn.push_delete(0, 1);
  dyn.push_delete(1, 2);
  dyn.push_delete(2, 0);
  dyn.flush();
  EXPECT_EQ(dyn.live_edges(), 0u);
  const DynCheckpoint empty = dyn.checkpoint();
  EXPECT_EQ(empty.sparsifier.num_edges(), 0u);
  EXPECT_EQ(empty.certified_epsilon, 0.0);
  ring(2.0);
  dyn.flush();
  EXPECT_EQ(dyn.live_edges(), 3u);
  EXPECT_EQ(dyn.checkpoint().sparsifier.num_edges(), 3u);  // exact serving
}

TEST(DynamicSparsify, DriverMatchesManualApplicationBitForBit) {
  const Graph g = graph::randomize_weights(graph::complete_graph(80), 0.5, 19);
  const UpdateBatch u = graph::synthesize_updates(g, 0.25, 13);
  const DynamicOptions opt = base_options(700);

  graph::MemoryUpdateStream stream(u);
  const DynResult driver = dynamic_sparsify(stream, opt);

  DynamicSparsifier manual(g.num_vertices(), opt);
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u.op[i] == static_cast<std::uint8_t>(graph::UpdateOp::kInsert))
      manual.push_insert(u.u[i], u.v[i], u.w[i]);
    else
      manual.push_delete(u.u[i], u.v[i]);
  }
  const DynCheckpoint cp = manual.checkpoint();
  EXPECT_EQ(edge_multiset_hash(driver.sparsifier), edge_multiset_hash(cp.sparsifier));
  EXPECT_EQ(driver.certified_epsilon, cp.certified_epsilon);
}

TEST(DynamicSparsify, GoldenHashAcrossThreadCounts) {
  // Golden fingerprint recorded from the x86-64 gcc Release build at 1
  // thread; the same constant must hold at every thread count, ThreadLimit(1)
  // included. If a deliberate algorithm change breaks it, re-record via the
  // recipe in BUILDING.md ("Re-baselining").
  const Graph g = graph::randomize_weights(graph::complete_graph(90), 0.5, 21);
  const UpdateBatch u = graph::synthesize_updates(g, 0.25, 41);
  const DynamicOptions opt = base_options(1000, 33);  // sketch-worthy levels

  constexpr std::uint64_t kGoldenHash = 0x6d2219ad71fb59ddULL;
  constexpr std::size_t kGoldenEdges = 1480;

  for (const int threads : {1, 2, 4}) {
    support::par::ThreadLimit limit(threads);
    graph::MemoryUpdateStream stream(u);
    const DynResult r = dynamic_sparsify(stream, opt);
    EXPECT_EQ(r.sparsifier.num_edges(), kGoldenEdges) << threads << " threads";
    EXPECT_EQ(edge_multiset_hash(r.sparsifier), kGoldenHash)
        << threads << " threads";
  }
}

TEST(DynamicSparsify, ArrivalChunkingDoesNotChangeTheResult) {
  // Pushing one update at a time vs apply()ing arbitrary chunks must land
  // identical tower batches: boundaries depend only on the update sequence.
  const Graph g = graph::randomize_weights(graph::complete_graph(60), 0.5, 23);
  const UpdateBatch u = graph::synthesize_updates(g, 0.3, 19);
  const DynamicOptions opt = base_options(333);

  DynamicSparsifier one_by_one(g.num_vertices(), opt);
  for (std::size_t i = 0; i < u.size(); ++i) {
    UpdateBatch single;
    single.num_vertices = u.num_vertices;
    single.append(u, i, i + 1);
    one_by_one.apply(single);
  }
  DynamicSparsifier chunked(g.num_vertices(), opt);
  std::size_t at = 0;
  const std::size_t chunks[] = {7, 501, 64, 1000000};
  for (std::size_t ci = 0; at < u.size(); ci = (ci + 1) % 4) {
    UpdateBatch chunk;
    chunk.num_vertices = u.num_vertices;
    const std::size_t take = std::min(chunks[ci], u.size() - at);
    chunk.append(u, at, at + take);
    at += take;
    chunked.apply(chunk);
  }
  EXPECT_EQ(one_by_one.stats().batches, chunked.stats().batches);
  EXPECT_EQ(edge_multiset_hash(one_by_one.checkpoint().sparsifier),
            edge_multiset_hash(chunked.checkpoint().sparsifier));
}

TEST(DynamicSparsify, BatchSizeChangesTheSparsifierNotTheQuality) {
  // Different tower batch sizes give different (all certified) outputs: the
  // recorded contract is the quality bound, not hash equality.
  const Graph g = graph::randomize_weights(graph::complete_graph(100), 0.5, 9);
  const UpdateBatch u = graph::synthesize_updates(g, 0.2, 11);
  for (const std::size_t batch : {u.size(), u.size() / 2, u.size() / 8}) {
    const DynamicOptions opt = base_options(batch, 11);
    DynamicSparsifier dyn(g.num_vertices(), opt);
    dyn.apply(u);
    const DynCheckpoint cp = dyn.checkpoint();
    EXPECT_LE(cp.certified_epsilon, opt.epsilon + 1e-12) << "batch " << batch;
    const ApproxBounds bounds = exact_relative_bounds(dyn.live_graph(), cp.sparsifier);
    ASSERT_TRUE(bounds.defined) << "batch " << batch;
    EXPECT_GT(bounds.lower, 1.0 - opt.epsilon) << "batch " << batch;
    EXPECT_LT(bounds.upper, 1.0 + opt.epsilon) << "batch " << batch;
  }
}

}  // namespace
}  // namespace spar::sparsify
