#include "dist/shard.hpp"

#include <algorithm>
#include <string>
#include <cmath>
#include <utility>

#include "graph/shard_slice.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/bs_core.hpp"
#include "spanner/bundle.hpp"
#include "sparsify/sample.hpp"
#include "sparsify/sample_core.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::dist {

using graph::EdgeId;
using graph::EdgeView;
using graph::Graph;
using graph::kInvalidVertex;
using graph::Vertex;

namespace bs = spar::spanner::detail;

namespace {

// Message tags of the shard protocol. One enum across all supersteps: a
// message is self-describing, so a mis-routed frame fails loudly instead of
// being misread.
enum Tag : std::uint64_t {
  kTagCenter = 1,   ///< a = vertex, b = its new cluster center
  kTagAdd = 2,      ///< a = global edge id selected into the spanner
  kTagDiscard = 3,  ///< a = global edge id discarded
  kTagStats = 4,    ///< a, b = local contributions to an allreduce
  kTagBundle = 5,   ///< a = global edge id entering the bundle
};

/// Everything one shard holds between supersteps: its identity, the
/// replicated edge directory, and the derived owned-vertex/owned-edge views.
struct World {
  Transport& net;
  graph::VertexPartition part;
  std::size_t self;
  std::size_t shards;

  // Replicated edge directory: u/v/w by global edge id, identical on every
  // shard and evolving identically through compaction rounds (survivor masks
  // are pure functions of exchanged data). It backs ghost-edge weights in
  // the adjacency and the O(1) ownership routing owner(du[e]).
  Vertex n = 0;
  std::vector<Vertex> du, dv;
  std::vector<double> dw;

  graph::ShardSlice slice;     // owned edges (arena + global ids)
  graph::ShardAdjacency adj;   // owned vertices, global edge ids

  // Ghost routing: for owned vertex with local index l, the shards owning at
  // least one of its neighbours (flattened CSR). Rebuilt with the adjacency.
  std::vector<std::size_t> ghost_off;
  std::vector<std::uint32_t> ghost_dst;

  // Superstep buffers, reused across the whole run.
  std::vector<std::vector<Message>> outbox, inbox;

  World(Transport& transport, Vertex num_vertices)
      : net(transport),
        part{num_vertices, transport.shard_count()},
        self(transport.shard_id()),
        shards(transport.shard_count()),
        n(num_vertices) {
    outbox.resize(shards);
  }

  std::size_t num_edges() const { return du.size(); }

  EdgeView directory_view() const {
    return {n, du.size(), du.data(), dv.data(), dw.data()};
  }

  bool owns_edge(EdgeId id) const { return part.owner(du[id]) == self; }

  void rebuild_adjacency() {
    adj.rebuild(directory_view(), part, self);
    const Vertex first = part.begin(self);
    const Vertex owned = part.owned(self);
    ghost_off.assign(owned + 1, 0);
    ghost_dst.clear();
    std::vector<std::uint32_t> dests;
    for (Vertex l = 0; l < owned; ++l) {
      dests.clear();
      for (const graph::Arc& arc : adj.neighbors(first + l)) {
        const auto d = static_cast<std::uint32_t>(part.owner(arc.to));
        if (d != self) dests.push_back(d);
      }
      std::sort(dests.begin(), dests.end());
      dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
      ghost_dst.insert(ghost_dst.end(), dests.begin(), dests.end());
      ghost_off[l + 1] = ghost_dst.size();
    }
  }

  void clear_outbox() {
    for (auto& batch : outbox) batch.clear();
  }

  /// Route one edge decision to the other trackers of the edge (the owners
  /// of both endpoints, minus this shard).
  void route_edge(Tag tag, EdgeId id) {
    const std::size_t ou = part.owner(du[id]);
    const std::size_t ov = part.owner(dv[id]);
    if (ou != self) outbox[ou].push_back({tag, id, 0});
    if (ov != self && ov != ou) outbox[ov].push_back({tag, id, 0});
  }

  /// Superstep C: sum a pair of local counters over all shards. Every shard
  /// obtains the identical global value, which is what keeps model metrics
  /// and loop decisions in lock-step across the mesh.
  std::pair<std::uint64_t, std::uint64_t> allreduce(std::uint64_t a,
                                                    std::uint64_t b) {
    clear_outbox();
    for (std::size_t d = 0; d < shards; ++d)
      if (d != self) outbox[d].push_back({kTagStats, a, b});
    net.exchange(outbox, inbox);
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Message& msg : inbox[s]) {
        SPAR_CHECK(msg.tag == kTagStats, "allreduce superstep got tag " +
                                             std::to_string(msg.tag));
        a += msg.a;
        b += msg.b;
      }
    }
    return {a, b};
  }

  /// Superstep D: publish this shard's owned ids to every peer; return the
  /// global union (owned first, then peers in ascending shard order).
  std::vector<EdgeId> broadcast_ids(Tag tag, std::vector<EdgeId> owned) {
    clear_outbox();
    for (std::size_t d = 0; d < shards; ++d) {
      if (d == self) continue;
      outbox[d].reserve(owned.size());
      for (EdgeId id : owned) outbox[d].push_back({tag, id, 0});
    }
    net.exchange(outbox, inbox);
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Message& msg : inbox[s]) {
        SPAR_CHECK(msg.tag == tag, "broadcast superstep got tag " +
                                       std::to_string(msg.tag));
        owned.push_back(static_cast<EdgeId>(msg.a));
      }
    }
    return owned;
  }
};

World make_world(Transport& net, const EdgeView& edges) {
  World w(net, edges.num_vertices);
  w.du.assign(edges.u, edges.u + edges.size);
  w.dv.assign(edges.v, edges.v + edges.size);
  w.dw.assign(edges.w, edges.w + edges.size);
  return w;
}

World make_world(Transport& net, const Graph& g) {
  World w(net, g.num_vertices());
  const auto edges = g.edges();
  w.du.reserve(edges.size());
  w.dv.reserve(edges.size());
  w.dw.reserve(edges.size());
  for (const graph::Edge& e : edges) {
    w.du.push_back(e.u);
    w.dv.push_back(e.v);
    w.dw.push_back(e.w);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Spanner
// ---------------------------------------------------------------------------

/// The sharded Theorem 2 protocol. Requires w.rebuild_adjacency() to reflect
/// the current directory. Model metrics follow the PR 1 simulator formulas
/// exactly, evaluated on the allreduced global sums, so every shard (and
/// every shard COUNT) reports the same DistMetrics.
ShardSpannerOutput spanner_impl(World& w, const std::vector<bool>* alive,
                                const DistSpannerOptions& options) {
  using spanner::kMaxSpannerK;
  SPAR_CHECK(options.k <= kMaxSpannerK, "run_shard_spanner: k = " + std::to_string(options.k) +
                                            " exceeds " + std::to_string(kMaxSpannerK));
  const Vertex n = w.n;
  const std::size_t m = w.num_edges();
  const std::size_t k =
      options.k != 0 ? options.k : spanner::auto_spanner_k(n);
  support::WorkScope work(options.work);

  ShardSpannerOutput out;
  out.metrics.max_message_words = kWordsPerMessage;

  if (alive != nullptr)
    SPAR_CHECK(alive->size() == m,
               "run_shard_spanner: alive mask size mismatch");
  std::vector<bs::EdgeState> state = bs::initial_states(m, alive);

  std::vector<Vertex> center(n), new_center(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) center[v] = v;

  const double sample_p = bs::sample_probability(n, k);
  bs::ClusterScratch scratch(n);
  bs::Decisions decisions;
  std::vector<std::uint8_t> sampled(n, 0);

  const Vertex vbeg = w.part.begin(w.self);
  const Vertex vend = w.part.end(w.self);
  const auto owns = [&w](EdgeId id) { return w.owns_edge(id); };

  // Drain superstep-A/B messages: ghost centers land in new_center, remote
  // decisions append after the local ones (source order is the shard order,
  // so the merged batch is identical on every run; commit sorts the adds, so
  // merge order cannot change the outcome anyway).
  const auto drain_sync = [&]() {
    for (std::size_t s = 0; s < w.shards; ++s) {
      for (const Message& msg : w.inbox[s]) {
        switch (msg.tag) {
          case kTagCenter:
            new_center[static_cast<Vertex>(msg.a)] =
                static_cast<Vertex>(msg.b);
            break;
          case kTagAdd:
            decisions.add.push_back(static_cast<EdgeId>(msg.a));
            break;
          case kTagDiscard:
            decisions.discard.push_back(static_cast<EdgeId>(msg.a));
            break;
          default:
            SPAR_CHECK(false, "spanner sync superstep got tag " +
                                  std::to_string(msg.tag));
        }
      }
    }
  };

  const auto send_centers = [&]() {
    for (Vertex l = 0; l < vend - vbeg; ++l) {
      const Vertex v = vbeg + l;
      // A ghost copy already knows a retired vertex stays retired; only
      // live-or-just-retired centers need the wire.
      if (center[v] == kInvalidVertex && new_center[v] == kInvalidVertex)
        continue;
      for (std::size_t g = w.ghost_off[l]; g < w.ghost_off[l + 1]; ++g)
        w.outbox[w.ghost_dst[g]].push_back(
            {kTagCenter, v, static_cast<std::uint64_t>(new_center[v])});
    }
  };

  const auto route_decisions = [&]() {
    for (EdgeId id : decisions.add) w.route_edge(kTagAdd, id);
    for (EdgeId id : decisions.discard) w.route_edge(kTagDiscard, id);
  };

  // ---- Phase 1: k-1 clustering iterations --------------------------------
  for (std::size_t iter = 1; iter < k; ++iter) {
    out.metrics.rounds += static_cast<std::uint64_t>(iter) + 2;

    // The coin is a pure function of (seed, iter, cluster): every shard
    // evaluates the full table locally, nothing to exchange.
    for (Vertex c = 0; c < n; ++c)
      sampled[c] = bs::cluster_sampled(options.seed, iter, c, sample_p);

    std::uint64_t alive_local = 0;
    for (Vertex v = vbeg; v < vend; ++v) {
      alive_local += bs::phase1_decide(w.adj, v, center, sampled, state,
                                       scratch, decisions, new_center, work);
    }

    // Superstep A+B (one exchange): ghost centers + border-edge decisions.
    w.clear_outbox();
    send_centers();
    route_decisions();
    w.net.exchange(w.outbox, w.inbox);
    drain_sync();

    const std::uint64_t added_local =
        bs::commit_owned(decisions, state, out.owned_spanner_edges, owns);

    // Superstep C: the simulator's per-iteration message count, allreduced.
    const auto [alive_g, added_g] = w.allreduce(alive_local, added_local);
    out.metrics.messages += alive_g + added_g;
    const std::uint64_t iter_words = (alive_g + added_g) * kWordsPerMessage;
    if (iter_words > out.metrics.max_round_words)
      out.metrics.max_round_words = iter_words;

    center.swap(new_center);
    std::fill(new_center.begin(), new_center.end(), kInvalidVertex);
  }

  // ---- Phase 2: vertex-cluster joining -----------------------------------
  out.metrics.rounds += 2;
  std::uint64_t alive_local = 0;
  for (Vertex v = vbeg; v < vend; ++v)
    alive_local +=
        bs::phase2_decide(w.adj, v, center, state, scratch, decisions, work);

  w.clear_outbox();
  route_decisions();
  w.net.exchange(w.outbox, w.inbox);
  drain_sync();
  const std::uint64_t added_local =
      bs::commit_owned(decisions, state, out.owned_spanner_edges, owns);

  const auto [alive_g, added_g] = w.allreduce(alive_local, added_local);
  out.metrics.messages += alive_g + added_g;
  const std::uint64_t p2_words = (alive_g + added_g) * kWordsPerMessage;
  if (p2_words > out.metrics.max_round_words)
    out.metrics.max_round_words = p2_words;

  out.metrics.words = out.metrics.messages * kWordsPerMessage;
  std::sort(out.owned_spanner_edges.begin(), out.owned_spanner_edges.end());
  return out;
}

// ---------------------------------------------------------------------------
// PARALLELSAMPLE round
// ---------------------------------------------------------------------------

/// One sharded PARALLELSAMPLE round over the world's current directory and
/// slice. Mirrors sparsify::parallel_sample_round and returns its stats: same
/// seed derivations (bundle_seed, coin_seed, mix64(seed, i+1) per peel
/// component), same verdict arithmetic, same model metrics.
sparsify::SampleRoundStats shard_sample_round(World& w,
                                              const DistSampleOptions& options,
                                              DistMetrics& metrics) {
  SPAR_CHECK(options.epsilon > 0.0,
             "run_distributed_sample: epsilon must be positive");
  SPAR_CHECK(options.keep_probability > 0.0 && options.keep_probability <= 1.0,
             "run_distributed_sample: keep_probability must be in (0, 1]");

  sparsify::SampleRoundStats stats;
  const std::size_t m = w.num_edges();
  stats.edges_before = m;
  stats.t_used = options.t != 0
                     ? options.t
                     : sparsify::theory_bundle_width(w.n, options.epsilon);

  w.rebuild_adjacency();

  // The shared peel loop drives t sharded spanner runs; superstep D after
  // each component gives every shard the full component edge set, so the
  // alive/in-bundle masks -- and the peel's own termination test -- evolve
  // identically on every shard. The broadcast costs wire only: the model
  // already priced the component's announcements inside spanner metrics.
  const spanner::Bundle bundle = spanner::detail::peel_bundle(
      m, stats.t_used, sparsify::detail::bundle_seed(options.seed),
      [&](std::uint64_t component_seed, const std::vector<bool>& alive) {
        DistSpannerOptions sopt;
        sopt.k = 0;
        sopt.seed = component_seed;
        sopt.work = options.work;
        ShardSpannerOutput component = spanner_impl(w, &alive, sopt);
        metrics.absorb(component.metrics);
        return w.broadcast_ids(kTagBundle,
                               std::move(component.owned_spanner_edges));
      });
  stats.bundle_edges = bundle.bundle_edge_count;
  stats.off_bundle_edges = bundle.off_bundle_edge_count;

  // Off-bundle coins are pure functions of (coin seed, global id): each
  // shard flips for its OWNED edges (the per-edge work is partitioned), and
  // one allreduce recovers the model's announcement count.
  support::WorkScope work(options.work);
  work.add(w.slice.size());
  const double keep_p = options.keep_probability;
  const double inv_p = 1.0 / keep_p;
  const std::uint64_t cseed = sparsify::detail::coin_seed(options.seed);

  std::uint64_t sampled_local = 0;
  for (std::size_t i = 0; i < w.slice.size(); ++i) {
    const EdgeId gid = w.slice.global_ids[i];
    if (!bundle.in_bundle[gid] &&
        sparsify::detail::keeps_edge(cseed, gid, keep_p))
      ++sampled_local;
  }
  const auto [sampled_g, zero] = w.allreduce(sampled_local, 0);
  (void)zero;
  metrics.rounds += 1;
  metrics.messages += sampled_g;
  metrics.words += sampled_g * kWordsPerMessage;
  const std::uint64_t coin_words = sampled_g * kWordsPerMessage;
  if (coin_words > metrics.max_round_words)
    metrics.max_round_words = coin_words;
  stats.sampled_edges = static_cast<std::size_t>(sampled_g);

  // Survivors and their global ranks are recomputed identically on every
  // shard (bundle mask is global state, coins are pure). new_id[e] is the
  // rank a serial filter-append loop would assign -- the id contract every
  // downstream round depends on.
  std::vector<EdgeId> new_id(m);
  std::vector<bool> survives(m);
  std::size_t rank = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const bool keep =
        bundle.in_bundle[e] ||
        sparsify::detail::keeps_edge(cseed, static_cast<EdgeId>(e), keep_p);
    survives[e] = keep;
    new_id[e] = rank;
    if (keep) ++rank;
  }

  // Directory compaction (replicated, in place, index order preserved).
  std::size_t at = 0;
  for (std::size_t e = 0; e < m; ++e) {
    if (!survives[e]) continue;
    w.du[at] = w.du[e];
    w.dv[at] = w.dv[e];
    w.dw[at] = bundle.in_bundle[e] ? w.dw[e] : w.dw[e] * inv_p;
    ++at;
  }
  w.du.resize(at);
  w.dv.resize(at);
  w.dw.resize(at);

  // Owned-slice compaction through the arena (stable, reweight-on-compact),
  // then remap the surviving global ids to their new ranks.
  const std::vector<EdgeId>& gids = w.slice.global_ids;
  w.slice.arena.compact(
      [&](std::size_t i) { return survives[gids[i]]; },
      [&](std::size_t i) {
        return bundle.in_bundle[gids[i]] ? w.slice.arena.weight(i)
                                         : w.slice.arena.weight(i) * inv_p;
      });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < w.slice.global_ids.size(); ++i) {
    const EdgeId gid = w.slice.global_ids[i];
    if (survives[gid]) w.slice.global_ids[kept++] = new_id[gid];
  }
  w.slice.global_ids.resize(kept);
  SPAR_ASSERT(kept == w.slice.arena.size());

  stats.edges_after = at;
  return stats;
}

ShardEdges slice_to_edges(const graph::ShardSlice& slice) {
  ShardEdges out;
  const std::size_t count = slice.size();
  out.ids = slice.global_ids;
  out.u.reserve(count);
  out.v.reserve(count);
  out.w.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.u.push_back(slice.arena.u(i));
    out.v.push_back(slice.arena.v(i));
    out.w.push_back(slice.arena.weight(i));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public SPMD entry points
// ---------------------------------------------------------------------------

ShardSpannerOutput run_shard_spanner(Transport& net, const EdgeView& edges,
                                     const std::vector<bool>* alive,
                                     const DistSpannerOptions& options) {
  World w = make_world(net, edges);
  w.rebuild_adjacency();
  return spanner_impl(w, alive, options);
}

ShardSampleOutput run_shard_sample(Transport& net, const Graph& g,
                                   const DistSampleOptions& options) {
  World w = make_world(net, g);
  w.slice = graph::make_shard_slice(w.directory_view(), w.part, w.self);

  ShardSampleOutput out;
  out.metrics.max_message_words = kWordsPerMessage;
  const sparsify::SampleRoundStats stats =
      shard_sample_round(w, options, out.metrics);
  out.owned = slice_to_edges(w.slice);
  out.final_edges = stats.edges_after;
  out.bundle_edges = stats.bundle_edges;
  out.off_bundle_edges = stats.off_bundle_edges;
  out.sampled_edges = stats.sampled_edges;
  out.t_used = stats.t_used;
  return out;
}

ShardSparsifyOutput run_shard_sparsify(Transport& net, const Graph& g,
                                       const DistSparsifyOptions& options) {
  SPAR_CHECK(options.epsilon > 0.0,
             "run_distributed_sparsify: epsilon must be positive");
  SPAR_CHECK(options.rho >= 1.0,
             "run_distributed_sparsify: rho must be >= 1");

  World w = make_world(net, g);
  w.slice = graph::make_shard_slice(w.directory_view(), w.part, w.self);

  ShardSparsifyOutput out;
  out.metrics.max_message_words = kWordsPerMessage;
  const auto rounds_planned = static_cast<std::size_t>(
      std::ceil(std::log2(std::max(options.rho, 1.0))));
  if (rounds_planned > 0) {
    const double per_round_epsilon =
        options.epsilon / static_cast<double>(rounds_planned);
    for (std::size_t round = 0; round < rounds_planned; ++round) {
      DistSampleOptions sopt;
      sopt.epsilon = per_round_epsilon;
      sopt.t = options.t;
      sopt.keep_probability = options.keep_probability;
      sopt.seed = support::mix64(options.seed, round + 1);
      sopt.work = options.work;

      DistRound stats;
      stats.metrics.max_message_words = kWordsPerMessage;
      const sparsify::SampleRoundStats sample =
          shard_sample_round(w, sopt, stats.metrics);
      stats.edges_before = sample.edges_before;
      stats.edges_after = sample.edges_after;
      out.rounds.push_back(stats);
      out.metrics.absorb(stats.metrics);

      // Same stop as sparsify::parallel_sparsify_rounds: the first round
      // whose bundle kept every edge ends the loop.
      if (sample.sampled_edges == 0 && sample.bundle_edges == sample.edges_before) break;
    }
  }
  out.owned = slice_to_edges(w.slice);
  out.final_edges = w.num_edges();
  return out;
}

Graph merge_shard_edges(Vertex n, std::size_t final_edges,
                        const std::vector<ShardEdges>& slices) {
  std::size_t total = 0;
  for (const ShardEdges& s : slices) total += s.size();
  SPAR_CHECK(total == final_edges,
             "merge_shard_edges: slices cover " + std::to_string(total) +
                 " of " + std::to_string(final_edges) + " edges");

  graph::EdgeArena arena;
  arena.resize(n, final_edges);
  std::vector<bool> placed(final_edges, false);
  auto u = arena.mutable_u();
  auto v = arena.mutable_v();
  auto w = arena.weights();
  for (const ShardEdges& s : slices) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const EdgeId id = s.ids[i];
      SPAR_CHECK(id < final_edges && !placed[id],
                 "merge_shard_edges: id " + std::to_string(id) +
                     " out of range or duplicated");
      placed[id] = true;
      u[id] = s.u[i];
      v[id] = s.v[i];
      w[id] = s.w[i];
    }
  }
  return arena.to_graph();
}

}  // namespace spar::dist
