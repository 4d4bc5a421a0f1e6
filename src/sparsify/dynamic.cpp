#include "sparsify/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "sparsify/round_context.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

namespace {

constexpr std::uint64_t kDynSeedTag = 0x64796e616d6963ULL;  // "dynamic"

// Drop a level's sketch once the deleted fraction of the segment weight it
// was computed over exceeds this (re-reduced at the next checkpoint).
constexpr double kMaxStaleness = 0.25;
// Collapse the whole tower instead of patching levels when one batch leaves
// at least this fraction of the live edges in sketchless segments.
constexpr double kRebuildFraction = 0.5;
// A segment is only worth a sparsify pass when it is denser than this many
// edges per (t x touched vertex): below that the t-spanner bundle would keep
// essentially everything, so the pass is pure overhead and the segment
// serves its exact edges instead (zero error). This is what keeps
// incremental checkpoints cheap on bounded-degree families (E17's grid).
constexpr double kSketchDensity = 2.0;

std::uint64_t edge_key(graph::Vertex a, graph::Vertex b) {
  const graph::Vertex lo = a < b ? a : b;
  const graph::Vertex hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

std::string edge_name(std::uint64_t key) {
  return "{" + std::to_string(key >> 32) + ", " +
         std::to_string(key & 0xffffffffULL) + "}";
}

}  // namespace

DynamicSparsifier::DynamicSparsifier(graph::Vertex num_vertices,
                                     const DynamicOptions& options)
    : n_(num_vertices), opt_(options) {
  SPAR_CHECK(n_ > 0, "dynamic: need at least one vertex");
  SPAR_CHECK(opt_.epsilon > 0.0, "dynamic: epsilon must be positive");
  SPAR_CHECK(opt_.rho >= 1.0, "dynamic: rho must be >= 1");
  SPAR_CHECK(opt_.keep_probability > 0.0 && opt_.keep_probability <= 1.0,
             "dynamic: keep_probability must be in (0, 1]");
  SPAR_CHECK(opt_.batch_updates > 0, "dynamic: batch_updates must be positive");
  SPAR_CHECK(opt_.max_resident_levels >= 1,
             "dynamic: max_resident_levels must be >= 1");
  log_budget_ = std::log1p(opt_.epsilon);
  stale_budget_ = kStalenessEpsShare * log_budget_;
  eps_pass_ = std::expm1(0.5 * (1.0 - kStalenessEpsShare) * log_budget_);
  pass_seed_base_ = support::mix64(opt_.seed, kDynSeedTag);
  gutter_.num_vertices = n_;
  stats_.per_pass_epsilon = eps_pass_;
  stats_.stale_epsilon_budget = std::expm1(stale_budget_);
}

SparsifyOptions DynamicSparsifier::pass_options() {
  SparsifyOptions s;
  s.epsilon = eps_pass_;
  s.rho = opt_.rho;
  s.t = opt_.t;
  s.keep_probability = opt_.keep_probability;
  s.bundle_kind = opt_.bundle_kind;
  s.seed = support::mix64(pass_seed_base_, ++passes_);
  s.work = opt_.work;
  return s;
}

void DynamicSparsifier::push_insert(graph::Vertex u, graph::Vertex v, double w) {
  gutter_.push_insert(u, v, w);
  stats_.metrics.updates_ingested += 1;
  stats_.metrics.words_ingested += 3;
  if (gutter_.size() >= opt_.batch_updates) flush();
}

void DynamicSparsifier::push_delete(graph::Vertex u, graph::Vertex v) {
  gutter_.push_delete(u, v);
  stats_.metrics.updates_ingested += 1;
  stats_.metrics.words_ingested += 3;
  if (gutter_.size() >= opt_.batch_updates) flush();
}

void DynamicSparsifier::apply(const graph::UpdateBatch& updates) {
  SPAR_CHECK(updates.num_vertices == n_,
             "dynamic: update batch vertex count mismatch");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (updates.op[i] == static_cast<std::uint8_t>(graph::UpdateOp::kInsert))
      push_insert(updates.u[i], updates.v[i], updates.w[i]);
    else
      push_delete(updates.u[i], updates.v[i]);
  }
}

void DynamicSparsifier::flush() {
  if (gutter_.size() == 0) return;
  gutter_.validate();
  apply_batch(gutter_);
  gutter_.clear();
  stats_.live_edges = directory_.size();
  note_resident();
}

double DynamicSparsifier::staleness_charge(const Level& level) const {
  if (!level.has_sketch || level.deleted_weight <= 0.0) return 0.0;
  return std::log1p(2.0 * level.deleted_weight / level.weight_at_reduce);
}

std::size_t DynamicSparsifier::resident_edges() const {
  std::size_t total = gutter_.size();
  for (const Level& level : levels_) {
    total += level.exact.size();
    if (level.has_sketch) total += level.sketch.size();
  }
  return total;
}

void DynamicSparsifier::note_resident() {
  stats_.peak_resident_edges = std::max(stats_.peak_resident_edges, resident_edges());
}

void DynamicSparsifier::apply_batch(const graph::UpdateBatch& batch) {
  stats_.batches += 1;

  // 1. Cancellation scan (sequential: batch order is load-bearing). Pending
  // inserts keep arrival order so the carried arena is deterministic;
  // scheduled tower deletes keep arrival order so weight sums are too.
  std::vector<graph::Vertex> ins_u, ins_v;
  std::vector<double> ins_w;
  std::vector<std::uint8_t> ins_alive;
  std::unordered_map<std::uint64_t, std::size_t> batch_pos;  // key -> ins index
  std::vector<std::pair<std::uint64_t, double>> sched;  // tower deletes, in order
  std::unordered_set<std::uint64_t> sched_keys;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t key = edge_key(batch.u[i], batch.v[i]);
    const bool pending =
        batch_pos.count(key) != 0 && ins_alive[batch_pos[key]] != 0;
    if (batch.op[i] == static_cast<std::uint8_t>(graph::UpdateOp::kInsert)) {
      const bool live = directory_.count(key) != 0 && sched_keys.count(key) == 0;
      SPAR_CHECK(!pending && !live,
                 "dynamic: duplicate insert of live edge " + edge_name(key));
      batch_pos[key] = ins_u.size();
      ins_u.push_back(batch.u[i]);
      ins_v.push_back(batch.v[i]);
      ins_w.push_back(batch.w[i]);
      ins_alive.push_back(1);
    } else if (pending) {
      ins_alive[batch_pos[key]] = 0;  // annihilate inside the batch
      stats_.cancelled_pairs += 1;
    } else {
      const auto it = directory_.find(key);
      SPAR_CHECK(it != directory_.end() && sched_keys.count(key) == 0,
                 "dynamic: delete of absent edge " + edge_name(key));
      sched.emplace_back(key, it->second.weight);
      sched_keys.insert(key);
    }
  }

  // 2. Deletes, grouped by owning level: compact the exact segment (and any
  // cached sketch) down to the surviving keys, charge the sketch's staleness.
  if (!sched.empty()) {
    std::vector<std::unordered_set<std::uint64_t>> del(levels_.size());
    std::vector<double> del_weight(levels_.size(), 0.0);
    for (const auto& [key, weight] : sched) {
      const auto it = directory_.find(key);
      del[it->second.level].insert(key);
      del_weight[it->second.level] += weight;
      directory_.erase(it);
    }
    stats_.deletes_applied += sched.size();
    for (std::size_t li = 0; li < levels_.size(); ++li) {
      if (del[li].empty()) continue;
      Level& level = levels_[li];
      stats_.levels_dirtied += 1;
      const std::unordered_set<std::uint64_t>& gone = del[li];
      level.exact.compact([&](std::size_t i) {
        return gone.count(edge_key(level.exact.u(i), level.exact.v(i))) == 0;
      });
      if (level.exact.size() == 0) {
        level = Level{};  // fully deleted: free the slot and its arenas
        continue;
      }
      level.deleted_weight += del_weight[li];
      if (level.has_sketch) {
        level.sketch.compact([&](std::size_t i) {
          return gone.count(edge_key(level.sketch.u(i), level.sketch.v(i))) == 0;
        });
        const double r = level.deleted_weight / level.weight_at_reduce;
        if (r > kMaxStaleness || staleness_charge(level) > stale_budget_) {
          level.sketch.release();
          level.has_sketch = false;
          level.dirty = Dirty::kStale;
        }
      }
    }
  }

  // 3. Inserts: binary-counter carry of the surviving pending inserts.
  std::size_t alive = 0;
  for (const std::uint8_t a : ins_alive) alive += a;
  graph::EdgeArena fresh(n_);
  if (alive > 0) {
    fresh.resize(n_, alive);
    auto u = fresh.mutable_u();
    auto v = fresh.mutable_v();
    auto w = fresh.weights();
    std::size_t at = 0;
    for (std::size_t i = 0; i < ins_u.size(); ++i) {
      if (!ins_alive[i]) continue;
      u[at] = ins_u[i];
      v[at] = ins_v[i];
      w[at] = ins_w[i];
      ++at;
    }
    stats_.inserts_applied += alive;
  }
  carry_inserts(std::move(fresh), 1);
}

void DynamicSparsifier::carry_inserts(graph::EdgeArena&& batch,
                                      std::size_t batch_count) {
  if (batch.size() == 0) return;
  // Land the batch in the first free slot WITHOUT merging the levels below.
  // Union serving composes the per-level error as a MAX over the levels'
  // disjoint edge sets, not a sum, so eager binary-counter merging would buy
  // no accuracy -- it would only force checkpoints to re-reduce edges that
  // never changed. Merging happens when the resident-level cap is exceeded
  // (below) or a rebuild collapses the tower.
  std::size_t target = 0;
  while (target < levels_.size() && levels_[target].occupied) ++target;
  if (target >= levels_.size()) levels_.resize(target + 1);
  Level& landing = levels_[target];
  landing.exact = std::move(batch);
  landing.occupied = true;
  landing.has_sketch = false;
  landing.dirty = Dirty::kCarry;
  landing.weight_at_reduce = 0.0;
  landing.deleted_weight = 0.0;
  landing.batches = batch_count;
  relevel(landing.exact, target);
  stats_.levels_used = std::max(stats_.levels_used, target + 1);

  std::size_t occupied = 0;
  for (const Level& level : levels_) occupied += level.occupied ? 1 : 0;
  if (occupied > opt_.max_resident_levels) collapse_tower();
}

void DynamicSparsifier::relevel(const graph::EdgeArena& arena, std::size_t level) {
  const auto lvl = static_cast<std::uint32_t>(level);
  for (std::size_t i = 0; i < arena.size(); ++i)
    directory_.insert_or_assign(edge_key(arena.u(i), arena.v(i)),
                                DirEntry{arena.weight(i), lvl});
}

void DynamicSparsifier::collapse_tower() {
  std::size_t top = levels_.size();
  while (top > 0 && !levels_[top - 1].occupied) --top;
  if (top == 0) return;
  graph::EdgeArena merged(n_);
  std::size_t covered = 0;
  for (std::size_t li = top; li-- > 0;) {
    if (!levels_[li].occupied) continue;
    merged.append(levels_[li].exact.view());
    covered += levels_[li].batches;
    levels_[li] = Level{};
  }
  Level& landing = levels_[top - 1];
  landing.exact = std::move(merged);
  landing.occupied = true;
  landing.has_sketch = false;
  landing.dirty = Dirty::kCarry;
  landing.batches = covered;
  relevel(landing.exact, top - 1);
  stats_.rebuilds += 1;
}

bool DynamicSparsifier::worth_sketching(const Level& level) const {
  const std::size_t m = level.exact.size();
  if (m < opt_.sketch_min_edges) return false;
  // Count the vertices the segment touches (lookup-only set; never iterated,
  // so determinism is unaffected). A t-spanner bundle keeps O(t) edges per
  // touched vertex, so below the density threshold a pass cannot compress.
  std::unordered_set<graph::Vertex> touched;
  touched.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    touched.insert(level.exact.u(i));
    touched.insert(level.exact.v(i));
  }
  const auto t_eff = static_cast<double>(opt_.t > 0 ? opt_.t : 1);
  return static_cast<double>(m) >
         kSketchDensity * t_eff * static_cast<double>(touched.size());
}

void DynamicSparsifier::build_sketch(Level& level) {
  graph::EdgeArena copy(n_);
  copy.append(level.exact.view());
  stats_.metrics.reduce_edges += copy.size();
  stats_.metrics.reduce_words += 3 * copy.size();
  RoundContext ctx(std::move(copy));
  parallel_sparsify_rounds(ctx, pass_options());
  level.sketch = std::move(ctx.arena());
  level.has_sketch = true;
  level.weight_at_reduce = level.exact.total_weight();
  level.deleted_weight = 0.0;
  if (level.dirty == Dirty::kStale)
    stats_.re_reduces += 1;
  else
    stats_.carry_reduces += 1;
  level.dirty = Dirty::kNone;
}

void DynamicSparsifier::rebuild() {
  flush();
  collapse_tower();
  note_resident();
}

DynCheckpoint DynamicSparsifier::checkpoint() {
  flush();
  stats_.checkpoints += 1;

  // Re-reduce dirty levels lazily -- or collapse first when the dirty
  // segments hold most of the live edges and per-level patching would cost
  // as much as one pass over everything anyway.
  const auto needs_sketch = [&](const Level& level) {
    return level.occupied && !level.has_sketch && worth_sketching(level);
  };
  std::size_t dirty_edges = 0, occupied = 0;
  for (const Level& level : levels_) {
    occupied += level.occupied ? 1 : 0;
    if (needs_sketch(level)) dirty_edges += level.exact.size();
  }
  if (occupied > 1 && directory_.size() > 0 &&
      static_cast<double>(dirty_edges) >=
          kRebuildFraction * static_cast<double>(directory_.size()))
    collapse_tower();
  for (std::size_t li = levels_.size(); li-- > 0;)
    if (needs_sketch(levels_[li])) build_sketch(levels_[li]);
  note_resident();

  // Serve: concatenate the per-level serving views oldest first. The union
  // is itself certified (the approximation relation composes over the
  // levels' disjoint edge sets), so the extra compaction pass is opt-in.
  double max_level_log = 0.0;
  graph::EdgeArena serving(n_);
  for (std::size_t li = levels_.size(); li-- > 0;) {
    const Level& level = levels_[li];
    if (!level.occupied) continue;
    if (level.has_sketch) {
      serving.append(level.sketch.view());
      max_level_log = std::max(
          max_level_log, std::log1p(eps_pass_) + staleness_charge(level));
    } else {
      serving.append(level.exact.view());  // exact serving: zero error
    }
  }
  DynCheckpoint out;
  if (opt_.compact_checkpoints) {
    stats_.metrics.reduce_edges += serving.size();
    stats_.metrics.reduce_words += 3 * serving.size();
    RoundContext ctx(std::move(serving));
    parallel_sparsify_rounds(ctx, pass_options());
    out.sparsifier = ctx.arena().to_graph();
    max_level_log += std::log1p(eps_pass_);
  } else {
    out.sparsifier = serving.to_graph();
  }
  out.certified_epsilon = directory_.empty() ? 0.0 : std::expm1(max_level_log);
  stats_.max_composed_epsilon =
      std::max(stats_.max_composed_epsilon, out.certified_epsilon);
  return out;
}

graph::Graph DynamicSparsifier::live_graph() {
  flush();
  graph::EdgeArena all(n_);
  for (std::size_t li = levels_.size(); li-- > 0;)
    if (levels_[li].occupied) all.append(levels_[li].exact.view());
  return all.to_graph();
}

DynResult dynamic_sparsify(graph::UpdateStream& updates,
                           const DynamicOptions& options) {
  DynamicSparsifier dyn(updates.num_vertices(), options);
  graph::UpdateBatch batch;
  while (updates.next_batch(batch, options.batch_updates) > 0) dyn.apply(batch);
  DynCheckpoint cp = dyn.checkpoint();
  return {std::move(cp.sparsifier), cp.certified_epsilon, dyn.stats()};
}

}  // namespace spar::sparsify
