// Merge-and-reduce streaming sparsification.
//
// PARALLELSPARSIFY composes: a sparsifier of a union of graph pieces can
// itself be sparsified, and the result still approximates the union (Section
// 2's approximation relation is transitive up to multiplied error). That is
// exactly the classic semi-streaming merge-and-reduce recipe (Goel-Kapralov-
// Khanna refinement sampling; Baswana's streaming spanners): consume the edge
// stream in bounded batches and maintain a binary-counter tower of level
// sketches, where the level-i sketch is a sparsifier of the union of at most
// 2^i batches.
//
//  * An arriving batch lands raw at level 0 when that slot is free.
//  * Otherwise the batch and the occupied levels 0..j-1 (j = first free
//    level) are concatenated -- oldest edges first, so the merged arena is
//    the edge list a serial arrival-order append would build -- and reduced
//    by ONE in-place PARALLELSPARSIFY round loop (parallel_sparsify_rounds)
//    into the level-j sketch. The multiway merge costs every participating
//    edge a single sparsify pass, so an edge's pass count never exceeds its
//    sketch's level.
//  * A resident-level cap (StreamOptions::max_resident_levels) collapses the
//    whole tower into one higher-level sketch when too many levels are
//    occupied, which bounds peak memory at ~(cap sketches + 1 batch) without
//    deepening the tower (a collapse is also one pass).
//  * finish() concatenates the surviving levels and runs one last reduce:
//    the final sparsifier plus a StreamReport.
//
// Epsilon budget: with B planned batches and cap resident levels, an edge
// participates in at most D sparsify passes, where D = ceil(log2 B) + 2
// (up to ceil(log2 B) carries, the final flush, and one spare pass of
// headroom for the flush landing above the natural top) when the cap is at
// least the natural tower height ceil(log2 B) + 1, plus one pass per cap
// collapse (at most B / cap of them) when the cap binds -- bounded memory is
// bought with budget depth.
// Each pass runs at eps_level = (1 + eps)^(1/D) - 1, so the composed error is
// at most (1 + eps_level)^D = 1 + eps on the upper side, and on the lower
// side (1 - eps_level)^D >= 1 - D*eps_level >= 1 - eps since eps_level <=
// eps/D by concavity. The report records both the planned depth and the
// depth actually used. See DESIGN.md ("merge-and-reduce streaming tower").
//
// Unknown batch count (bare push API, planned_batches == 0): there is no D to
// split by, and assuming a huge one (this code used to plan for 2^20 batches,
// a ~22-deep split) starves every pass of budget no matter how short the
// stream really is. Instead each pass draws from a geometric schedule keyed
// by the depth it produces: the pass that lifts edges to depth k spends a
// 2^-k fraction of the log-budget, log(1 + eps_k) = 2^-k log(1 + eps). An
// edge's pass depths are strictly increasing, so its composed log-error is a
// subset sum of {2^-1, 2^-2, ...} times log(1 + eps) -- below log(1 + eps)
// for ANY stream length, with no up-front plan. finish() then derives
// depth_planned from the real batch count and the report tracks the exact
// composed budget along the deepest merge chain.
//
// Determinism: batch boundaries are a pure function of (source, batch_edges),
// concatenation order is a pure function of the arrival sequence, and every
// reduce pass runs the round pipeline's counter-based per-edge coins -- so
// the final sparsifier is bit-identical for any thread count, for a fixed
// (seed, batch size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_view.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "sparsify/sparsify.hpp"

namespace spar::sparsify {

struct StreamOptions {
  double epsilon = 0.5;  ///< end-to-end target; split per level (see header)
  double rho = 4.0;      ///< per-reduce sparsification factor
  /// Per-round bundle width of each reduce pass; 0 = theory value.
  std::size_t t = 3;
  double keep_probability = 0.25;
  BundleKind bundle_kind = BundleKind::kSpanner;
  std::uint64_t seed = 1;
  /// Batch granularity: the unit of resident memory.
  std::size_t batch_edges = std::size_t{1} << 17;
  /// Batches the eps budget is planned for. The stream drivers know the total
  /// up front and set it; 0 = unknown (bare push API), which switches every
  /// pass to the geometric depth-keyed budget schedule (see header comment)
  /// and derives the report's depth_planned from the real count at finish().
  std::size_t planned_batches = 0;
  /// Collapse the tower once more than this many level sketches are
  /// resident: peak memory ~ (cap sketches + 1 batch). A cap below the
  /// natural tower height ceil(log2 B) + 1 widens the planned depth by the
  /// collapse allowance B / cap (see planned_depth in stream.cpp) -- tighter
  /// memory is bought with epsilon budget.
  std::size_t max_resident_levels = 3;
  support::WorkCounter* work = nullptr;
};

/// Wire-style accounting, mirroring dist::DistMetrics: an edge is a 3-word
/// message (u, v, w), ingest is the stream's inbound traffic, merges are the
/// words the tower moves internally.
struct StreamMetrics {
  std::uint64_t edges_ingested = 0;
  std::uint64_t words_ingested = 0;   ///< 3 per ingested edge
  std::uint64_t merge_edges = 0;      ///< edges entering reduce passes
  std::uint64_t merge_words = 0;      ///< 3 per merged edge
};

struct StreamReport {
  std::size_t batches = 0;
  std::size_t batch_edges = 0;     ///< granularity the run used
  std::size_t levels_used = 0;     ///< highest occupied level + 1, over the run
  std::size_t depth_planned = 0;   ///< sparsify passes budgeted per edge
  std::size_t depth_used = 0;      ///< passes the deepest edge actually took
  /// Uniform per-pass eps when the batch count was planned; in bare-push
  /// (unknown-plan) mode, the eps of the deepest pass actually run.
  double per_level_epsilon = 0.0;
  /// Exact composed budget along the deepest merge chain:
  /// exp(max over levels of sum of log(1 + pass eps)) - 1. Always <= epsilon.
  double epsilon_budget_used = 0.0;
  std::size_t sparsify_calls = 0;
  std::vector<std::size_t> sparsify_calls_per_level;  ///< by target level
  std::size_t peak_resident_edges = 0;  ///< max simultaneously held edges
  std::size_t final_edges = 0;
  StreamMetrics metrics;
};

struct StreamResult {
  graph::Graph sparsifier;
  StreamReport report;
};

/// Incremental push API: feed batches, then finish() exactly once.
class StreamSparsifier {
 public:
  StreamSparsifier(graph::Vertex num_vertices, const StreamOptions& options);

  /// Fold the next batch of the stream into the tower. Batches must share the
  /// constructor's vertex count; the view is copied, the caller's buffer can
  /// be reused immediately.
  void push_batch(const graph::EdgeView& batch);

  /// Move-in variant: the tower adopts the arena (a free level-0 landing is
  /// zero-copy, and the batch is never resident twice). This is what the
  /// EdgeStream driver uses, so file streaming holds each batch exactly once.
  void push_batch(graph::EdgeArena&& batch);

  /// Flush the tower into the final sparsifier. The object is spent after.
  StreamResult finish();

  /// Running report (final_edges/depth_used filled in by finish()).
  const StreamReport& report() const { return report_; }

 private:
  struct Level {
    graph::EdgeArena arena;
    std::size_t batches = 0;  ///< batches covered; <= 2^level
    std::size_t depth = 0;    ///< max sparsify passes any contained edge took
    double log_err = 0.0;     ///< max composed log(1 + eps) along any edge's passes
    bool occupied = false;
  };

  std::size_t resident_edges() const;
  void note_resident(std::size_t extra);
  /// Shared core of both push_batch overloads; `owned` non-null when the
  /// tower may adopt the batch's buffers.
  void ingest(const graph::EdgeView& batch, graph::EdgeArena* owned);
  /// Concatenate levels [0, top] (descending, oldest first) plus `batch`
  /// (null = none) and reduce with one round-loop pass into level `target`.
  void reduce_into(std::size_t target, std::size_t top_level,
                   const graph::EdgeView* batch);

  graph::Vertex n_ = 0;
  StreamOptions opt_;
  bool adaptive_budget_ = false;  ///< planned_batches == 0: depth-keyed eps
  double max_log_err_ = 0.0;      ///< deepest composed log(1 + eps) so far
  std::uint64_t pass_seed_base_ = 0;
  std::size_t passes_ = 0;
  std::vector<Level> levels_;
  StreamReport report_;
  bool finished_ = false;
};

/// Sparsify a resident edge set through the streaming tower (slab-order
/// batches of options.batch_edges). Decoupled-memory semantics aside, this is
/// the reference the file drivers must match bit for bit.
StreamResult stream_sparsify(const graph::EdgeView& edges, const StreamOptions& options);

/// Drive the tower from any batched edge source.
StreamResult stream_sparsify(graph::EdgeStream& stream, const StreamOptions& options);

/// Open `path` (SPARBIN / edge-list text / MatrixMarket, auto-detected) as a
/// batched stream and sparsify it without ever holding the whole graph
/// (MatrixMarket excepted -- its symmetry reconciliation is global).
StreamResult stream_sparsify_file(const std::string& path, const StreamOptions& options);

}  // namespace spar::sparsify
