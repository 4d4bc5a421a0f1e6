// Comparator sparsifiers for the E6 experiment (Remark 4 positioning):
//
//  * uniform_sparsify       - the null hypothesis: keep every edge with
//    probability p and reweight by 1/p. Fine on expanders, loses the
//    dumbbell bridge with probability 1-p, i.e. no spectral guarantee.
//  * spielman_srivastava    - the standard strong baseline: q independent
//    samples from p_e ~ w_e R_e (effective-resistance / leverage-score
//    sampling), each adding w_e/(q p_e) of weight; duplicates coalesce.
//    Needs effective resistances, i.e. a solver (exact dense for small n,
//    JL + CG otherwise) -- exactly the dependency the paper's solve-free
//    scheme removes.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "resistance/effective_resistance.hpp"

namespace spar::sparsify {

/// Keep each edge independently with probability `keep_probability` at
/// weight w/p.
graph::Graph uniform_sparsify(const graph::Graph& g, double keep_probability,
                              std::uint64_t seed);

enum class ResistanceMode {
  kExactDense,   ///< O(n^3) pseudoinverse; ground truth, small n
  kApproxSolver, ///< Spielman-Srivastava JL + CG estimates
};

struct SpielmanSrivastavaOptions {
  double epsilon = 0.5;
  /// Number of samples; 0 = auto: ceil(4 n log2(n) / eps^2).
  std::size_t num_samples = 0;
  ResistanceMode resistance_mode = ResistanceMode::kApproxSolver;
  resistance::ApproxResistanceOptions resistance_options;
  std::uint64_t seed = 1;
};

struct SSResult {
  graph::Graph sparsifier;
  std::size_t samples_drawn = 0;
  std::size_t distinct_edges = 0;
};

SSResult spielman_srivastava(const graph::Graph& g,
                             const SpielmanSrivastavaOptions& options = {});

}  // namespace spar::sparsify
