// Sparsifier quality diagnostics beyond the eigenvalue certificate.
//
// The pencil bounds (spectral_cert.hpp) are the ground truth, but users
// commonly want cheaper, more interpretable diagnostics:
//  * random-vector quadratic-form ratios  x^T L_H x / x^T L_G x  (inner
//    estimates of the pencil interval; O(m) per probe),
//  * random-cut weight ratios (cut sparsification is implied by spectral,
//    with cut vectors being 0/1 probes),
//  * structural checks: connectivity, edge/weight totals.
// quality_report() bundles these into one struct; benches and examples print
// it, and property tests assert its internal consistency.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace spar::sparsify {

struct QualityReport {
  // Quadratic-form ratio extremes over Gaussian probes (inner estimates of
  // the pencil interval [lower, upper]).
  double min_quadratic_ratio = 0.0;
  double max_quadratic_ratio = 0.0;
  // Cut-weight ratio extremes over random bipartitions.
  double min_cut_ratio = 0.0;
  double max_cut_ratio = 0.0;
  // Structure.
  bool sparsifier_connected = false;
  std::size_t edges_original = 0;
  std::size_t edges_sparsifier = 0;
  double weight_original = 0.0;
  double weight_sparsifier = 0.0;

  double edge_reduction() const {
    return edges_sparsifier == 0
               ? 0.0
               : static_cast<double>(edges_original) /
                     static_cast<double>(edges_sparsifier);
  }
};

/// Diagnostics of `h` as a sparsifier of `g` (same vertex set required), over
/// 64 mean-removed Gaussian probes and 64 random bipartitions from a fixed
/// seed, so a report is a pure function of (g, h).
QualityReport quality_report(const graph::Graph& g, const graph::Graph& h);

}  // namespace spar::sparsify
