// Spectral-approximation certification.
//
// H (beta/alpha)-approximates G when  alpha x^T L_H x <= x^T L_G x <= beta x^T L_H x
// (Section 2). Equivalently, with bounds stated the way Theorems 4/5 use
// them: lower * L_G <= L_H <= upper * L_G, where lower/upper are the extreme
// generalized eigenvalues of the pencil (L_H, L_G) on range(L_G). A
// (1 +- eps) sparsifier has lower >= 1-eps and upper <= 1+eps.
//
// Two certification paths:
//  * exact_relative_bounds  - dense: project L_H onto the eigenbasis of L_G
//    (whitening), then a symmetric eigensolve. O(n^3), ground truth for
//    n <= ~1500.
//  * approx_relative_bounds - matrix-free: power iteration on pinv(L_G) L_H
//    (and on the swapped pencil for the lower bound), each step one CG solve.
//    Used by benches at large n.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace spar::sparsify {

struct ApproxBounds {
  double lower = 0.0;  ///< largest a with a*L_G <= L_H
  double upper = 0.0;  ///< smallest b with L_H <= b*L_G
  bool defined = false;

  /// eps such that the pair certifies a (1 +- eps) approximation.
  double epsilon() const {
    const double lo = 1.0 - lower;
    const double hi = upper - 1.0;
    return lo > hi ? lo : hi;
  }
};

/// Dense-exact bounds. G must be connected; if H does not connect G's vertex
/// set, lower = 0 (the pencil degenerates), which correctly fails any eps.
ApproxBounds exact_relative_bounds(const graph::Graph& g, const graph::Graph& h);

struct CertOptions {
  std::uint64_t seed = 17;
  double tolerance = 1e-6;        ///< power-iteration Rayleigh tolerance
  std::size_t max_iterations = 300;
};

/// Matrix-free bounds via power iteration + CG. The returned values are
/// inner estimates (lower is an over-, upper an under-estimate) converging
/// from inside; with the default iteration budget they are accurate to ~3
/// digits on the graphs in bench/.
ApproxBounds approx_relative_bounds(const graph::Graph& g, const graph::Graph& h,
                                    const CertOptions& options = {});

}  // namespace spar::sparsify
