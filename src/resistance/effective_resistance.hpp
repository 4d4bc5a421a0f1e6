// Effective resistances (Section 2 of the paper).
//
// R_{u,v}[G] is the potential difference needed to push one unit of current
// from u to v. Algebraically R_{u,v} = (e_u - e_v)^T pinv(L_G) (e_u - e_v).
// Two paths are provided:
//
//  * exact_* : dense pseudoinverse (O(n^3)); the ground truth used to verify
//    Lemma 1 (off-bundle leverage scores w_e R_e <= 2 log n / t) and the
//    oversampling baseline on small graphs.
//  * approx_effective_resistances : the Spielman-Srivastava estimator --
//    O(log n / eps^2) random +-1 projections of the weighted incidence
//    matrix, each requiring one Laplacian CG solve. This is the standard
//    solver-based scheme the paper's solve-free approach is positioned
//    against.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"

namespace spar::resistance {

/// Effective resistance between every edge's endpoints, exactly (dense).
/// Requires a connected graph; O(n^3) time, intended for n <= ~1500.
linalg::Vector exact_effective_resistances(const graph::Graph& g);

/// Exact effective resistance between an arbitrary vertex pair.
double exact_effective_resistance(const graph::Graph& g, graph::Vertex u,
                                  graph::Vertex v);

/// Dense pinv(L_G); exposed because the spectral certifier reuses it.
linalg::DenseMatrix laplacian_pinv(const graph::Graph& g);

/// Knobs of the Spielman-Srivastava JL estimator.
struct ApproxResistanceOptions {
  double epsilon = 0.3;        ///< JL distortion target
  std::uint64_t seed = 7;      ///< seed of the +-1 projection coins
  /// Number of random projections; 0 = auto: ceil(8 log n / eps^2).
  std::size_t num_probes = 0;
  /// Probes solved per blocked CG call (the JL sketch is a multi-RHS solve;
  /// batching shares each Laplacian traversal across the block). 0 = auto
  /// (16). The result is independent of the block size: each probe's solve is
  /// bit-identical whatever block it lands in.
  std::size_t block_size = 0;
};

/// Spielman-Srivastava approximate effective resistances for every edge.
/// Expected multiplicative error (1 +- eps) per edge w.h.p. The O(log n /
/// eps^2) probe solves run through the batched blocked-CG path in blocks of
/// `block_size` columns, each to relative residual 1e-7 (at most 4000
/// iterations).
///
/// Connectivity is NOT required (unlike the exact_* path): every sketch RHS
/// is a signed incidence accumulation B^T W^{1/2} q, which is mean-free
/// within each connected component, so the CG Krylov space stays inside the
/// per-component range of L and each probe resolves against the
/// block-diagonal pseudoinverse. Edges of each component get the resistances
/// of that component in isolation -- no current leaks across components
/// (pinned by ApproxResistance.DisconnectedGraphResolvesPerComponent).
linalg::Vector approx_effective_resistances(const graph::Graph& g,
                                            const ApproxResistanceOptions& options = {});

/// Leverage scores w_e * R_e from a resistance vector.
linalg::Vector leverage_scores(const graph::Graph& g, const linalg::Vector& resistances);

}  // namespace spar::resistance
