// The Peng-Spielman squaring step: M = D - A  =>  M~ = D - A D^{-1} A.
//
// A D^{-1} A is computed by SpGEMM; its off-diagonal entries are nonnegative
// (new, denser adjacency -- vertices at hop distance 2 become neighbors) and
// its diagonal moves into the new slack, which stays nonnegative (and stays
// exactly zero for Laplacian inputs, so singular systems square to singular
// systems). This is the step whose fill-in the sparsifier must fight
// (Section 4: "the number of edges goes up by a factor of O(log n log^2 k)").
//
// square() materializes the exact product, so a chain build's peak memory
// grows with its largest square; the chain then sparsifies the result
// (Section 4: square the level, then sparsify it by a factor rho).
#pragma once

#include "solver/sdd_matrix.hpp"

namespace spar::solver {

/// Returns M~ = D - A D^{-1} A as an SDDMatrix over the same vertex set.
/// Product entries that cancel to <= 0 (roundoff; reachable as underflow on
/// extreme weight ranges) are folded back into the diagonal instead of being
/// dropped, so D - A stays exactly the computed product.
SDDMatrix square(const SDDMatrix& m);

/// Convergence measure for the chain: gamma(M) = max_i (sum_j A_ij) / D_ii.
/// Squaring drives gamma -> gamma^2-ish; the chain terminates once
/// gamma <= threshold, where a diagonal/Jacobi solve is accurate.
double adjacency_dominance(const SDDMatrix& m);

}  // namespace spar::solver
