// Laplacian operators built from graphs (Section 2 of the paper):
//   L(i,j) = -w_ij for i != j,   L(i,i) = sum_j w_ij.
//
// Two representations are provided:
//  * laplacian_matrix(g): explicit CSR form, for the solver's algebra.
//  * LaplacianOperator(g): matrix-free y = Lx over per-vertex incidence
//    lists, y[r] = sum_k w_k (x[r] - x[other_k]) (three flops per arc, two
//    arcs per edge). Construction is O(m); apply() is parallel over rows.
// laplacian_quadratic_form(g, x) computes x^T L x exactly as
// sum_e w_e (x_u - x_v)^2; the sparsification certificate uses it because it
// is exact and embarrassingly parallel.
#pragma once

#include "graph/graph.hpp"
#include "linalg/csr_matrix.hpp"

namespace spar::linalg {

CSRMatrix laplacian_matrix(const graph::Graph& g);

/// Weighted degree of each vertex.
Vector degree_vector(const graph::Graph& g);

/// Adjacency matrix (positive off-diagonals) in CSR form.
CSRMatrix adjacency_matrix(const graph::Graph& g);

/// y = L x over incidence lists the operator owns: it keeps no reference to
/// the graph it was built from, and one const operator may serve concurrent
/// apply() calls. Output is bit-identical to a serial edge-order scatter
/// (y[u] += w (x_u - x_v), y[v] -= w (x_u - x_v)) at every thread count;
/// DESIGN.md section 3 gives the argument.
class LaplacianOperator {
 public:
  /// O(m): a stable counting sort of the 2m arcs by endpoint, so each
  /// vertex's arcs are in edge-id order. 12 bytes per arc.
  explicit LaplacianOperator(const graph::Graph& g);

  std::size_t dimension() const { return offsets_.size() - 1; }

  /// y = L x
  void apply(std::span<const double> x, std::span<double> y) const;
  Vector apply(std::span<const double> x) const;

 private:
  std::vector<std::size_t> offsets_;  // n + 1; row r's arcs: [offsets_[r], offsets_[r+1])
  std::vector<graph::Vertex> other_;  // the arc's other endpoint
  std::vector<double> weight_;        // the arc's edge weight
};

/// Exact quadratic form x^T L x = sum_e w_e (x_u - x_v)^2 (always >= 0).
double laplacian_quadratic_form(const graph::Graph& g, std::span<const double> x);

}  // namespace spar::linalg
