// SDD matrices as used by Section 4: M = D - A with A a nonnegative
// adjacency matrix and D >= rowsum(A) diagonally. Equivalently
// M = L(graph) + diag(slack) with slack >= 0. The class keeps the
// decomposition explicit because the Peng-Spielman reduction sparsifies the
// *graph part* and needs D and A separately for the chain identity
//   M^{-1} = 1/2 [ D^{-1} + (I + D^{-1}A)(D - A D^{-1} A)^{-1}(I + A D^{-1}) ].
#pragma once

#include <memory>
#include <span>

#include "graph/graph.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/vector_ops.hpp"

namespace spar::solver {

/// M = L(graph) + diag(slack) with the two parts kept separate (see the
/// header comment: the chain identity needs D and A individually).
class SDDMatrix {
 public:
  /// Empty matrix (dimension 0); assign a real one before use.
  SDDMatrix();

  /// Pure graph Laplacian (slack = 0; singular with nullspace span{1} per
  /// connected component).
  explicit SDDMatrix(graph::Graph laplacian_part);

  /// L(graph) + diag(slack); slack entries must be >= 0.
  SDDMatrix(graph::Graph laplacian_part, linalg::Vector slack);

  /// Number of rows/columns n (= vertices of the graph part).
  std::size_t dimension() const { return graph_.num_vertices(); }
  /// The Laplacian part's graph (what the chain sparsifies between levels).
  const graph::Graph& graph_part() const { return graph_; }
  /// The nonnegative diagonal slack s (all zero iff the matrix is singular).
  const linalg::Vector& slack() const { return slack_; }

  /// Full diagonal D = weighted degree + slack.
  const linalg::Vector& diagonal() const { return diagonal_; }

  bool is_singular() const;  ///< true iff slack is identically zero

  /// y = M x  (matrix-free, parallel over rows). The first call builds
  /// L(graph)'s incidence lists, O(m) once; copies share them.
  void apply(std::span<const double> x, std::span<double> y) const;
  /// Allocating overload of apply(): returns M x as a fresh vector.
  linalg::Vector apply(std::span<const double> x) const;

  /// Y = M X column by column. Each column goes through the scalar apply(),
  /// so per-column results are bit-identical to single-vector applies (the
  /// blocked-solve determinism contract).
  void apply(const linalg::MultiVector& x, linalg::MultiVector& y) const;

  /// M as a LinearOperator (for conjugate_gradient / preconditioned_cg).
  linalg::LinearOperator as_operator() const;

  /// M as a blocked operator (for blocked_pcg / solve_sdd_multi).
  linalg::BlockOperator as_block_operator() const;

  /// x^T M x  (exact, nonnegative).
  double quadratic_form(std::span<const double> x) const;

  /// Adjacency part A as CSR (positive entries).
  linalg::CSRMatrix adjacency_csr() const;

  /// Explicit CSR of M itself (for tests / external tools).
  linalg::CSRMatrix to_csr() const;

  /// Stored nonzeros of the explicit form (two per edge plus the diagonal).
  std::size_t nnz() const { return 2 * graph_.num_edges() + dimension(); }

 private:
  struct LazyLaplacian;  // L(graph)'s kernel, built on the first apply()

  graph::Graph graph_;
  linalg::Vector slack_;
  linalg::Vector diagonal_;
  /// Shared by copies, whose graphs are equal; the kernel owns its lists, so
  /// a copy may outlive the matrix that built them.
  std::shared_ptr<LazyLaplacian> laplacian_;
};

}  // namespace spar::solver
