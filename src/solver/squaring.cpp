#include "solver/squaring.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "linalg/laplacian.hpp"
#include "support/assert.hpp"

namespace spar::solver {

using graph::Graph;
using graph::Vertex;
using linalg::CSRMatrix;
using linalg::Vector;

SDDMatrix square(const SDDMatrix& m) {
  const std::size_t n = m.dimension();
  const Vector& d = m.diagonal();
  for (double di : d) SPAR_CHECK(di > 0.0, "square: zero diagonal (isolated vertex)");

  // S = A D^{-1} A = (A D^{-1/2}) (D^{-1/2} A): scale symmetrically then GEMM.
  Vector inv_sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) inv_sqrt_d[i] = 1.0 / std::sqrt(d[i]);
  const CSRMatrix a = m.adjacency_csr();
  const CSRMatrix a_scaled = a.scaled_symmetric(inv_sqrt_d);
  // (A D^{-1/2}) rows scaled on the right only: a.scaled_symmetric scales both
  // sides; S = D^{1/2} (D^{-1/2} A D^{-1/2})^2 D^{1/2}. Using X = D^{-1/2}AD^{-1/2}:
  // S = D^{1/2} X X D^{1/2}.
  const CSRMatrix x2 = a_scaled.multiply(a_scaled);
  Vector sqrt_d(n);
  for (std::size_t i = 0; i < n; ++i) sqrt_d[i] = std::sqrt(d[i]);
  const CSRMatrix s = x2.scaled_symmetric(sqrt_d);

  // Split S into off-diagonal (new adjacency) and diagonal.
  Graph new_graph(static_cast<Vertex>(n));
  Vector s_diag(n, 0.0);
  const auto offsets = s.row_offsets();
  const auto cols = s.col_indices();
  const auto vals = s.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const std::uint32_t c = cols[k];
      if (c == r) {
        s_diag[r] += vals[k];
      } else if (vals[k] <= 0.0) {
        // Off-diagonal mass that cancelled to <= 0 (product entries are sums
        // of nonnegative terms, so this is underflow-to-zero on extreme
        // weight ranges, never genuine negativity). Fold it into the diagonal
        // rather than dropping it: each row's sum -- and therefore its slack
        // -- then matches the computed product exactly, and Laplacian inputs
        // stay exactly singular instead of leaking spurious slack.
        s_diag[r] += vals[k];
      } else if (c > r) {
        new_graph.add_edge(static_cast<Vertex>(r), c, vals[k]);
      }
    }
  }

  // New slack d - diag(S) - rowsum(offdiag(S)) >= 0 (exactly 0 for
  // Laplacians): tiny negative fuzz from floating point is clamped and
  // roundoff snaps to exactly zero, so Laplacians square to Laplacians
  // (singularity is decided by slack == 0).
  const Vector new_degree = linalg::degree_vector(new_graph);
  Vector new_slack(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double slack = d[i] - s_diag[i] - new_degree[i];
    SPAR_CHECK(slack > -1e-8 * std::max(1.0, d[i]),
               "square: negative slack beyond roundoff; input was not SDD");
    new_slack[i] = slack > 1e-12 * std::max(1.0, d[i]) ? slack : 0.0;
  }
  return SDDMatrix(std::move(new_graph), std::move(new_slack));
}

double adjacency_dominance(const SDDMatrix& m) {
  const Vector degree = linalg::degree_vector(m.graph_part());
  const Vector& d = m.diagonal();
  double gamma = 0.0;
  for (std::size_t i = 0; i < m.dimension(); ++i) {
    if (d[i] > 0.0) gamma = std::max(gamma, degree[i] / d[i]);
  }
  return gamma;
}

}  // namespace spar::solver
