#include "sparsify/spectral_cert.hpp"

#include <cmath>

#include "graph/csr.hpp"
#include "graph/traversal.hpp"
#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "linalg/laplacian.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace spar::sparsify {

using graph::Graph;
using linalg::DenseMatrix;
using linalg::Vector;

ApproxBounds exact_relative_bounds(const Graph& g, const Graph& h) {
  SPAR_CHECK(g.num_vertices() == h.num_vertices(),
             "exact_relative_bounds: vertex count mismatch");
  const std::size_t n = g.num_vertices();
  SPAR_CHECK(n >= 2, "exact_relative_bounds: need n >= 2");
  SPAR_CHECK(graph::is_connected(graph::CSRGraph(g)),
             "exact_relative_bounds: G must be connected");

  const DenseMatrix lg = DenseMatrix::from_csr(linalg::laplacian_matrix(g));
  const DenseMatrix lh = DenseMatrix::from_csr(linalg::laplacian_matrix(h));
  const auto eig = linalg::symmetric_eigen(lg);

  // Whitening basis B = V_r diag(lambda_r^{-1/2}) over the nonzero spectrum.
  const double lambda_max = eig.eigenvalues.back();
  const double cut = 1e-10 * lambda_max;
  std::size_t first = 0;
  while (first < n && eig.eigenvalues[first] <= cut) ++first;
  const std::size_t r = n - first;
  SPAR_CHECK(r >= 1, "exact_relative_bounds: G Laplacian has empty range");

  DenseMatrix basis(n, r);
  for (std::size_t j = 0; j < r; ++j) {
    const double s = 1.0 / std::sqrt(eig.eigenvalues[first + j]);
    const auto src = eig.eigenvectors.column(first + j);
    auto dst = basis.column(j);
    for (std::size_t i = 0; i < n; ++i) dst[i] = s * src[i];
  }
  // S = B^T L_H B is r x r symmetric; its extreme eigenvalues are the pencil
  // bounds on range(L_G). Only the values are needed, so skip eigenvector
  // accumulation.
  const DenseMatrix lh_b = lh.multiply(basis);
  const DenseMatrix s = basis.transpose().multiply(lh_b);
  const Vector spec = linalg::symmetric_eigenvalues(s);

  ApproxBounds bounds;
  bounds.lower = std::max(0.0, spec.front());
  bounds.upper = spec.back();
  bounds.defined = true;
  return bounds;
}

namespace {

// The CG solve z = pinv(L_den) y inside each power step.
constexpr double kCgTolerance = 1e-9;
constexpr std::size_t kCgMaxIterations = 20000;

// One side of the pencil: the graph, for the exact quadratic form, and its
// Laplacian kernel, built once and shared by both power iterations.
struct PencilSide {
  const Graph& graph;
  linalg::LaplacianOperator lap;
};

// Largest generalized eigenvalue of (L_num, L_den) via power iteration on
// pinv(L_den) L_num. Rayleigh quotient x^T L_num x / x^T L_den x is exact at
// each step, so the returned value is always a certified *inner* bound.
double max_generalized_eigenvalue(const PencilSide& num, const PencilSide& den,
                                  const CertOptions& options, std::uint64_t salt) {
  const std::size_t n = num.graph.num_vertices();
  const linalg::LinearOperator den_op{
      n, [&den](std::span<const double> x, std::span<double> y) { den.lap.apply(x, y); }};

  support::Rng rng(support::mix64(options.seed, salt));
  Vector x(n);
  for (double& xi : x) xi = rng.normal();
  linalg::remove_mean(x);

  Vector y(n), z(n);
  double lambda = 0.0;
  linalg::CGOptions cg;
  cg.tolerance = kCgTolerance;
  cg.max_iterations = kCgMaxIterations;
  cg.project_constant = true;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double den_q = linalg::laplacian_quadratic_form(den.graph, x);
    if (den_q <= 0.0) break;
    const double num_q = linalg::laplacian_quadratic_form(num.graph, x);
    const double rayleigh = num_q / den_q;
    if (it > 0 && std::abs(rayleigh - lambda) <=
                      options.tolerance * std::max(1.0, std::abs(rayleigh))) {
      return rayleigh;
    }
    lambda = rayleigh;
    // x <- pinv(L_den) L_num x, renormalized.
    num.lap.apply(x, y);
    linalg::remove_mean(y);
    linalg::fill(z, 0.0);
    linalg::conjugate_gradient(den_op, y, z, cg);
    const double nrm = linalg::norm2(z);
    if (nrm == 0.0) break;
    linalg::scale(1.0 / nrm, z);
    std::swap(x, z);
  }
  return lambda;
}

}  // namespace

ApproxBounds approx_relative_bounds(const Graph& g, const Graph& h,
                                    const CertOptions& options) {
  SPAR_CHECK(g.num_vertices() == h.num_vertices(),
             "approx_relative_bounds: vertex count mismatch");
  const PencilSide g_side{g, linalg::LaplacianOperator(g)};
  const PencilSide h_side{h, linalg::LaplacianOperator(h)};
  ApproxBounds bounds;
  bounds.defined = true;
  bounds.upper = max_generalized_eigenvalue(h_side, g_side, options, 0xabcdULL);
  if (!graph::is_connected(graph::CSRGraph(h))) {
    bounds.lower = 0.0;  // pencil degenerates: some cut has zero H-weight
    return bounds;
  }
  const double inv_lower = max_generalized_eigenvalue(g_side, h_side, options, 0xdcbaULL);
  bounds.lower = inv_lower > 0.0 ? 1.0 / inv_lower : 0.0;
  return bounds;
}

}  // namespace spar::sparsify
