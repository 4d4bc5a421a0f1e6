// Dense vector kernels (parallel loops). These are the building blocks of
// the iterative solvers; all take std::span so callers keep ownership.
#pragma once

#include <span>
#include <vector>

namespace spar::linalg {

using Vector = std::vector<double>;

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// x *= alpha
void scale(double alpha, std::span<double> x);
/// y = x
void copy(std::span<const double> x, std::span<double> y);
void fill(std::span<double> x, double value);

/// Subtract the mean: projects onto the space orthogonal to the all-ones
/// vector, i.e. onto range(L) for a connected graph Laplacian.
void remove_mean(std::span<double> x);

double mean(std::span<const double> x);

}  // namespace spar::linalg
