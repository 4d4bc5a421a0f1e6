// Layer probes: the public calls of one layer, wrapped in spans and timed
// from outside. The workloads share them so a layer is measured the same
// way on every input.
#pragma once

#include "common.hpp"
#include "graph/graph.hpp"
#include "solver/solver.hpp"
#include "sparsify/sparsify.hpp"
#include "sparsify/spectral_cert.hpp"

namespace perfbench {

/// graph::load_graph inside a "graph.load" span.
spar::graph::Graph traced_load(const std::string& path);
/// sparsify::parallel_sparsify as sparsify_tool runs it (eps 0.5, rho 8,
/// t 3) inside a "sparsify.sparsify" span.
spar::sparsify::SparsifyResult traced_sparsify(const spar::graph::Graph& g);
/// sparsify::approx_relative_bounds with a fixed power-iteration budget
/// inside a "sparsify.certify" span.
spar::sparsify::ApproxBounds traced_certify(const spar::graph::Graph& g,
                                            const spar::graph::Graph& h);

/// Sets the sparsify.* metrics from one result and the span medians.
void set_sparsify_metrics(Report& report, const spar::graph::Graph& g,
                          const spar::sparsify::SparsifyResult& res,
                          const spar::sparsify::ApproxBounds& bounds);

/// spanner::t_bundle (t = 3) on the input: spanner.bundle_s / bundle_edges.
void probe_bundle(const spar::graph::Graph& g, Report& report);

/// Sparsify + certify + bundle probes on a workload's input.
void probe_sparsify_layers(const spar::graph::Graph& g, Report& report);

/// Solver layer on a built chain: one InverseChain::apply, solve_sdd (k = 1),
/// solve_sdd_multi (k = 16) and the Jacobi-PCG baseline at the same
/// tolerance. Prints the baseline row and warns when the chain loses end to
/// end (build + solve vs Jacobi-PCG); sets the solver.* metrics.
void probe_solver_layers(const spar::solver::SDDMatrix& m,
                         const spar::solver::InverseChain& chain, double chain_build_s,
                         const spar::solver::SolveOptions& options, std::uint64_t seed,
                         Report& report);

/// Mean-free standard-normal right-hand side number `i` of stream `seed`:
/// the RHS both a client and its oracle regenerate independently.
spar::linalg::Vector make_rhs(std::size_t n, std::uint64_t seed, std::uint64_t i);

}  // namespace perfbench
