// E9 (PRAM claims proxy): strong scaling of the parallel kernels on the
// TaskPool substrate -- CSR construction, Baswana-Sen spanner,
// PARALLELSPARSIFY, SpMV -- plus the cost of dispatching one loop.
//
// The paper's parallel model is CRCW PRAM; work bounds are validated in
// E1/E5 via operation counts. This bench reports wall-clock across thread
// counts on this machine. The dispatch columns time back-to-back
// parallel_for calls over 1,600 doubles (the partition_grid vertex count,
// where a dispatch costs about as much as the work) and over 20,000; a
// WARNING line flags the default width losing to one thread at 20,000 (the
// exit code does not change).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "graph/csr.hpp"
#include "linalg/laplacian.hpp"
#include "spanner/baswana_sen.hpp"
#include "sparsify/sparsify.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

using namespace spar;

namespace {

// Microseconds per back-to-back parallel_for over n doubles under the
// current budget: the best of 5 batches, each sized to ~20 ms of serial work.
double dispatch_us(std::int64_t n) {
  std::vector<double> v(static_cast<std::size_t>(n), 1.0);
  const int reps = static_cast<int>(std::max<std::int64_t>(200, 20'000'000 / n));
  double best = 1e300;
  for (int batch = 0; batch < 5; ++batch) {
    support::Timer t;
    for (int r = 0; r < reps; ++r)
      support::par::parallel_for(0, n, [&](std::int64_t i) {
        v[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(i)] * 0.5 + 1.0;
      });
    best = std::min(best, t.seconds() * 1e6 / reps);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const bool quick = opt.get_bool("quick", false);
  const std::uint64_t seed = opt.get_int("seed", 37);
  const graph::Vertex n = static_cast<graph::Vertex>(opt.get_int("n", quick ? 20000 : 60000));

  const graph::Graph g = bench::make_family("er", n, seed);
  const linalg::CSRMatrix lap = linalg::laplacian_matrix(g);
  support::Rng rng(seed);
  linalg::Vector x(g.num_vertices()), y(g.num_vertices());
  for (double& v : x) v = rng.normal();

  std::printf("parallel backend: %s\n", support::par::backend_description().c_str());

  support::Table table({"threads", "csr build ms", "spanner ms", "sparsify ms",
                        "spmv x32 ms", "for 1600 us", "for 20000 us"});
  for (const int threads : {1, 2, 4}) {
    const support::par::ThreadLimit limit(threads);
    if (support::par::max_threads() < threads) continue;  // wider than the pool

    support::Timer t1;
    const graph::CSRGraph csr(g);
    const double csr_ms = t1.millis();

    support::Timer t2;
    const auto ids = spanner::baswana_sen_spanner(csr, nullptr, {.k = 0, .seed = seed});
    const double spanner_ms = t2.millis();

    support::Timer t3;
    sparsify::SparsifyOptions sopt;
    sopt.rho = 4.0;
    sopt.t = 1;
    sopt.seed = seed;
    const auto sp = sparsify::parallel_sparsify(g, sopt);
    const double sparsify_ms = t3.millis();

    support::Timer t4;
    for (int rep = 0; rep < 32; ++rep) lap.multiply(x, y);
    const double spmv_ms = t4.millis();

    table.add_row({std::to_string(threads), support::Table::cell(csr_ms),
                   support::Table::cell(spanner_ms),
                   support::Table::cell(sparsify_ms),
                   support::Table::cell(spmv_ms), support::Table::cell(dispatch_us(1600)),
                   support::Table::cell(dispatch_us(20000))});
    (void)ids;
    (void)sp;
  }
  table.print("E9: strong scaling on the TaskPool substrate, er n=" + std::to_string(n));

  double one_thread_us;
  {
    const support::par::ThreadLimit one(1);
    one_thread_us = dispatch_us(20000);
  }
  const double default_us = dispatch_us(20000);
  if (default_us > one_thread_us)
    std::printf("WARNING: parallel_for over 20000 doubles takes %.2f us at the default width "
                "(%d threads) vs %.2f us on one thread\n",
                default_us, support::par::max_threads(), one_thread_us);
  std::printf("\nDeterminism note: results are identical across thread counts "
              "(counter-based RNG streams), verified by the test suite.\n");
  return 0;
}
