// E10 (Section 4's parameter reasoning): the paper's theoretical constants,
// tabulated. No randomness -- this regenerates the *formulas* the analysis
// plugs in:
//   t(n, eps)        = ceil(24 log2(n)^2 / eps^2)           (Theorem 4)
//   bundle floor     ~ t * n * log2 n                        (Cor. 2)
//   applicability m' : sparsification only bites when m > m' (Section 4's
//                      "threshold of applicability")
//   chain work terms : m log^2 n log^3 rho / eps^2 per level (Theorem 5)
// The table shows where the theory becomes self-consistent (m' < binom(n,2))
// -- the quantitative content behind the "practical t" substitution in
// DESIGN.md and behind Remark 3's "the total work remains high".
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "sparsify/sample.hpp"

using namespace spar;

int main(int argc, char** argv) {
  const support::Options opt(argc, argv);
  const double eps = opt.get_double("eps", 1.0);

  support::Table table({"n", "log2 n", "t(n,eps)", "bundle floor ~t*n*lg n",
                        "binom(n,2)", "theory applicable?"});
  const std::vector<double> ns = {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
  for (const double nd : ns) {
    const auto n = static_cast<std::size_t>(nd);
    const double lg = bench::log2n(n);
    const std::size_t t = sparsify::theory_bundle_width(n, eps);
    const double floor = double(t) * nd * lg;
    const double complete = nd * (nd - 1) / 2.0;
    table.add_row({support::Table::cell(nd), support::Table::cell(lg),
                   std::to_string(t), support::Table::cell(floor),
                   support::Table::cell(complete),
                   floor < complete ? "yes" : "no"});
  }
  table.print("E10: theory constants at eps = " + support::Table::cell(eps));
  std::printf(
      "\nReading: with the paper's constant 24, the bundle alone exceeds even\n"
      "the complete graph until n ~ 10^6 (eps = 1). The asymptotic claim is\n"
      "unaffected -- this is the constant-factor reality motivating the\n"
      "practical-t mode (DESIGN.md section 2) and Remark 3's discussion.\n");

  // Solver side: the per-level size factor O(log n log^2 kappa) that squaring
  // inflates and PARALLELSPARSIFY must undo (Section 4).
  support::Table chain({"n", "kappa", "level growth ~lg n * lg^2 k",
                        "rho to undo", "rounds ceil(lg rho)"});
  for (const double nd : {1e4, 1e6}) {
    for (const double kappa : {1e3, 1e6, 1e9}) {
      const double lg = bench::log2n(static_cast<std::size_t>(nd));
      const double lgk = std::log2(kappa);
      const double growth = lg * lgk * lgk;
      chain.add_row({support::Table::cell(nd), support::Table::cell(kappa),
                     support::Table::cell(growth), support::Table::cell(growth),
                     support::Table::cell(std::ceil(std::log2(growth)))});
    }
  }
  chain.print("E10b: Section 4 chain bookkeeping (rho = level growth factor)");
  return 0;
}
