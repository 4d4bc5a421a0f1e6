// FNV-1a fingerprint of a built chain for the solver tests: its depth, every
// level's bookkeeping (the depth probe's included) and the bits of one full
// apply, which reads every stored weight. Equal fingerprints mean
// bit-identical chains.
#pragma once

#include <cstdint>
#include <cstring>

#include "solver/chain.hpp"
#include "support/rng.hpp"

namespace spar::solver {

inline std::uint64_t chain_fingerprint(const InverseChain& chain) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(chain.num_levels());
  for (const ChainLevelInfo& info : chain.level_info()) {
    mix(info.edges);
    mix(info.edges_after_square);
    mix_double(info.gamma);
    mix(info.probe_iterations);
    mix_double(info.probe_work);
  }
  support::Rng rng(12345);
  linalg::Vector b(chain.dimension()), y(chain.dimension());
  for (double& v : b) v = rng.normal();
  chain.apply(b, y);
  for (double v : y) mix_double(v);
  return h;
}

}  // namespace spar::solver
