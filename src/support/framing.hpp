// Checksum + framing primitives shared by the SPARBIN file format and the
// solver-service wire protocol.
//
// Extracted from src/graph/io_binary.cpp so the two byte-level consumers --
// on-disk graphs and length-prefixed socket frames -- share ONE audited
// implementation of the chunked-FNV discipline instead of drifting copies.
// The values produced here are part of the SPARBIN v1 format: any change
// breaks every .spb file in the wild, and the io tests pin them.
//
// Determinism: checksum_bytes folds per-chunk FNV-1a states in ascending
// chunk order with chunk boundaries from default_grain -- a pure function of
// the length -- so the checksum is identical for every thread count.
// ChunkedHasher is the incremental mirror for payloads that arrive in slices
// (streamed file reads, socket frames): same chunk boundaries, same fold,
// bit-identical result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace spar::support::framing {

/// FNV-1a offset basis: the initial per-chunk hash state.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Plain sequential FNV-1a over `len` bytes, continuing from state `h`.
inline std::uint64_t fnv1a(const unsigned char* p, std::size_t len,
                           std::uint64_t h) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

/// Chunked FNV-1a folded in chunk order. Chunk boundaries come from
/// default_grain (a pure function of the length), so the value is identical
/// for every thread count. The seed binds caller
/// context (header fields, previous arrays) into the digest.
inline std::uint64_t checksum_bytes(const void* data, std::size_t len,
                                    std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  return par::parallel_reduce(
      0, static_cast<std::int64_t>(len), support::mix64(seed, len),
      [&](std::int64_t cb, std::int64_t ce) {
        return fnv1a(bytes + cb, static_cast<std::size_t>(ce - cb), kFnvOffsetBasis);
      },
      [](std::uint64_t acc, std::uint64_t part) { return support::mix64(acc, part); });
}

/// Incremental mirror of checksum_bytes for one byte array whose content
/// arrives in sequential slices: chunk boundaries are derived from the TOTAL
/// length declared to init() (exactly as checksum_bytes derives them),
/// per-chunk FNV states roll across feed() calls, and fold(seed) reproduces
/// checksum_bytes(data, len, seed) bit for bit. Chunk count is capped at
/// 4096 by default_grain, so the deferred part list is tiny.
struct ChunkedHasher {
  std::uint64_t len = 0;                ///< total bytes declared to init()
  std::int64_t grain = 1;               ///< chunk size (from default_grain)
  std::vector<std::uint64_t> parts;     ///< completed per-chunk FNV states
  std::uint64_t cur = kFnvOffsetBasis;  ///< in-progress chunk state
  std::int64_t in_chunk = 0;            ///< bytes consumed of the open chunk

  /// Declares the total array length and resets all rolling state.
  void init(std::uint64_t total_bytes) {
    len = total_bytes;
    grain = par::default_grain(static_cast<std::int64_t>(total_bytes));
    parts.clear();
    cur = kFnvOffsetBasis;
    in_chunk = 0;
  }

  /// Consumes the next `k` bytes of the array.
  void feed(const void* data, std::size_t k) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (k > 0) {
      const auto take = std::min<std::size_t>(k, static_cast<std::size_t>(grain - in_chunk));
      cur = fnv1a(p, take, cur);
      in_chunk += static_cast<std::int64_t>(take);
      p += take;
      k -= take;
      if (in_chunk == grain) {
        parts.push_back(cur);
        cur = kFnvOffsetBasis;
        in_chunk = 0;
      }
    }
  }

  /// Finalize (flushing a short tail chunk) and fold under `seed`, exactly as
  /// checksum_bytes combines: identity mix64(seed, len), then parts in order.
  std::uint64_t fold(std::uint64_t seed) {
    if (in_chunk > 0) {
      parts.push_back(cur);
      cur = kFnvOffsetBasis;
      in_chunk = 0;
    }
    std::uint64_t h = support::mix64(seed, len);
    for (const std::uint64_t part : parts) h = support::mix64(h, part);
    return h;
  }
};

}  // namespace spar::support::framing
