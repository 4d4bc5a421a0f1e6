// Transport abstraction for the sharded distributed runtime.
//
// The protocols in src/dist are bulk-synchronous: a superstep has every
// shard deposit one batch of fixed-size messages per destination shard,
// then a barrier, then every shard reads the batches addressed to it. A
// message is the simulator's O(log n)-bit unit made concrete: exactly three
// machine words (tag, payload, payload). Two backends implement the same
// contract:
//
//  * LoopbackTransport -- all shards in one process, batches moved between
//    per-(src,dst) mailboxes under a generation barrier. Zero-copy, zero
//    framing: this is the PR 1 simulator's semantics as a backend. With one
//    shard it degenerates to the sequential simulator exactly.
//  * SocketTransport -- one OS process per shard, full-mesh UNIX-domain
//    stream sockets (support/net.hpp), one checksummed length-prefixed
//    frame per (peer, superstep) -- empty batches still frame, which is
//    what makes a superstep a barrier. The checksum is the
//    SPARBIN chunked-FNV discipline (support/framing.hpp) seeded with
//    (src, round, count) so spliced or reordered frames fail verification.
//
// Wire accounting is part of the contract, not a debug feature: exchange()
// counts the words the protocol handed it and asserts, EVERY superstep,
// that the bytes actually written to the wire reconcile exactly:
//
//     wire_bytes == words * 8  +  frames * frame_overhead_bytes()
//
// (overhead is 0 for loopback, one 48-byte header per peer frame for
// sockets). DistMetrics words therefore stop being a model statement and
// become a measurement -- see DESIGN.md §8.
#pragma once

#include <cstdint>
#include <vector>

#include "support/net.hpp"

namespace spar::dist {

/// One protocol message: the CONGEST O(log n)-bit unit, concretely one tag
/// word plus two payload words. Sent raw on same-machine wires (the mesh
/// never crosses an endianness boundary).
struct Message {
  std::uint64_t tag = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(Message) == 24, "Message must pack to 3 words");

/// Words per message (the simulator's constant, now the framing constant).
inline constexpr std::uint64_t kWordsPerMessage = 3;

/// Measured transport traffic of one shard across a run. `words` here are
/// wire words (messages that crossed a shard boundary x 3); intra-shard
/// deliveries are free and uncounted, unlike the model-level DistMetrics.
struct WireMetrics {
  std::uint64_t supersteps = 0;      ///< exchange() calls (barrier rounds)
  std::uint64_t frames = 0;          ///< per-peer batches shipped
  std::uint64_t messages = 0;        ///< messages that crossed shards
  std::uint64_t words = 0;           ///< 3 * messages
  std::uint64_t payload_bytes = 0;   ///< words * 8
  std::uint64_t wire_bytes = 0;      ///< bytes handed to the socket layer
  std::uint64_t max_round_words = 0; ///< congestion: largest single superstep

  void absorb(const WireMetrics& other) {
    supersteps += other.supersteps;
    frames += other.frames;
    messages += other.messages;
    words += other.words;
    payload_bytes += other.payload_bytes;
    wire_bytes += other.wire_bytes;
    if (other.max_round_words > max_round_words)
      max_round_words = other.max_round_words;
  }
};

/// Synchronous batched message transport between `shard_count()` shards.
/// exchange() is collective: EVERY shard must call it the same number of
/// times with structurally matching supersteps, or the mesh deadlocks (the
/// protocols in shard.cpp guarantee this by construction -- every superstep
/// is executed unconditionally by every shard).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::size_t shard_count() const = 0;
  virtual std::size_t shard_id() const = 0;

  /// Bytes of framing per shipped batch (0 loopback, header size sockets).
  virtual std::size_t frame_overhead_bytes() const = 0;

  /// One superstep: deposit out[d] for every shard d (out[shard_id()] is
  /// delivered locally, never framed), barrier, receive. On return in[s]
  /// holds the batch shard s addressed to us this superstep, in s's send
  /// order; out is left empty. Asserts the wire reconciliation identity
  /// (see file comment) against the bytes the backend actually wrote.
  void exchange(std::vector<std::vector<Message>>& out,
                std::vector<std::vector<Message>>& in);

  /// Accumulated traffic of this shard (sent-side accounting).
  const WireMetrics& wire() const { return wire_; }

 protected:
  /// Backend hook: ship the remote batches, fill the inboxes, return the
  /// bytes actually written to the wire (0 for in-process delivery).
  virtual std::uint64_t ship(std::vector<std::vector<Message>>& out,
                             std::vector<std::vector<Message>>& in) = 0;

 private:
  WireMetrics wire_;
};

/// In-process backend: S endpoints sharing parity-double-buffered mailboxes
/// under a generation barrier. Endpoints are driven by S caller threads (or
/// called inline when S == 1). abort() releases every blocked endpoint with
/// an error so one failing shard cannot deadlock the others.
class LoopbackHub {
 public:
  explicit LoopbackHub(std::size_t shards);
  ~LoopbackHub();

  LoopbackHub(const LoopbackHub&) = delete;
  LoopbackHub& operator=(const LoopbackHub&) = delete;

  std::size_t shards() const;
  Transport& endpoint(std::size_t shard);

  /// Wake every endpoint blocked at the barrier with a spar::Error. Called
  /// by the runner when a sibling shard thread failed.
  void abort();

 private:
  struct Impl;
  Impl* impl_;
};

/// Where a socket mesh lives.
struct SocketMeshOptions {
  /// Shard s listens on the UNIX socket "<unix_base>.<s>". Required.
  std::string unix_base;
  /// How long the rendezvous retries while peers are still starting up.
  int connect_timeout_ms = 15000;
};

/// Multi-process backend: a full mesh of stream sockets, one frame per
/// (peer, superstep). Construction performs the mesh rendezvous (listen,
/// cross-connect, hello exchange) and blocks until every peer is wired.
class SocketTransport final : public Transport {
 public:
  SocketTransport(std::size_t shard, std::size_t shards,
                  const SocketMeshOptions& options);
  ~SocketTransport() override;

  std::size_t shard_count() const override { return shards_; }
  std::size_t shard_id() const override { return shard_; }
  std::size_t frame_overhead_bytes() const override;

 protected:
  std::uint64_t ship(std::vector<std::vector<Message>>& out,
                     std::vector<std::vector<Message>>& in) override;

 private:
  void send_batch(std::size_t peer, const std::vector<Message>& batch,
                  std::uint64_t& bytes_written);
  void recv_batch(std::size_t peer, std::vector<Message>& batch);

  std::size_t shard_ = 0;
  std::size_t shards_ = 1;
  std::uint64_t round_ = 0;
  std::vector<support::net::Socket> peers_;  // by shard id; self invalid
};

}  // namespace spar::dist
