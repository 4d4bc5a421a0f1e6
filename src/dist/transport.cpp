#include "dist/transport.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/framing.hpp"
#include "support/rng.hpp"

namespace spar::dist {

namespace {

// Refuse absurd frames before allocating for them: a superstep batch in
// these protocols is O(m) messages, and every test graph is far below this.
constexpr std::uint64_t kMaxBatchMessages = (1ULL << 32);

}  // namespace

// ---------------------------------------------------------------------------
// Transport: accounting + the reconciliation assert, backend-independent.
// ---------------------------------------------------------------------------

void Transport::exchange(std::vector<std::vector<Message>>& out,
                         std::vector<std::vector<Message>>& in) {
  const std::size_t shards = shard_count();
  SPAR_CHECK(out.size() == shards,
             "exchange: out has " + std::to_string(out.size()) +
                 " batches for " + std::to_string(shards) + " shards");
  std::uint64_t remote_messages = 0;
  for (std::size_t d = 0; d < shards; ++d) {
    if (d == shard_id()) continue;
    remote_messages += out[d].size();
  }
  const std::uint64_t words = remote_messages * kWordsPerMessage;
  const std::uint64_t payload = words * sizeof(std::uint64_t);
  const std::uint64_t frames = shards > 1 ? shards - 1 : 0;

  const std::uint64_t wrote = ship(out, in);

  // The wire identity: every word the protocol deposited is on the wire
  // exactly once, plus one frame header per peer -- nothing hidden, nothing
  // dropped. This runs on EVERY superstep of every run, not just in tests.
  SPAR_CHECK(wrote == payload + frames * frame_overhead_bytes(),
             "wire reconciliation failed: wrote " + std::to_string(wrote) +
                 " bytes, expected " + std::to_string(payload) +
                 " payload + " + std::to_string(frames) + " x " +
                 std::to_string(frame_overhead_bytes()) + " framing");

  wire_.supersteps += 1;
  wire_.frames += frames;
  wire_.messages += remote_messages;
  wire_.words += words;
  wire_.payload_bytes += payload;
  wire_.wire_bytes += wrote;
  if (words > wire_.max_round_words) wire_.max_round_words = words;
}

// ---------------------------------------------------------------------------
// LoopbackTransport
// ---------------------------------------------------------------------------

struct LoopbackHub::Impl {
  class Endpoint final : public Transport {
   public:
    Endpoint(Impl& hub, std::size_t shard) : hub_(hub), shard_(shard) {}

    std::size_t shard_count() const override { return hub_.shards; }
    std::size_t shard_id() const override { return shard_; }
    std::size_t frame_overhead_bytes() const override { return 0; }

   protected:
    std::uint64_t ship(std::vector<std::vector<Message>>& out,
                       std::vector<std::vector<Message>>& in) override {
      return hub_.ship(shard_, out, in);
    }

   private:
    Impl& hub_;
    std::size_t shard_;
  };

  explicit Impl(std::size_t shard_count) : shards(shard_count) {
    SPAR_CHECK(shards >= 1, "LoopbackHub wants at least 1 shard");
    for (int parity = 0; parity < 2; ++parity)
      mail[parity].assign(shards, std::vector<std::vector<Message>>(shards));
    endpoints.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
      endpoints.push_back(std::make_unique<Endpoint>(*this, s));
  }

  std::uint64_t ship(std::size_t self, std::vector<std::vector<Message>>& out,
                     std::vector<std::vector<Message>>& in) {
    std::uint64_t bytes = 0;
    const int parity = static_cast<int>(round[self] & 1);
    // Deposit: slot (parity, dst, self) is written only by `self` this
    // round and read only after the barrier, so no lock is needed; the
    // barrier's mutex publishes the writes.
    for (std::size_t d = 0; d < shards; ++d) {
      if (d != self)
        bytes += out[d].size() * sizeof(Message);
      mail[parity][d][self] = std::move(out[d]);
      out[d].clear();
    }

    // Generation barrier: last arriver flips the generation and wakes the
    // cohort. abort() wakes everyone with `aborted` set instead.
    {
      std::unique_lock<std::mutex> lock(mu);
      const std::uint64_t my_gen = generation;
      if (++arrived == shards) {
        arrived = 0;
        ++generation;
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return generation != my_gen || aborted; });
      }
      if (aborted)
        throw Error("loopback transport aborted: a sibling shard failed");
    }

    in.resize(shards);
    for (std::size_t s = 0; s < shards; ++s)
      in[s] = std::move(mail[parity][self][s]);
    ++round[self];
    // Loopback "wire" bytes are the payload bytes moved between shards --
    // reconciles with zero framing overhead.
    return bytes;
  }

  std::size_t shards;
  // mail[parity][dst][src]: parity double-buffering lets a fast shard
  // deposit round r+1 while a slow one is still collecting round r.
  std::vector<std::vector<std::vector<Message>>> mail[2];
  std::vector<std::uint64_t> round = std::vector<std::uint64_t>(shards, 0);
  std::vector<std::unique_ptr<Endpoint>> endpoints;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::uint64_t generation = 0;
  bool aborted = false;
};

LoopbackHub::LoopbackHub(std::size_t shards) : impl_(new Impl(shards)) {}
LoopbackHub::~LoopbackHub() { delete impl_; }

std::size_t LoopbackHub::shards() const { return impl_->shards; }

Transport& LoopbackHub::endpoint(std::size_t shard) {
  SPAR_CHECK(shard < impl_->shards,
             "endpoint " + std::to_string(shard) + " of " +
                 std::to_string(impl_->shards));
  return *impl_->endpoints[shard];
}

void LoopbackHub::abort() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->aborted = true;
  impl_->cv.notify_all();
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

namespace {

// One frame per (peer, superstep): fixed header + count raw Messages. The
// checksum seed binds (src, round, count) so a frame replayed into another
// round -- or truncated and spliced -- fails verification, same discipline
// as SPARBIN section checksums.
struct FrameHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t src = 0;
  std::uint64_t round = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(FrameHeader) == 48, "frame header must pack to 48 bytes");

constexpr std::uint64_t kFrameMagic = 0x5350415244535446ULL;  // "SPARDSTF"
constexpr std::uint32_t kFrameVersion = 1;
// Rendezvous hello: a zero-payload frame in a round no superstep uses.
constexpr std::uint64_t kHelloRound = ~0ULL;

std::uint64_t frame_seed(std::uint32_t src, std::uint64_t round,
                         std::uint64_t count) {
  return support::mix64(support::mix64(src, round), count);
}

void send_hello(const support::net::Socket& sock, std::size_t self) {
  FrameHeader h;
  h.magic = kFrameMagic;
  h.version = kFrameVersion;
  h.src = static_cast<std::uint32_t>(self);
  h.round = kHelloRound;
  h.checksum = support::framing::checksum_bytes(nullptr, 0,
                                                frame_seed(h.src, h.round, 0));
  sock.write_exact(&h, sizeof(h));
}

std::size_t recv_hello(const support::net::Socket& sock) {
  FrameHeader h;
  if (!sock.read_exact(&h, sizeof(h)))
    throw Error("shard mesh rendezvous: peer closed before hello");
  SPAR_CHECK(h.magic == kFrameMagic && h.version == kFrameVersion,
             "shard mesh rendezvous: bad hello frame");
  SPAR_CHECK(h.round == kHelloRound && h.count == 0 && h.payload_bytes == 0,
             "shard mesh rendezvous: hello carries a payload");
  return h.src;
}

support::net::Socket connect_with_retry(const SocketMeshOptions& opt,
                                        std::size_t peer) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt.connect_timeout_ms);
  for (;;) {
    try {
      return support::net::connect_unix(opt.unix_base + "." +
                                        std::to_string(peer));
    } catch (const Error&) {
      // Peer process may still be booting its listener; retry until the
      // rendezvous deadline.
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace

SocketTransport::SocketTransport(std::size_t shard, std::size_t shards,
                                 const SocketMeshOptions& options)
    : shard_(shard), shards_(shards) {
  SPAR_CHECK(shards_ >= 1 && shard_ < shards_,
             "socket transport shard " + std::to_string(shard_) + " of " +
                 std::to_string(shards_));
  SPAR_CHECK(!options.unix_base.empty(), "socket mesh wants a unix_base");
  peers_.resize(shards_);
  if (shards_ == 1) return;

  // Rendezvous: everyone listens; shard s dials every lower-numbered peer
  // (so each edge of the mesh has exactly one dialer) and identifies itself
  // with a hello frame; accepted connections are filed under the shard id
  // their hello announces, which makes accept order irrelevant.
  support::net::Listener listener = support::net::Listener::unix_domain(
      options.unix_base + "." + std::to_string(shard_));

  for (std::size_t peer = 0; peer < shard_; ++peer) {
    support::net::Socket sock = connect_with_retry(options, peer);
    send_hello(sock, shard_);
    peers_[peer] = std::move(sock);
  }
  for (std::size_t expected = shard_ + 1; expected < shards_; ++expected) {
    support::net::Socket sock = listener.accept();
    SPAR_CHECK(sock.valid(), "shard mesh rendezvous: listener closed early");
    const std::size_t who = recv_hello(sock);
    SPAR_CHECK(who > shard_ && who < shards_ && !peers_[who].valid(),
               "shard mesh rendezvous: unexpected hello from shard " +
                   std::to_string(who));
    peers_[who] = std::move(sock);
  }
}

SocketTransport::~SocketTransport() = default;

std::size_t SocketTransport::frame_overhead_bytes() const {
  return sizeof(FrameHeader);
}

void SocketTransport::send_batch(std::size_t peer,
                                 const std::vector<Message>& batch,
                                 std::uint64_t& bytes_written) {
  FrameHeader h;
  h.magic = kFrameMagic;
  h.version = kFrameVersion;
  h.src = static_cast<std::uint32_t>(shard_);
  h.round = round_;
  h.count = batch.size();
  h.payload_bytes = batch.size() * sizeof(Message);
  h.checksum = support::framing::checksum_bytes(
      batch.data(), h.payload_bytes, frame_seed(h.src, h.round, h.count));
  peers_[peer].write_exact(&h, sizeof(h));
  if (h.payload_bytes > 0) peers_[peer].write_exact(batch.data(), h.payload_bytes);
  bytes_written += sizeof(h) + h.payload_bytes;
}

void SocketTransport::recv_batch(std::size_t peer, std::vector<Message>& batch) {
  FrameHeader h;
  if (!peers_[peer].read_exact(&h, sizeof(h)))
    throw Error("shard " + std::to_string(peer) +
                " closed its connection mid-run (peer crashed?)");
  SPAR_CHECK(h.magic == kFrameMagic && h.version == kFrameVersion,
             "bad frame from shard " + std::to_string(peer));
  SPAR_CHECK(h.src == peer, "frame from shard " + std::to_string(h.src) +
                                " on shard " + std::to_string(peer) +
                                "'s connection");
  SPAR_CHECK(h.round == round_,
             "superstep skew: shard " + std::to_string(peer) + " is at round " +
                 std::to_string(h.round) + ", we are at " +
                 std::to_string(round_));
  SPAR_CHECK(h.count <= kMaxBatchMessages &&
                 h.payload_bytes == h.count * sizeof(Message),
             "frame from shard " + std::to_string(peer) +
                 " declares inconsistent payload");
  batch.resize(static_cast<std::size_t>(h.count));
  if (h.payload_bytes > 0) {
    if (!peers_[peer].read_exact(batch.data(), h.payload_bytes))
      throw Error("shard " + std::to_string(peer) + " truncated a frame");
  }
  const std::uint64_t sum = support::framing::checksum_bytes(
      batch.data(), h.payload_bytes, frame_seed(h.src, h.round, h.count));
  SPAR_CHECK(sum == h.checksum,
             "frame checksum mismatch from shard " + std::to_string(peer) +
                 " at round " + std::to_string(round_));
}

std::uint64_t SocketTransport::ship(std::vector<std::vector<Message>>& out,
                                    std::vector<std::vector<Message>>& in) {
  in.resize(shards_);
  in[shard_] = std::move(out[shard_]);
  out[shard_].clear();
  if (shards_ == 1) {
    ++round_;
    return 0;
  }

  // Sends run on a helper thread while this thread drains the peers in
  // ascending order: with every shard writing and reading concurrently the
  // mesh cannot deadlock on full kernel send buffers, whatever the batch
  // sizes. Empty batches still frame -- the frame IS the round barrier.
  std::uint64_t bytes_written = 0;
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      for (std::size_t peer = 0; peer < shards_; ++peer) {
        if (peer == shard_) continue;
        send_batch(peer, out[peer], bytes_written);
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });
  std::exception_ptr recv_error;
  try {
    for (std::size_t peer = 0; peer < shards_; ++peer) {
      if (peer == shard_) continue;
      recv_batch(peer, in[peer]);
    }
  } catch (...) {
    recv_error = std::current_exception();
    // Unblock the sender if it is parked on a dead peer's full buffer.
    for (std::size_t peer = 0; peer < shards_; ++peer)
      if (peer != shard_) peers_[peer].shutdown_rw();
  }
  sender.join();
  if (recv_error) std::rethrow_exception(recv_error);
  if (send_error) std::rethrow_exception(send_error);

  for (std::size_t peer = 0; peer < shards_; ++peer) out[peer].clear();
  ++round_;
  return bytes_written;
}

}  // namespace spar::dist
