// transport.hpp: the superstep contract both backends must honour, and the
// wire-accounting identity that turns DistMetrics words into a measurement.
// Loopback and socket meshes are driven through the same scenarios: message
// batches arrive per source in sender order, empty batches still synchronize
// (and, on sockets, still frame), and after every run
//     wire_bytes == words * 8 + frames * frame_overhead_bytes()
// holds exactly (exchange() asserts it per superstep; the tests re-check the
// accumulated totals and the cross-shard traffic symmetry).
#include "dist/transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace spar::dist {
namespace {

using Batches = std::vector<std::vector<Message>>;

Message msg(std::uint64_t tag, std::uint64_t a, std::uint64_t b) {
  return Message{tag, a, b};
}

bool same_message(const Message& x, const Message& y) {
  return x.tag == y.tag && x.a == y.a && x.b == y.b;
}

std::string scratch_dir(const std::string& tag) {
  std::string dir = "/tmp/spar_transport_test." + tag + "." +
                    std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// Drive `body(transport, shard)` on every shard of an S-shard mesh built by
/// `make` (which runs inside each shard's thread: SocketTransport's
/// constructor performs the blocking rendezvous).
void run_mesh(std::size_t shards,
              const std::function<std::unique_ptr<Transport>(std::size_t)>& make,
              const std::function<void(Transport&, std::size_t)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      try {
        std::unique_ptr<Transport> net = make(s);
        body(*net, s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < shards; ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
  }
}

/// The shared scenario: three supersteps of distinct per-(src,dst) batches
/// (superstep 1 has every shard silent), then verify content, order, and the
/// accumulated wire metrics of each shard.
void exercise_transport(Transport& net, std::size_t self) {
  const std::size_t shards = net.shard_count();
  ASSERT_EQ(net.shard_id(), self);

  Batches out(shards), in;
  // Superstep 0: shard s sends s+1 messages to every shard (self included).
  for (std::size_t d = 0; d < shards; ++d) {
    for (std::size_t i = 0; i <= self; ++i)
      out[d].push_back(msg(self, d, i));
  }
  net.exchange(out, in);
  ASSERT_EQ(in.size(), shards);
  for (std::size_t src = 0; src < shards; ++src) {
    ASSERT_EQ(in[src].size(), src + 1) << "src=" << src;
    for (std::size_t i = 0; i <= src; ++i) {
      EXPECT_TRUE(same_message(in[src][i], msg(src, self, i)))
          << "src=" << src << " i=" << i;
    }
  }

  // Superstep 1: silence. The barrier must still synchronize (and frame).
  for (auto& batch : out) batch.clear();
  net.exchange(out, in);
  for (std::size_t src = 0; src < shards; ++src) EXPECT_TRUE(in[src].empty());

  // Superstep 2: ring -- each shard sends 5 messages to its successor only.
  for (auto& batch : out) batch.clear();
  const std::size_t next = (self + 1) % shards;
  for (std::size_t i = 0; i < 5; ++i) out[next].push_back(msg(7, self, i));
  net.exchange(out, in);
  const std::size_t prev = (self + shards - 1) % shards;
  for (std::size_t src = 0; src < shards; ++src) {
    if (src == prev && shards > 1) {
      ASSERT_EQ(in[src].size(), 5u);
      for (std::size_t i = 0; i < 5; ++i)
        EXPECT_TRUE(same_message(in[src][i], msg(7, prev, i)));
    } else if (src == self && shards == 1) {
      ASSERT_EQ(in[src].size(), 5u);  // self-send delivered locally
    } else {
      EXPECT_TRUE(in[src].empty());
    }
  }

  // Accumulated accounting. Remote messages this shard sent: superstep 0
  // shipped (self+1) to each of the (shards-1) peers; superstep 2 shipped 5
  // iff the successor is a different shard.
  const WireMetrics& wire = net.wire();
  const std::uint64_t remote0 = (self + 1) * (shards - 1);
  const std::uint64_t remote2 = shards > 1 ? 5 : 0;
  EXPECT_EQ(wire.supersteps, 3u);
  EXPECT_EQ(wire.messages, remote0 + remote2);
  EXPECT_EQ(wire.words, (remote0 + remote2) * kWordsPerMessage);
  EXPECT_EQ(wire.payload_bytes, wire.words * 8);
  EXPECT_EQ(wire.max_round_words,
            std::max(remote0, remote2) * kWordsPerMessage);
  // Frames: one per peer per superstep on sockets, none on loopback -- both
  // covered by the reconciliation identity.
  EXPECT_EQ(wire.wire_bytes,
            wire.payload_bytes + wire.frames * net.frame_overhead_bytes());
  if (net.frame_overhead_bytes() > 0) {
    EXPECT_EQ(wire.frames, 3 * (shards - 1));
  } else {
    EXPECT_EQ(wire.wire_bytes, wire.payload_bytes);
  }
}

TEST(Transport, LoopbackSingleShardDeliversLocally) {
  LoopbackHub hub(1);
  exercise_transport(hub.endpoint(0), 0);
  EXPECT_EQ(hub.endpoint(0).wire().words, 0u);  // nothing crossed a shard
}

TEST(Transport, LoopbackMeshDeliversInSenderOrder) {
  for (std::size_t shards : {2u, 3u, 4u}) {
    LoopbackHub hub(shards);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        try {
          exercise_transport(hub.endpoint(s), s);
        } catch (...) {
          errors[s] = std::current_exception();
          hub.abort();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
}

TEST(Transport, LoopbackAbortReleasesBlockedEndpoints) {
  LoopbackHub hub(2);
  std::thread blocked([&] {
    Batches out(2), in;
    EXPECT_THROW(hub.endpoint(0).exchange(out, in), Error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hub.abort();  // shard 1 never arrives; shard 0 must not hang forever
  blocked.join();
}

TEST(Transport, SocketUnixMeshDeliversAndReconciles) {
  for (std::size_t shards : {2u, 3u, 4u}) {
    const std::string dir =
        scratch_dir("unix" + std::to_string(shards));
    SocketMeshOptions mesh;
    mesh.unix_base = dir + "/mesh";
    run_mesh(
        shards,
        [&](std::size_t s) {
          return std::make_unique<SocketTransport>(s, shards, mesh);
        },
        exercise_transport);
  }
}

TEST(Transport, SocketPeerDeathSurfacesAsErrorNotHang) {
  const std::string dir = scratch_dir("death");
  SocketMeshOptions mesh;
  mesh.unix_base = dir + "/mesh";
  std::vector<std::thread> threads;
  std::exception_ptr survivor_error;
  for (std::size_t s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      try {
        SocketTransport net(s, 2, mesh);
        Batches out(2), in;
        if (s == 1) return;  // dies after the rendezvous, before superstep 0
        net.exchange(out, in);
      } catch (...) {
        if (s == 0) survivor_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(survivor_error);  // EOF mid-superstep is an error, not a hang
  EXPECT_THROW(std::rethrow_exception(survivor_error), Error);
}

}  // namespace
}  // namespace spar::dist
