// net.hpp: the hardened stream-socket substrate under both wire protocols
// (server framing, dist transport). The properties under test are the ones
// the framing layers lean on: read_exact distinguishes clean EOF (false)
// from mid-message truncation (throw); write_exact surfaces a vanished peer
// as a thrown EPIPE instead of SIGPIPE; full-length transfers reassemble
// arbitrary kernel-side slicings; a stale socket file is replaced at bind.
#include "support/net.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace spar::support::net {
namespace {

std::string scratch_path(const std::string& tag) {
  return "/tmp/spar_net_test." + tag + "." + std::to_string(::getpid());
}

TEST(Net, UnixRoundTrip) {
  const std::string path = scratch_path("roundtrip");
  Listener listener = Listener::unix_domain(path);
  ASSERT_TRUE(listener.valid());
  EXPECT_EQ(listener.path(), path);

  std::thread client([&] {
    Socket s = connect_unix(path);
    const std::uint64_t hello = 0xabcdef;
    s.write_exact(&hello, sizeof(hello));
    std::uint64_t echo = 0;
    ASSERT_TRUE(s.read_exact(&echo, sizeof(echo)));
    EXPECT_EQ(echo, hello + 1);
  });

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  std::uint64_t got = 0;
  ASSERT_TRUE(conn.read_exact(&got, sizeof(got)));
  EXPECT_EQ(got, 0xabcdefu);
  const std::uint64_t reply = got + 1;
  conn.write_exact(&reply, sizeof(reply));
  client.join();
}

TEST(Net, ReadExactReturnsFalseOnCleanEof) {
  const std::string path = scratch_path("eof");
  Listener listener = Listener::unix_domain(path);
  std::thread client([&] {
    Socket s = connect_unix(path);
    // Close without writing: the server must see a clean EOF.
  });
  Socket conn = listener.accept();
  client.join();
  std::uint64_t word = 0;
  EXPECT_FALSE(conn.read_exact(&word, sizeof(word)));
}

TEST(Net, ReadExactThrowsOnEofMidMessage) {
  const std::string path = scratch_path("truncated");
  Listener listener = Listener::unix_domain(path);
  std::thread client([&] {
    Socket s = connect_unix(path);
    const char partial[3] = {1, 2, 3};
    s.write_exact(partial, sizeof(partial));
    // Close mid-message: 3 bytes of an 8-byte read is a protocol violation.
  });
  Socket conn = listener.accept();
  client.join();
  std::uint64_t word = 0;
  EXPECT_THROW(conn.read_exact(&word, sizeof(word)), Error);
}

TEST(Net, WriteExactThrowsEpipeInsteadOfSigpipe) {
  const std::string path = scratch_path("epipe");
  Listener listener = Listener::unix_domain(path);
  Socket client = connect_unix(path);
  {
    Socket conn = listener.accept();
    ASSERT_TRUE(conn.valid());
    // Server side dropped here; the client's fd now points at a dead peer.
  }
  // The first writes may land in the (now orphaned) buffer; keep pushing
  // until the kernel reports the broken pipe. If SIGPIPE were not
  // suppressed this loop would kill the whole test process instead.
  const std::vector<char> chunk(1 << 16, 'x');
  EXPECT_THROW(
      {
        for (int i = 0; i < 1024; ++i)
          client.write_exact(chunk.data(), chunk.size());
      },
      Error);
}

TEST(Net, LargeTransferReassemblesPartialReads) {
  const std::string path = scratch_path("partial");
  Listener listener = Listener::unix_domain(path);
  // Big enough that the kernel must split it across many short reads and
  // short writes (well past any socket buffer size).
  std::vector<std::uint8_t> payload(8 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);

  std::thread client([&] {
    Socket s = connect_unix(path);
    s.write_exact(payload.data(), payload.size());
  });
  Socket conn = listener.accept();
  std::vector<std::uint8_t> got(payload.size(), 0);
  ASSERT_TRUE(conn.read_exact(got.data(), got.size()));
  client.join();
  EXPECT_EQ(got, payload);
}

TEST(Net, ShutdownUnblocksAccept) {
  const std::string path = scratch_path("shutdown");
  Listener listener = Listener::unix_domain(path);
  std::thread waiter([&] {
    Socket conn = listener.accept();
    EXPECT_FALSE(conn.valid());
  });
  // Give the waiter a moment to park in accept(), then wake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.shutdown();
  waiter.join();
}

TEST(Net, StaleUnixSocketFileIsReplaced) {
  const std::string path = scratch_path("stale");
  { Listener first = Listener::unix_domain(path); }
  // The destructor unlinks; even if it had not, a rebind must replace the
  // stale file rather than fail with EADDRINUSE.
  Listener second = Listener::unix_domain(path);
  std::thread client([&] { Socket s = connect_unix(path); });
  Socket conn = second.accept();
  EXPECT_TRUE(conn.valid());
  client.join();
}

}  // namespace
}  // namespace spar::support::net
