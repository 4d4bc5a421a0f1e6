// Hardened UNIX-domain stream-socket substrate shared by the solver service
// (src/server) and the sharded distributed runtime (src/dist).
//
// Extracted from src/server/socket.* once the distributed layer needed the
// same primitives: ONE audited implementation of full-length transfers,
// SIGPIPE immunity and RAII fd ownership instead of drifting copies. Both
// consumers are single-host (a local daemon sharing chains between
// processes; a shard mesh of processes on one machine), so the only address
// family is AF_UNIX: no network stack, no address configuration, file
// permissions as access control.
//
// The transfer discipline is what the framed wire protocols need:
//
//  * read_exact / write_exact - full-length transfers with EINTR retry
//    (short reads/writes are normal on stream sockets; the framing layers
//    must never see them)
//  * write_exact sends with MSG_NOSIGNAL - a vanished peer surfaces as a
//    thrown EPIPE, not SIGPIPE killing the process
//  * shutdown_rw - wake a thread parked in read_exact from another thread
//    without racing the fd's lifetime
//
// Nothing here knows about frames or messages; see src/server/protocol.hpp
// and src/dist/transport.hpp for the two framing layers on top.
#pragma once

#include <cstddef>
#include <string>

namespace spar::support::net {

/// One connected UNIX-domain stream socket (client side or an accepted
/// server-side connection). Move-only; closes the fd on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads exactly `len` bytes, retrying on EINTR and short reads. Returns
  /// false on clean EOF before the first byte; throws spar::Error on I/O
  /// errors or EOF mid-message (a truncated frame is a protocol violation,
  /// not a clean shutdown).
  bool read_exact(void* data, std::size_t len) const;

  /// Writes exactly `len` bytes, retrying on EINTR and short writes.
  /// Sends with MSG_NOSIGNAL: a closed peer throws spar::Error (EPIPE)
  /// instead of raising SIGPIPE against the whole process.
  void write_exact(const void* data, std::size_t len) const;

  /// Half-closes both directions without releasing the fd: a thread blocked
  /// in read_exact sees EOF and unwinds while the owner still holds the
  /// Socket. Safe to call from another thread; idempotent.
  void shutdown_rw() const;

  void close();

 private:
  int fd_ = -1;
};

/// A listening stream socket bound to a filesystem path (AF_UNIX). Unlinks
/// any stale socket file at bind time and removes its own on destruction.
class Listener {
 public:
  /// Listen on a UNIX-domain socket at `path` (replacing a stale file).
  static Listener unix_domain(const std::string& path, int backlog = 64);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks until a client connects; returns the accepted connection.
  /// Returns an invalid Socket if the listener was shut down concurrently.
  Socket accept() const;

  /// Wakes any blocked accept(), now or later (idempotent; safe while another
  /// thread is inside accept()). The fd itself closes with the Listener.
  void shutdown();

  bool valid() const { return fd_ >= 0; }

  /// Bound socket path.
  const std::string& path() const { return path_; }

 private:
  Listener() = default;

  int fd_ = -1;
  std::string path_;
};

/// Connects to a listening UNIX socket at `path`. Throws spar::Error if the
/// server is not there.
Socket connect_unix(const std::string& path);

}  // namespace spar::support::net
