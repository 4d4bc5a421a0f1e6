#include "support/net.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace spar::support::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw spar::Error(what + ": " + std::strerror(errno));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw spar::Error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::read_exact(void* data, std::size_t len) const {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = ::read(fd_, p + got, len - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw spar::Error("socket: EOF mid-message (truncated frame)");
    }
    if (errno == EINTR) continue;
    fail("socket read");
  }
  return true;
}

void Socket::write_exact(const void* data, std::size_t len) const {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE
    // (caught and logged per connection), not SIGPIPE killing the process.
    const ssize_t w = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    fail("socket write");
  }
}

void Socket::shutdown_rw() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Listener Listener::unix_domain(const std::string& path, int backlog) {
  Listener l;
  l.path_ = path;
  l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (l.fd_ < 0) fail("socket");
  ::unlink(path.c_str());  // remove a stale socket file from a dead server
  const sockaddr_un addr = make_unix_addr(path);
  if (::bind(l.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("bind " + path);
  if (::listen(l.fd_, backlog) != 0) fail("listen " + path);
  return l;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    if (!path_.empty()) ::unlink(path_.c_str());
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

Socket Listener::accept() const {
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Socket(client);
    if (errno == EINTR) continue;
    return Socket();  // listener closed (shutdown) or fatal: caller stops
  }
}

void Listener::shutdown() {
  // Only reads fd_, so it may race a blocked accept() on another thread; the
  // fd is closed by the destructor.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Socket connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  const sockaddr_un addr = make_unix_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + path);
  }
  return Socket(fd);
}

}  // namespace spar::support::net
