#include "serve/net.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace psdacc::serve {
namespace {

#ifdef MSG_MORE
constexpr int kMoreFlag = MSG_MORE;
#else
constexpr int kMoreFlag = 0;
#endif

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Socket::read_exact(void* buf, std::size_t n) const {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const long got = read_some(p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

long Socket::read_some(void* buf, std::size_t n) const {
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, n, 0);
    if (got >= 0) return static_cast<long>(got);
    if (errno != EINTR) return -1;
  }
}

bool Socket::write_all(const void* buf, std::size_t n, bool more) const {
  const int flags = MSG_NOSIGNAL | (more ? kMoreFlag : 0);
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd_, p, n, flags);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// Best effort: a socket without it still works, only slower.
void set_no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

ListenSocket::ListenSocket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sock_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0)
    throw_errno("bind 127.0.0.1");
  if (::listen(fd, SOMAXCONN) < 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    throw_errno("getsockname");
  port_ = ntohs(addr.sin_port);
}

Socket ListenSocket::accept_connection() const {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_no_delay(fd);
      return Socket(fd);
    }
    if (errno != EINTR) return Socket();  // shut down or fatal
  }
}

Socket connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock(fd);
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0)
    throw_errno("connect 127.0.0.1");
  set_no_delay(fd);
  return sock;
}

}  // namespace psdacc::serve
