/// @file net.hpp
/// Minimal POSIX TCP wrappers for the serving layer: RAII sockets bound to
/// the IPv4 loopback, exact-length reads/writes, and a listener that can be
/// unblocked for shutdown. Every connected socket (accepted or dialed) has
/// TCP_NODELAY set: replies are small frames, and Nagle's algorithm would
/// hold each one until the peer's delayed ACK (40 ms on Linux).
/// Loopback-only on purpose — psdacc-serve is a local evaluation daemon,
/// not an internet-facing service; anything remote belongs behind a
/// reverse proxy that owns auth and TLS.
#pragma once

#include <cstddef>
#include <cstdint>

namespace psdacc::serve {

/// RAII connected-socket file descriptor. Movable; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close();
  /// Half-closes both directions without releasing the fd: a peer (or
  /// another thread of this process) blocked in read/accept on it wakes
  /// up. Safe to call while another thread uses the socket — the fd stays
  /// allocated until close(), so it cannot be recycled under that thread.
  void shutdown() const;

  /// Reads exactly @p n bytes. False on EOF or error before @p n bytes
  /// arrived (EINTR retried).
  bool read_exact(void* buf, std::size_t n) const;
  /// Reads up to @p n bytes once; returns the count, 0 on EOF, -1 on
  /// error. The form the truncated-frame path uses to distinguish "clean
  /// EOF at a frame boundary" from "EOF inside a frame".
  long read_some(void* buf, std::size_t n) const;
  /// Writes all @p n bytes. False on error; SIGPIPE is suppressed
  /// (MSG_NOSIGNAL), so a vanished client surfaces as a failed write, not
  /// a process signal. @p more tells the kernel that more bytes follow
  /// shortly (MSG_MORE, where defined): it may hold them — for at most its
  /// cork ceiling, about 200 ms — and send them in one segment with the
  /// next write made without the hint.
  bool write_all(const void* buf, std::size_t n, bool more = false) const;

 private:
  int fd_ = -1;
};

/// Listening socket on 127.0.0.1:@p port (0 = kernel-assigned ephemeral
/// port, reported by port()). Throws std::runtime_error on bind failure.
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port);

  std::uint16_t port() const { return port_; }
  /// Blocks for the next connection; returns an invalid Socket once
  /// shutdown() was called (or on a non-retryable accept error).
  Socket accept_connection() const;
  /// Unblocks accept_connection() for shutdown.
  void shutdown() const { sock_.shutdown(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:@p port. Throws std::runtime_error on failure.
Socket connect_local(std::uint16_t port);

}  // namespace psdacc::serve
