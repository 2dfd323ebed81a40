// Thin RAII layer over BSD sockets for the serving front end: a move-only
// descriptor owner plus the operations the service and its clients need
// (nonblocking listener, blocking connect, host:port parsing). IPv4
// only — the deployment story is loopback/LAN serving, not dual-stack edge
// termination.
#pragma once

#include <cstdint>
#include <string>

namespace harmony::net {

/// Move-only owner of a file descriptor; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd();
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Nonblocking listening socket bound to address:port (SO_REUSEADDR set).
/// Port 0 binds an ephemeral port; `bound_port` (when non-null) receives
/// the actual one. Throws harmony::Error on failure.
[[nodiscard]] Fd listen_tcp(const std::string& address, std::uint16_t port,
                            int backlog, std::uint16_t* bound_port = nullptr);

/// Blocking connect to host:port with TCP_NODELAY set (the protocol is
/// strict request/response — Nagle would serialize it against delayed ACK).
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port);

/// Splits "host:port"; throws harmony::Error on a malformed spec.
void parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port);

}  // namespace harmony::net
