#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony::net {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  HARMONY_REQUIRE(inet_pton(AF_INET, address.c_str(), &addr.sin_addr) == 1,
                  "not an IPv4 address: " + address);
  return addr;
}

}  // namespace

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) reset(other.release());
  return *this;
}

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listen_tcp(const std::string& address, std::uint16_t port, int backlog,
              std::uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw Error(errno_text("socket"));
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(address, port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw Error(errno_text("bind " + address + ":" + std::to_string(port)));
  }
  if (::listen(fd.get(), backlog) != 0) throw Error(errno_text("listen"));
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throw Error(errno_text("getsockname"));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Fd connect_tcp(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw Error(errno_text("socket"));
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw Error(errno_text("connect " + host + ":" + std::to_string(port)));
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  HARMONY_REQUIRE(colon != std::string::npos && colon > 0 &&
                      colon + 1 < spec.size(),
                  "expected host:port, got '" + spec + "'");
  host = spec.substr(0, colon);
  const long p = parse_long(spec.substr(colon + 1));
  HARMONY_REQUIRE(p > 0 && p <= 65535, "port out of range: " + spec);
  port = static_cast<std::uint16_t>(p);
}

}  // namespace harmony::net
