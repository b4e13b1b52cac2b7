#include "serve/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/error.hpp"

namespace fact::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw Error("unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(unix)");
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("bind " + path);
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("listen " + path);
  }
  return fd;
}

int listen_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw Error("bad listen address: " + host);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(tcp)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("listen " + host + ":" + std::to_string(port));
  }
  return fd;
}

int bound_tcp_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    sys_fail("getsockname");
  return ntohs(addr.sin_port);
}

int accept_fd(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;  // listener closed or shut down: the accept loop exits
  }
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw Error("unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(unix)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("connect " + path);
  }
  return fd;
}

int connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw Error("bad connect address: " + host);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(tcp)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

bool send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a failed send, not a
    // process-killing SIGPIPE.
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

LineReader::LineReader(int fd, size_t max_line)
    : fd_(fd), max_line_(max_line) {}

bool LineReader::next(std::string& line) {
  for (;;) {
    const size_t nl = buf_.find('\n', start_);
    if (nl != std::string::npos) {
      if (nl - start_ > max_line_)
        throw Error("line exceeds " + std::to_string(max_line_) + " bytes");
      line.assign(buf_, start_, nl - start_);
      start_ = nl + 1;
      if (start_ == buf_.size()) {
        buf_.clear();
        start_ = 0;
      }
      return true;
    }
    if (buf_.size() - start_ > max_line_)
      throw Error("line exceeds " + std::to_string(max_line_) + " bytes");
    if (eof_) return false;
    if (start_ > 0) {
      buf_.erase(0, start_);
      start_ = 0;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      eof_ = true;
      return false;
    }
    if (n == 0) {
      // EOF; an unterminated trailing fragment is not a line.
      eof_ = true;
      continue;
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace fact::serve
