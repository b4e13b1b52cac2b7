#pragma once

#include <string>

namespace fact::serve {

/// Thin POSIX socket helpers for the factd line protocol. Every request
/// and every response is one line of JSON terminated by '\n'; these
/// helpers own only the byte transport, never the protocol.

/// Creates, binds and listens on a unix-domain socket at `path`; an
/// existing socket file at `path` is unlinked first. Throws fact::Error.
int listen_unix(const std::string& path);

/// Creates, binds and listens on a TCP socket (SO_REUSEADDR set).
/// `port` 0 binds an ephemeral port — read it back with bound_tcp_port.
/// Throws fact::Error.
int listen_tcp(const std::string& host, int port);

/// The local port a listening TCP socket is bound to.
int bound_tcp_port(int fd);

/// Accepts one connection; returns -1 when the listening socket is closed
/// or shut down (never throws — the accept loop treats -1 as "stop").
int accept_fd(int listen_fd);

int connect_unix(const std::string& path);        // throws fact::Error
int connect_tcp(const std::string& host, int port);  // throws fact::Error

void close_fd(int fd);
/// Half-closes both directions, unblocking any reader on the fd.
void shutdown_fd(int fd);

/// Writes `line` plus a trailing '\n'; retries on partial writes and
/// EINTR. Returns false on a closed/broken peer (never raises SIGPIPE).
bool send_line(int fd, const std::string& line);

/// Buffered line reader over one socket fd.
class LineReader {
 public:
  /// `max_line` bounds a single line: a peer streaming an endless line
  /// gets an error instead of growing our buffer without bound.
  explicit LineReader(int fd, size_t max_line = 8u << 20);

  /// Reads the next '\n'-terminated line (terminator stripped) into
  /// `line`. Returns false on EOF or connection error; throws fact::Error
  /// only when a line exceeds max_line.
  bool next(std::string& line);

 private:
  int fd_;
  size_t max_line_;
  std::string buf_;
  size_t start_ = 0;
  bool eof_ = false;
};

}  // namespace fact::serve
