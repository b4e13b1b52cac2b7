#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace fact::serve {

/// Where factd listens. At least one of unix_path / tcp_port must be set.
struct ServerOptions {
  std::string unix_path;  // "" = no unix-domain listener
  int tcp_port = -1;      // <0 = no TCP listener; 0 = ephemeral port
  std::string tcp_host = "127.0.0.1";
};

/// The factd socket front end: an accept loop per listener and, per
/// connection, a reader thread plus a writer thread.
///
/// The reader parses one JSON request per line. `status`, `cancel` and
/// `shutdown` take effect immediately on the reader thread; `optimize`,
/// `schedule` and `profile` are submitted to the Service. Every response —
/// immediate or job-backed — rides the connection's writer queue, so each
/// client receives exactly one response line per request line, in request
/// order, no matter how requests interleave on the service. Pipelined
/// requests from one connection therefore run concurrently on the service
/// while their responses still come back in order.
class Server {
 public:
  /// Binds and listens (throws fact::Error on bind failure).
  Server(Service& service, const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until a `shutdown` request arrives or stop() is called from
  /// another thread, then tears everything down: listeners closed, all
  /// connections unblocked and joined. The service itself is stopped too
  /// (queued jobs fail with "server shutting down").
  void run();

  /// Signals run() to return; safe from any thread, idempotent.
  void stop();

  /// The actual TCP port (resolves an ephemeral request), or -1.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return unix_path_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
  };

  void accept_loop(int listen_fd);
  void serve_connection(std::shared_ptr<Connection> conn);

  Service& service_;
  std::string unix_path_;
  int tcp_port_ = -1;
  std::vector<int> listen_fds_;
  std::vector<std::thread> acceptors_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
  bool torn_down_ = false;
  std::list<std::shared_ptr<Connection>> conns_;
};

}  // namespace fact::serve
