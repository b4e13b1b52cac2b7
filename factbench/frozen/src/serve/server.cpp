#include "serve/server.hpp"

#include <unistd.h>

#include <deque>

#include "serve/net.hpp"
#include "util/error.hpp"

namespace fact::serve {

Server::Server(Service& service, const ServerOptions& opts)
    : service_(service) {
  if (opts.unix_path.empty() && opts.tcp_port < 0)
    throw Error("factd needs a unix socket path or a TCP port to listen on");
  if (!opts.unix_path.empty()) {
    listen_fds_.push_back(listen_unix(opts.unix_path));
    unix_path_ = opts.unix_path;
  }
  if (opts.tcp_port >= 0) {
    const int fd = listen_tcp(opts.tcp_host, opts.tcp_port);
    listen_fds_.push_back(fd);
    tcp_port_ = bound_tcp_port(fd);
  }
}

Server::~Server() {
  stop();
  run();  // no-op teardown if run() already completed
  for (const int fd : listen_fds_) close_fd(fd);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Server::run() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!torn_down_ && acceptors_.empty() && !shutdown_) {
      for (const int fd : listen_fds_)
        acceptors_.emplace_back([this, fd] { accept_loop(fd); });
    }
    shutdown_cv_.wait(lk, [&] { return shutdown_; });
    if (torn_down_) return;
    torn_down_ = true;
  }

  // Teardown order matters:
  //  1. listeners down — no new connections;
  //  2. service down — queued jobs fail fast, in-flight jobs get cancelled,
  //     so every outstanding ticket completes promptly;
  //  3. connection fds shut down — readers see EOF, writers drain their
  //     (now all-completed) tickets and exit;
  //  4. join.
  for (const int fd : listen_fds_) shutdown_fd(fd);
  service_.stop();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& conn : conns_) shutdown_fd(conn->fd);
  }
  for (auto& t : acceptors_)
    if (t.joinable()) t.join();
  std::list<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = accept_fd(listen_fd);
    if (fd < 0) return;  // listener shut down
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) {
      close_fd(fd);
      return;
    }
    // Registered and started under one lock: teardown either sees the
    // connection with its thread, or never sees it at all.
    conns_.push_back(conn);
    conn->reader = std::thread([this, conn] { serve_connection(conn); });
  }
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
  const int fd = conn->fd;

  // Writer side: tickets queued in request order; one response line each.
  std::mutex wq_mu;
  std::condition_variable wq_cv;
  std::deque<Ticket> wq;
  bool wq_closed = false;

  std::thread writer([&] {
    for (;;) {
      Ticket t;
      {
        std::unique_lock<std::mutex> lk(wq_mu);
        wq_cv.wait(lk, [&] { return wq_closed || !wq.empty(); });
        if (wq.empty()) return;
        t = std::move(wq.front());
        wq.pop_front();
      }
      // wait() returns promptly even at shutdown: Service::stop completes
      // every ticket. A failed send just drains the rest unsent.
      send_line(fd, t.wait().dump());
    }
  });
  auto enqueue = [&](Ticket t) {
    {
      std::lock_guard<std::mutex> lk(wq_mu);
      wq.push_back(std::move(t));
    }
    wq_cv.notify_one();
  };
  auto enqueue_immediate = [&](const Json& req, Json resp) {
    // Wrap a ready response as a pre-completed ticket so it stays ordered
    // with the job-backed ones.
    auto state = std::make_shared<JobState>(0, req);
    state->complete(std::move(resp));
    enqueue(Ticket(std::move(state)));
  };

  // Reader side: this thread. Client request ids map to service tickets so
  // `cancel` can target an earlier request on the same connection.
  std::map<int64_t, uint64_t> id_to_ticket;
  LineReader reader(fd);
  std::string line;
  bool shutdown_requested = false;
  while (!shutdown_requested) {
    try {
      if (!reader.next(line)) break;
    } catch (const Error& e) {
      // Oversized line: protocol violation, drop the connection.
      Json r = Json::object();
      r.set("ok", false);
      r.set("error", e.what());
      enqueue_immediate(Json::object(), std::move(r));
      break;
    }
    if (line.empty()) continue;
    Json req;
    try {
      req = Json::parse(line);
      if (!req.is_object()) throw Error("request must be a JSON object");
    } catch (const Error& e) {
      Json r = Json::object();
      r.set("ok", false);
      r.set("error", e.what());
      enqueue_immediate(Json::object(), std::move(r));
      continue;
    }

    const std::string type = req.get_string("type");
    if (type == "status") {
      Json resp = service_.status_response();
      if (const Json* id = req.get("id")) resp.set("id", *id);
      enqueue_immediate(req, std::move(resp));
    } else if (type == "stats") {
      Json resp = service_.stats_response();
      if (const Json* id = req.get("id")) resp.set("id", *id);
      enqueue_immediate(req, std::move(resp));
    } else if (type == "metrics") {
      // Prometheus text rides inside the normal JSON line protocol; the
      // client (factcli --metrics) unwraps `body` for scraping.
      Json resp = Json::object();
      resp.set("ok", true);
      if (const Json* id = req.get("id")) resp.set("id", *id);
      resp.set("type", "metrics");
      resp.set("content_type", "text/plain; version=0.0.4");
      resp.set("body", service_.metrics_text());
      enqueue_immediate(req, std::move(resp));
    } else if (type == "cancel") {
      Json resp = Json::object();
      const Json* target = req.get("target");
      if (!target || !target->is_number()) {
        resp.set("ok", false);
        if (const Json* id = req.get("id")) resp.set("id", *id);
        resp.set("type", "cancel");
        resp.set("error", "cancel needs a numeric 'target' request id");
      } else {
        const auto it = id_to_ticket.find(target->as_int());
        const bool hit =
            it != id_to_ticket.end() && service_.cancel(it->second);
        resp.set("ok", true);
        if (const Json* id = req.get("id")) resp.set("id", *id);
        resp.set("type", "cancel");
        resp.set("target", *target);
        resp.set("cancelled", hit);
      }
      enqueue_immediate(req, std::move(resp));
    } else if (type == "shutdown") {
      Json resp = Json::object();
      resp.set("ok", true);
      if (const Json* id = req.get("id")) resp.set("id", *id);
      resp.set("type", "shutdown");
      enqueue_immediate(req, std::move(resp));
      shutdown_requested = true;
    } else {
      Ticket t = service_.submit(req);
      if (const Json* id = req.get("id"))
        if (id->is_number()) id_to_ticket[id->as_int()] = t.id();
      enqueue(std::move(t));
    }
  }

  {
    std::lock_guard<std::mutex> lk(wq_mu);
    wq_closed = true;
  }
  wq_cv.notify_all();
  writer.join();

  {
    std::lock_guard<std::mutex> lk(mu_);
    conn->fd = -1;  // teardown must not shutdown a recycled fd number
  }
  close_fd(fd);
  if (shutdown_requested) stop();
}

}  // namespace fact::serve
