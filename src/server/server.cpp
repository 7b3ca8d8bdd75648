#include "server/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace qsmt::server {

namespace {

/// Non-destructive connection liveness probe: peek one byte without
/// blocking. 0 = orderly shutdown (client gone); EAGAIN = idle but alive;
/// pending data = alive.
bool socket_alive(int fd) {
  char probe;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n > 0) return true;
  if (n == 0) return false;
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t default_inflight(const service::SolveService& service,
                             std::size_t configured) {
  if (configured != 0) return configured;
  return service.num_workers() > 0 ? service.num_workers() : 1;
}

}  // namespace

/// Book-keeping for one live socket connection, shared between its handler
/// thread and shutdown() so either side can sever it.
struct Server::Connection {
  int fd = -1;
  std::shared_ptr<Session> session;
  std::atomic<bool> closed{false};

  /// Forces recv() on the handler thread to return so it exits cleanly.
  void sever() {
    if (!closed.exchange(true)) ::shutdown(fd, SHUT_RDWR);
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      gate_(default_inflight(service_, options_.max_inflight),
            options_.max_waiting) {}

Server::~Server() { shutdown(); }

void Server::count_session(telemetry::Tally& event) {
  static const auto active = telemetry::gauge("server.sessions.active");
  event.add();
  // Closed first: every close follows its open, so the difference never
  // goes negative.
  const std::uint64_t closed = sessions_closed_.value();
  active.set(static_cast<double>(sessions_opened_.value() - closed));
}

SessionOptions Server::session_options(std::uint64_t tenant) const {
  SessionOptions session;
  session.deadline = options_.check_sat_deadline;
  session.seed = options_.seed + tenant;
  session.tenant = tenant;
  return session;
}

int Server::run_stdio(std::istream& in, std::ostream& out) {
  const std::uint64_t tenant = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_tenant_++;
  }();
  count_session(sessions_opened_);
  Session session(service_, &gate_, session_options(tenant));
  std::string line;
  while (std::getline(in, line)) {
    line += '\n';
    const std::string reply = session.consume(line);
    if (!reply.empty()) out << reply << std::flush;
    if (session.exited()) break;
  }
  const std::string tail = session.finish();
  if (!tail.empty()) out << tail << std::flush;
  session.disconnect();
  count_session(sessions_closed_);
  return 0;
}

std::uint16_t Server::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("qsmt-server: socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error(std::string("qsmt-server: bind() failed: ") +
                             std::strerror(errno));
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    throw std::runtime_error("qsmt-server: listen() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw std::runtime_error("qsmt-server: getsockname() failed");
  }
  listen_fd_.store(fd, std::memory_order_release);
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  return port_.load(std::memory_order_acquire);
}

void Server::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (shutdown) or fatal error.
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const std::uint64_t tenant = next_tenant_++;
    threads_.emplace_back(
        [this, fd, tenant] { handle_connection(fd, tenant); });
  }
}

void Server::start() {
  accept_thread_ = std::thread([this] { serve(); });
}

void Server::handle_connection(int fd, std::uint64_t tenant) {
  count_session(sessions_opened_);
  auto connection = std::make_shared<Connection>();
  connection->fd = fd;
  SessionOptions session_opts = session_options(tenant);
  session_opts.alive = [fd] { return socket_alive(fd); };
  connection->session =
      std::make_shared<Session>(service_, &gate_, session_opts);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.push_back(connection);
  }

  Session& session = *connection->session;
  FrameDecoder decoder(options_.max_frame_bytes);
  char buffer[4096];
  bool client_gone = false;
  while (!connection->closed.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      client_gone = true;
      break;
    }
    decoder.feed({buffer, static_cast<std::size_t>(n)});
    bool exited = false;
    while (auto payload = decoder.next()) {
      frames_.add();
      // Exactly one reply frame per request frame (possibly empty), so
      // clients can pair replies to requests positionally.
      const std::string reply = session.consume(*payload);
      if (!send_all(fd, encode_frame(reply))) {
        client_gone = true;
        break;
      }
      if (session.exited()) {
        exited = true;
        break;
      }
    }
    if (client_gone || exited) break;
    if (decoder.error() != FrameError::kNone) {
      frame_errors_.add();
      send_all(fd, encode_frame(error_reply(
                       decoder.error() == FrameError::kBadMagic
                           ? "protocol error: bad frame magic"
                           : "protocol error: frame exceeds size limit")));
      break;
    }
  }
  // A vanished client cancels its in-flight work (exactly once — the
  // liveness probe inside check-sat may already have done it).
  if (client_gone) session.disconnect();
  connection->sever();
  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  // Before the close counts, so a reader that sees the session closed sees
  // its cancellations too.
  disconnect_cancels_ += session.stats().disconnect_cancels;
  count_session(sessions_closed_);
  connections_.erase(
      std::find(connections_.begin(), connections_.end(), connection));
}

void Server::shutdown() {
  if (stopping_.exchange(true)) {
    // Second call: threads may still be joining on the first; nothing to do.
  }
  // Wake a blocked accept() first and let the accept loop finish before the
  // descriptor is closed and reset: the loop reads it until it exits.
  const int listener = listen_fd_.load(std::memory_order_acquire);
  if (listener >= 0) ::shutdown(listener, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
      fd >= 0) {
    ::close(fd);
  }
  // Sever every live connection: recv unblocks, handlers disconnect their
  // sessions (cancelling in-flight jobs) and drain out.
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = connections_;
  }
  for (const auto& connection : live) {
    connection->session->disconnect();
    connection->sever();
  }
  gate_.close();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.sessions_opened = sessions_opened_.value();
  stats.sessions_closed = sessions_closed_.value();
  stats.frames = frames_.value();
  stats.frame_errors = frame_errors_.value();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.disconnect_cancels = disconnect_cancels_;
  return stats;
}

}  // namespace qsmt::server
