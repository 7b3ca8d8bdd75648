// qsmt-server: the network-facing daemon over the solve service.
//
// One Server owns one service::SolveService worker pool, one AdmissionGate,
// and any number of concurrent client sessions over two transports:
//
//  * run_stdio — a single blocking session speaking raw SMT-LIB text on an
//    istream/ostream pair (the classic ESBMC-style solver-subprocess mode);
//  * listen + serve — a localhost TCP listener speaking the length-prefixed
//    frame protocol (server/protocol.hpp), one thread per connection.
//
// Everything that makes the solver fast is shared across tenants because
// it lives in the one service: the worker pool, the prepared-model cache,
// and any portfolio member's graph::EmbeddingCache. The gate keeps them
// honest: admission is FIFO over sessions (round-robin, since each session
// has at most one outstanding check-sat) with immediate, polite rejection
// when the line is full.
//
// Telemetry: server.sessions.opened/closed, server.sessions.active,
// server.commands, server.checksat.seconds, server.queue.depth,
// server.admission.rejects, server.disconnect.cancelled, server.frames,
// server.frame.errors (docs/telemetry.md has the catalog).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "route/router.hpp"
#include "server/admission.hpp"
#include "server/session.hpp"
#include "service/service.hpp"

namespace qsmt::server {

struct ServerOptions {
  /// Worker pool / portfolio / cache configuration, shared by all tenants.
  service::ServiceOptions service;
  /// Concurrently admitted check-sats (0 = one per pool worker).
  std::size_t max_inflight = 0;
  /// Sessions allowed to wait in line before overload rejection kicks in.
  std::size_t max_waiting = 64;
  /// Per-check-sat deadline applied to every session (0 = none beyond the
  /// service default).
  std::chrono::nanoseconds check_sat_deadline{0};
  /// Socket frame payload ceiling; larger announcements are rejected from
  /// the header alone.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Base seed; sessions derive per-tenant streams from it.
  std::uint64_t seed = 0;
  /// When set, every tenant gets its OWN lazily-created adaptive router
  /// (route::Router over the shared portfolio, with these options) that
  /// its sessions consult and train — divergent workload mixes learn
  /// divergent dispatch without cross-tenant leakage, while the model and
  /// embedding caches stay shared. Unset (default) leaves routing to
  /// ServiceOptions::router (shared table) or off entirely.
  std::optional<route::RouterOptions> tenant_routing;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Shuts down: closes the listener and every live connection, joins all
  /// threads, then joins the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one blocking stdio session; returns when the client sends
  /// (exit) or closes the stream. Replies flush after every completed
  /// command. Returns 0 (reserved for future error exit codes).
  int run_stdio(std::istream& in, std::ostream& out);

  /// Binds a listening socket on 127.0.0.1 (`port` 0 = ephemeral) and
  /// returns the bound port. Throws std::runtime_error on failure.
  std::uint16_t listen(std::uint16_t port = 0);

  /// Accept loop (blocking); returns after shutdown(). Call listen first.
  void serve();

  /// serve() on an internal thread; returns immediately.
  void start();

  /// Stops accepting, disconnects every session, unblocks waiters, joins
  /// all server threads. Idempotent.
  void shutdown();

  /// Port bound by listen() (0 before).
  std::uint16_t port() const noexcept { return port_; }

  /// The shared pool (stats inspection: cache hits, timeouts, ...).
  service::SolveService& service() noexcept { return service_; }

  /// The shared admission gate (stats inspection).
  AdmissionGate& gate() noexcept { return gate_; }

  /// The tenant's adaptive router, created on first use when
  /// ServerOptions::tenant_routing is set (null otherwise). Exposed so
  /// tests and operators can inspect — or snapshot/restore — each
  /// tenant's learned dispatch table.
  std::shared_ptr<route::Router> tenant_router(std::uint64_t tenant) const;

  /// Whole-server counters.
  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t frames = 0;
    std::uint64_t frame_errors = 0;
    std::uint64_t disconnect_cancels = 0;
  };
  Stats stats() const;

 private:
  struct Connection;

  void handle_connection(int fd, std::uint64_t tenant);
  SessionOptions session_options(std::uint64_t tenant) const;

  ServerOptions options_;
  service::SolveService service_;
  AdmissionGate gate_;

  std::atomic<std::uint16_t> port_{0};
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  /// Per-tenant router tables (guarded by mutex_; values are shared_ptr so
  /// sessions keep theirs alive across map growth).
  mutable std::map<std::uint64_t, std::shared_ptr<route::Router>>
      tenant_routers_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;
  std::thread accept_thread_;
  std::uint64_t next_tenant_ = 0;

  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> disconnect_cancels_{0};
};

}  // namespace qsmt::server
