// One client's SMT-LIB session against the shared solve service.
//
// A Session owns the incremental command scanner plus the full SmtDriver
// assertion context (declarations, assertions, push/pop frames, last
// verdict) for one connection, and overrides only the check-sat strategy:
// the deterministic presolve tree (falsified ground fact, unsupported atom,
// empty query, exact unsat certificate) answers locally and instantly, and
// anything that genuinely needs a sampler is dispatched to the shared
// service::SolveService worker pool. The compiled conjuncts are submitted
// as one conjunction job, so sibling sessions' structurally identical
// queries share the service's answer cache (and, for a single conjunct,
// its prepared-model cache), and the session's last sat model seeds the
// job's warm start. Every other command (push/pop, get-model, get-value,
// echo, reset, ...) inherits the in-process driver's semantics verbatim —
// that is what makes the server's replies bit-compatible with SmtDriver.
//
// Multi-tenancy hooks: an optional AdmissionGate bounds concurrent
// check-sats fairly across sessions (overload answers with an (error ...)
// reply instead of queueing without bound), a per-check-sat deadline rides
// the service's CancelToken plumbing, and disconnect() cancels the
// in-flight job exactly once so a vanished client returns its workers to
// the pool within one sweep.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "server/protocol.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt::server {

class AdmissionGate;

struct SessionOptions {
  /// Deadline for each dispatched check-sat (0 = the service default).
  std::chrono::nanoseconds deadline{0};
  /// Base seed; successive check-sats derive independent streams from it.
  std::uint64_t seed = 0;
  /// Tenant id echoed as the job tag (telemetry, fairness audits).
  std::uint64_t tenant = 0;
  /// Liveness probe polled while a check-sat is in flight (the socket
  /// transport peeks the connection). Returning false triggers the same
  /// exactly-once cancellation as disconnect().
  std::function<bool()> alive;
};

class Session {
 public:
  /// `service` (and `gate`, when given) must outlive the session.
  Session(service::SolveService& service, SessionOptions options = {});
  Session(service::SolveService& service, AdmissionGate* gate,
          SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds raw SMT-LIB text (any fragmentation), executes every command
  /// that is now complete, and returns the accumulated reply text. Command
  /// errors (parse failures, duplicate declarations, overload rejections)
  /// become (error "...") lines; the session survives them. Malformed
  /// top-level input (a stray ')') discards the current buffer with an
  /// error reply.
  std::string consume(std::string_view text);

  /// Call once at end of stream: an unterminated command still buffered in
  /// the scanner becomes an (error ...) reply (the stream analogue of the
  /// in-process parser throwing on unbalanced parentheses); otherwise
  /// returns the empty string.
  std::string finish();

  /// True after (exit), a disconnect, or fatally malformed input on a
  /// framed transport.
  bool exited() const;

  /// Marks the client gone and cancels the in-flight check-sat, if any,
  /// exactly once (idempotent; also reached via SessionOptions::alive).
  void disconnect();

  /// Per-session counters (exposed so the server can report per-tenant
  /// latency and the tests can assert exactly-once cancellation).
  struct Stats {
    std::uint64_t commands = 0;
    std::uint64_t check_sats = 0;
    std::uint64_t errors = 0;
    std::uint64_t overload_rejects = 0;
    std::uint64_t disconnect_cancels = 0;
    /// Check-sats this session had answered straight from the shared
    /// canonical answer cache (JobResult::answer_cache_hit); exactly one
    /// bump per served hit, so per-tenant hit rates sum to the service's
    /// Stats::answer_hits.
    std::uint64_t answer_hits = 0;
    double solve_seconds_total = 0.0;
  };
  Stats stats() const;

 private:
  class Driver;

  std::string run_command(const std::string& text);
  /// False once disconnected or the liveness probe fails.
  bool client_alive() const;
  /// Registers (and returns) the cancel source for a dispatched job.
  CancelSource install_in_flight();
  void clear_in_flight();

  service::SolveService* service_;
  AdmissionGate* gate_;
  SessionOptions options_;
  CommandScanner scanner_;
  std::unique_ptr<Driver> driver_;

  mutable std::mutex mutex_;
  bool exited_ = false;
  bool disconnected_ = false;
  bool in_flight_cancelled_ = false;
  std::unique_ptr<CancelSource> in_flight_;
  /// Guarded by mutex_, except the two counts the Tallies below keep.
  Stats stats_;
  telemetry::Tally commands_{"server.commands"};
  telemetry::Tally disconnect_cancels_{"server.disconnect.cancelled"};
};

}  // namespace qsmt::server
