// Admission control for the multi-tenant server: a bounded, FIFO-fair
// concurrency gate in front of the solve service.
//
// Every session holds at most one outstanding check-sat (SMT-LIB sessions
// are synchronous), so first-come-first-served admission over sessions IS
// round-robin scheduling across connections: a client that floods
// check-sats still occupies exactly one slot and one place in line per
// round, and can never starve a sibling. The gate bounds two things:
//
//  * inflight — check-sats concurrently submitted to the worker pool
//    (defaults to the pool size: one admitted job per worker keeps the
//    queue inside the service empty and latency predictable);
//  * waiting — sessions blocked in line. When the line is full the gate
//    rejects *immediately* (graceful overload: the session replies
//    (error "server overloaded ...") instead of stalling the client).
//
// close() drains shutdown: current waiters unblock with kClosed and later
// acquires fail fast.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include <condition_variable>

#include "telemetry/telemetry.hpp"

namespace qsmt::server {

class AdmissionGate {
 public:
  /// `max_inflight` >= 1 concurrent admissions; `max_waiting` bounds the
  /// line (0 = reject whenever all slots are busy).
  AdmissionGate(std::size_t max_inflight, std::size_t max_waiting);

  enum class Outcome {
    kAdmitted,   ///< Slot held; caller must release().
    kRejected,   ///< Waiting line full — overload, caller replies an error.
    kClosed,     ///< Gate closed (server shutting down).
    kAbandoned,  ///< Caller's `abandon` probe returned true while in line.
  };

  /// Blocks in FIFO order until a slot frees. `abandon`, when given, is
  /// polled while waiting (the session wires its disconnect probe here so
  /// a vanished client gives up its place in line).
  Outcome acquire(const std::function<bool()>& abandon = {});

  /// Returns an admitted slot. One release() per kAdmitted outcome.
  void release();

  /// Unblocks all waiters with kClosed and fails later acquires fast.
  void close();

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t abandoned = 0;
    std::size_t inflight = 0;
    std::size_t waiting = 0;
  };
  Stats stats() const;

 private:
  void publish_depth_locked() const;

  const std::size_t max_inflight_;
  const std::size_t max_waiting_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::size_t inflight_ = 0;
  /// FIFO of waiting tickets; front is next to admit.
  std::deque<std::uint64_t> line_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t admitted_ = 0;
  telemetry::Tally rejected_{"server.admission.rejects"};
  std::uint64_t abandoned_ = 0;
};

}  // namespace qsmt::server
