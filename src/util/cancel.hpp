// Cooperative cancellation for long-running solver work.
//
// A CancelSource owns a cancellation request plus an optional deadline; the
// CancelTokens it hands out are cheap shared views that sweep loops poll.
// The split mirrors std::stop_source/std::stop_token (which lacks deadline
// support) and keeps the polling side trivially cheap: a default-constructed
// token is permanently "not cancelled" with no allocation, and a live token
// costs one relaxed atomic load per poll — the clock is only consulted while
// a deadline is pending, and the first expiry observation latches the flag
// so later polls never read the clock again.
//
// Deadlines use std::chrono::steady_clock exclusively (the solver-wide rule:
// wall-clock time never feeds solver control flow or reported durations —
// see util/stopwatch.hpp), so a host NTP step can neither fire a deadline
// early nor hold a job alive past its budget.
//
// Poll sites in the tree: the Metropolis sweep loops of SimulatedAnnealer,
// ParallelTempering, and PathIntegralAnnealer (once per sweep, via their
// Params::cancel token), and qsmt::service between ladder attempts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace qsmt {

namespace detail {

struct CancelState {
  /// Sentinel for "no deadline": steady_clock durations are signed 64-bit
  /// nanoseconds here, so max() is unreachable in practice.
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<bool> cancelled{false};
  /// Deadline as steady_clock nanoseconds-since-epoch (kNoDeadline = none).
  std::atomic<std::int64_t> deadline_ns{kNoDeadline};
};

}  // namespace detail

/// Pollable cancellation view. Copyable and cheap; safe to share across
/// threads. A default-constructed token never reports cancellation.
class CancelToken {
 public:
  CancelToken() = default;

  /// True when this token is connected to a CancelSource (a null token can
  /// be passed wherever cancellation is optional).
  bool cancellable() const noexcept { return state_ != nullptr; }

  /// True once cancel() was requested on the source or its deadline passed.
  /// Monotonic: never reverts to false. Deadline expiry is latched into the
  /// flag on first observation, so steady-state polls after cancellation
  /// are a single relaxed load.
  bool cancelled() const noexcept {
    if (!state_) return false;
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline =
        state_->deadline_ns.load(std::memory_order_relaxed);
    if (deadline == detail::CancelState::kNoDeadline) return false;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now < deadline) return false;
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state) noexcept
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// Owner side: requests cancellation and/or sets the deadline the tokens
/// observe. Copying a source shares the same cancellation state.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancelToken token() const noexcept { return CancelToken(state_); }

  /// Requests cancellation; every token observes it on its next poll.
  void cancel() noexcept {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// True when cancel() was called or a previously set deadline has been
  /// observed as expired by any token.
  bool cancel_requested() const noexcept {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Sets (or moves) the deadline after which tokens report cancellation.
  void set_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// Sets the deadline `budget` from now. Non-positive budgets expire
  /// immediately.
  void set_deadline_after(std::chrono::nanoseconds budget) noexcept {
    set_deadline(std::chrono::steady_clock::now() + budget);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace qsmt
