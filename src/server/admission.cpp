#include "server/admission.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace qsmt::server {

AdmissionGate::AdmissionGate(std::size_t max_inflight, std::size_t max_waiting)
    : max_inflight_(max_inflight), max_waiting_(max_waiting) {
  require(max_inflight_ >= 1, "AdmissionGate: max_inflight must be >= 1");
}

void AdmissionGate::publish_depth_locked() const {
  static const auto depth = telemetry::gauge("server.queue.depth");
  depth.set(static_cast<double>(line_.size()));
}

AdmissionGate::Outcome AdmissionGate::acquire(
    const std::function<bool()>& abandon) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return Outcome::kClosed;
  if (inflight_ < max_inflight_ && line_.empty()) {
    ++inflight_;
    ++admitted_;
    publish_depth_locked();
    return Outcome::kAdmitted;
  }
  if (line_.size() >= max_waiting_) {
    rejected_.add();
    return Outcome::kRejected;
  }
  const std::uint64_t ticket = next_ticket_++;
  line_.push_back(ticket);
  publish_depth_locked();
  const auto leave_line = [&] {
    line_.erase(std::find(line_.begin(), line_.end(), ticket));
    publish_depth_locked();
    cv_.notify_all();
  };
  for (;;) {
    // Bounded waits so the abandon probe (client liveness) gets polled
    // even when no slot frees for a long time.
    cv_.wait_for(lock, std::chrono::milliseconds(20));
    if (closed_) {
      leave_line();
      return Outcome::kClosed;
    }
    if (abandon && abandon()) {
      leave_line();
      ++abandoned_;
      return Outcome::kAbandoned;
    }
    if (inflight_ < max_inflight_ && !line_.empty() &&
        line_.front() == ticket) {
      line_.pop_front();
      publish_depth_locked();
      ++inflight_;
      ++admitted_;
      cv_.notify_all();
      return Outcome::kAdmitted;
    }
  }
}

void AdmissionGate::release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_ > 0) --inflight_;
  }
  cv_.notify_all();
}

void AdmissionGate::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

AdmissionGate::Stats AdmissionGate::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.admitted = admitted_;
  stats.rejected = rejected_.value();
  stats.abandoned = abandoned_;
  stats.inflight = inflight_;
  stats.waiting = line_.size();
  return stats;
}

}  // namespace qsmt::server
