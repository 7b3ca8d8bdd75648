// qsmt::telemetry — solver-wide metrics and tracing.
//
// One subsystem, three switch positions, set by the QSMT_TELEMETRY
// environment variable (read once, cached):
//
//   QSMT_TELEMETRY=off      (default) everything disabled; instrumentation
//                           sites cost one relaxed atomic load + branch.
//   QSMT_TELEMETRY=summary  metrics record; on process exit a human-
//                           readable table of per-stage timings, anneal
//                           statistics, and solve verdicts goes to stderr.
//   QSMT_TELEMETRY=trace    summary, plus Span scopes append Chrome
//                           trace_event records; on exit the trace is
//                           written to $QSMT_TRACE_FILE (default
//                           qsmt_trace.json in the CWD).
//
// The catalog of every metric and span the solver emits lives in
// docs/telemetry.md; tests assert the documented names stay emitted.
//
// Instrumentation pattern (handles are cheap value types; interning is a
// mutex hit, so hoist it out of loops with a static or a local):
//
//   static const auto verdicts = telemetry::counter("engine.verdict.sat");
//   verdicts.add();
//
//   telemetry::Tally hits_{"service.answer.hits"};  // a fact stats() reports
//   hits_.add();                                    // ... and hits_.value()
//
//   telemetry::Span span("smtlib.compile");   // RAII stage timing
//   span.arg("constraints", n);               // kept in trace mode
//
// Benches that want the aggregation machinery without the global switch
// construct their own telemetry::Registry (always enabled) — see
// bench/hotpath_bench.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace qsmt::telemetry {

enum class Mode { kOff, kSummary, kTrace };

const char* mode_name(Mode mode) noexcept;

/// The process telemetry mode. First call parses QSMT_TELEMETRY (unknown
/// values warn once on stderr and fall back to off) and, when the mode is
/// not off, registers the exit report.
Mode mode() noexcept;

/// Overrides the mode at runtime (tests, CLIs). Does not register the exit
/// report — only the environment opt-in does that.
void set_mode(Mode mode) noexcept;

inline bool enabled() noexcept { return mode() != Mode::kOff; }
inline bool trace_enabled() noexcept { return mode() == Mode::kTrace; }

/// The process-global registry every instrumentation site records into.
/// Its enabled() gate tracks mode(). Never destroyed (safe from atexit and
/// from worker threads outliving main).
Registry& registry();

/// Convenience: intern a metric on the global registry.
Counter counter(std::string_view name, Unit unit = Unit::kCount);
Gauge gauge(std::string_view name, Unit unit = Unit::kNone);
Histogram histogram(std::string_view name, Unit unit = Unit::kNone);

/// One fact a component both reports from its own stats() and exports,
/// counted once: add() bumps this instance's total and the global counter
/// `name`, whose handle is interned here, at construction. The export
/// follows the QSMT_TELEMETRY gate; value() counts regardless, and reset()
/// leaves it alone, so a stats() built from it stays monotonic.
class Tally {
 public:
  explicit Tally(std::string_view name) : counter_(counter(name)) {}

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
    counter_.add(n);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  Counter counter_;
  std::atomic<std::uint64_t> value_{0};
};

/// Writes the global registry's summary table to `out` (nothing when no
/// metric has data).
void report(std::ostream& out);

/// Writes the buffered trace to `path` as Chrome trace JSON. Returns false
/// (and reports on stderr) when the file cannot be written.
bool write_trace_file(const std::string& path);

/// Clears global metrics and the trace buffer (tests).
void reset();

}  // namespace qsmt::telemetry
