// Metrics registry: counters, gauges, and histograms over lock-free
// per-thread shards.
//
// The solve path records metrics from service pool workers at per-read /
// per-build frequency, so the write path must not contend: every thread
// gets its own shard (a flat slot array per metric kind) and writes it with
// relaxed atomics — single writer per shard, so stores never need CAS.
// snapshot() merges all shards under the registry mutex: counters and
// histogram cells sum, gauges resolve by a global set-sequence
// (last-write-wins across threads).
//
// Recording is gated on enabled(): one relaxed atomic load and a branch
// when the registry is disabled, which is what keeps the instrumented hot
// paths within noise of uninstrumented builds (docs/telemetry.md has the
// measured number). The process-global registry (telemetry.hpp) follows
// QSMT_TELEMETRY; benches create their own always-on instances to use the
// same aggregation machinery for measurement bookkeeping.
//
// Capacity is fixed per kind (kMaxCounters/kMaxGauges/kMaxHistograms).
// Registering past capacity returns an inert handle that drops writes —
// telemetry must never take the process down.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qsmt::telemetry {

/// Display unit of a metric (purely informational; sinks print it).
enum class Unit { kNone, kCount, kSeconds, kBytes, kRatio };

const char* unit_name(Unit unit) noexcept;

inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 128;
inline constexpr std::size_t kMaxHistograms = 128;
/// Power-of-two buckets: bucket 0 holds v <= 0, bucket b >= 1 holds
/// v in [2^(b-33), 2^(b-32)) — covering ~2.3e-10 .. 2^31 with the ends
/// clamped. Wide enough for seconds, counts, and energies alike.
inline constexpr std::size_t kHistogramBuckets = 64;
inline constexpr std::uint32_t kInvalidMetric = 0xffffffffu;

/// Bucket index for `v` (see kHistogramBuckets). NaN and v <= 0 map to 0.
std::size_t histogram_bucket(double v) noexcept;
/// Inclusive lower edge of a bucket (0 for bucket 0).
double histogram_bucket_lower(std::size_t bucket) noexcept;

struct CounterStat {
  std::string name;
  Unit unit = Unit::kCount;
  std::uint64_t value = 0;
};

struct GaugeStat {
  std::string name;
  Unit unit = Unit::kNone;
  double value = 0.0;
  bool set = false;  ///< False when no thread ever wrote the gauge.
};

struct HistogramStat {
  std::string name;
  Unit unit = Unit::kNone;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningful only when count > 0.
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept;
  /// Bucket-estimated quantile (q in [0, 1]); exact min/max at the ends,
  /// in between interpolated log-linearly by rank inside the bucket that
  /// holds it, narrowed to [min, max].
  double quantile(double q) const noexcept;
};

/// Point-in-time merged view of a registry. Metrics appear in registration
/// order, including ones that never recorded a value.
struct Snapshot {
  std::vector<CounterStat> counters;
  std::vector<GaugeStat> gauges;
  std::vector<HistogramStat> histograms;

  const CounterStat* counter(std::string_view name) const noexcept;
  const GaugeStat* gauge(std::string_view name) const noexcept;
  const HistogramStat* histogram(std::string_view name) const noexcept;
  /// True when no metric holds any recorded data (all counters zero, no
  /// gauge set, all histograms empty).
  bool empty() const noexcept;
};

class Registry;

/// Monotonic event counter. Copyable value handle; add() is thread-safe.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const noexcept;
  bool valid() const noexcept { return registry_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t index) noexcept
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = kInvalidMetric;
};

/// Last-write-wins scalar (across all threads, by global set order).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;
  bool valid() const noexcept { return registry_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* registry, std::uint32_t index) noexcept
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = kInvalidMetric;
};

/// Distribution: count/sum/min/max plus power-of-two buckets.
class Histogram {
 public:
  Histogram() = default;
  void record(double value) const noexcept;
  bool valid() const noexcept { return registry_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* registry, std::uint32_t index) noexcept
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = kInvalidMetric;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Interns `name` (idempotent; the unit of the first registration wins)
  /// and returns a recording handle. Over-capacity registrations return an
  /// inert handle whose writes are dropped.
  Counter counter(std::string_view name, Unit unit = Unit::kCount);
  Gauge gauge(std::string_view name, Unit unit = Unit::kNone);
  Histogram histogram(std::string_view name, Unit unit = Unit::kNone);

  /// Merged view across every shard. Concurrent writers are not stopped;
  /// the result is a consistent-enough snapshot (each cell individually
  /// up-to-date at its read point).
  Snapshot snapshot() const;

  /// Zeroes every recorded value. Registered names survive.
  void reset();

  /// Recording gate: when false, every handle write is a single relaxed
  /// load + branch. Registration and snapshot work regardless.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Name + unit of a registered metric (public so the implementation's
  /// interning helper can build the tables).
  struct Info {
    std::string name;
    Unit unit;
  };

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;

  /// The calling thread's shard of this registry, created on first use
  /// (per-thread pointer cache on the fast path, registry mutex on miss).
  Shard& local_shard();

  const std::uint64_t id_;  ///< Process-unique, keys the thread-local cache.
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> gauge_sequence_{0};

  mutable std::mutex mutex_;  ///< Guards the tables and the shard list.
  std::vector<Info> counter_info_;
  std::vector<Info> gauge_info_;
  std::vector<Info> histogram_info_;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids_;
  std::map<std::string, std::uint32_t, std::less<>> gauge_ids_;
  std::map<std::string, std::uint32_t, std::less<>> histogram_ids_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qsmt::telemetry
