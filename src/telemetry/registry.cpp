#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qsmt::telemetry {

namespace {

// Thread-local cache of (registry id -> shard) resolutions. Registry ids
// are process-unique and never reused, so a stale entry for a destroyed
// registry can never match again (the dangling pointer is never followed).
struct ShardRef {
  std::uint64_t registry_id;
  void* shard;
};
thread_local std::vector<ShardRef> t_shard_cache;

std::atomic<std::uint64_t> g_next_registry_id{1};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

const char* unit_name(Unit unit) noexcept {
  switch (unit) {
    case Unit::kNone:
      return "";
    case Unit::kCount:
      return "count";
    case Unit::kSeconds:
      return "s";
    case Unit::kBytes:
      return "B";
    case Unit::kRatio:
      return "ratio";
  }
  return "";
}

std::size_t histogram_bucket(double v) noexcept {
  if (!(v > 0.0)) return 0;  // Also catches NaN.
  const int exponent = std::ilogb(v);  // floor(log2 v) for finite v > 0.
  const long bucket = static_cast<long>(exponent) + 33;
  return static_cast<std::size_t>(
      std::clamp(bucket, 1L, static_cast<long>(kHistogramBuckets) - 1));
}

double histogram_bucket_lower(std::size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 33);
}

double HistogramStat::mean() const noexcept {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramStat::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate by rank inside the bucket, narrowed to the observed
    // range: log-linearly (the buckets are powers of two), or linearly
    // when the range reaches down to zero.
    const double lower = std::max(histogram_bucket_lower(b), min);
    const double upper = std::min(
        b + 1 < kHistogramBuckets ? histogram_bucket_lower(b + 1) : max, max);
    const double fraction = (rank - static_cast<double>(before)) /
                            static_cast<double>(buckets[b]);
    if (!(lower > 0.0)) return lower + fraction * (upper - lower);
    return lower * std::pow(upper / lower, fraction);
  }
  return max;
}

namespace {

template <typename Stats>
const typename Stats::value_type* find_stat(const Stats& stats,
                                            std::string_view name) noexcept {
  for (const auto& stat : stats) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

}  // namespace

const CounterStat* Snapshot::counter(std::string_view name) const noexcept {
  return find_stat(counters, name);
}

const GaugeStat* Snapshot::gauge(std::string_view name) const noexcept {
  return find_stat(gauges, name);
}

const HistogramStat* Snapshot::histogram(std::string_view name) const noexcept {
  return find_stat(histograms, name);
}

bool Snapshot::empty() const noexcept {
  for (const auto& c : counters) {
    if (c.value != 0) return false;
  }
  for (const auto& g : gauges) {
    if (g.set) return false;
  }
  for (const auto& h : histograms) {
    if (h.count != 0) return false;
  }
  return true;
}

// One thread's slice of every metric. Single writer (the owning thread);
// snapshot() reads concurrently, so cells are relaxed atomics — the writer
// uses load+store rather than RMW, which is safe precisely because no other
// thread ever writes the cell.
struct Registry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};

  struct GaugeCell {
    std::atomic<std::uint64_t> sequence{0};  ///< 0 = never set.
    std::atomic<double> value{0.0};
  };
  std::array<GaugeCell, kMaxGauges> gauges{};

  struct HistCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{kInf};
    std::atomic<double> max{-kInf};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<HistCell, kMaxHistograms> histograms{};

  void reset() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : gauges) {
      g.sequence.store(0, std::memory_order_relaxed);
      g.value.store(0.0, std::memory_order_relaxed);
    }
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(kInf, std::memory_order_relaxed);
      h.max.store(-kInf, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry::Shard& Registry::local_shard() {
  for (const ShardRef& ref : t_shard_cache) {
    if (ref.registry_id == id_) return *static_cast<Shard*>(ref.shard);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  // Bound the cache; evicting an entry only means that thread would open a
  // second shard in that registry later, which merges identically.
  if (t_shard_cache.size() >= 64) t_shard_cache.erase(t_shard_cache.begin());
  t_shard_cache.push_back(ShardRef{id_, shard});
  return *shard;
}

namespace {

std::uint32_t intern(std::vector<Registry::Info>& info,
                     std::map<std::string, std::uint32_t, std::less<>>& ids,
                     std::string_view name, Unit unit, std::size_t capacity) {
  if (const auto it = ids.find(name); it != ids.end()) return it->second;
  if (info.size() >= capacity) return kInvalidMetric;
  const auto index = static_cast<std::uint32_t>(info.size());
  info.push_back(Registry::Info{std::string(name), unit});
  ids.emplace(std::string(name), index);
  return index;
}

}  // namespace

Counter Registry::counter(std::string_view name, Unit unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t index =
      intern(counter_info_, counter_ids_, name, unit, kMaxCounters);
  return index == kInvalidMetric ? Counter() : Counter(this, index);
}

Gauge Registry::gauge(std::string_view name, Unit unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t index =
      intern(gauge_info_, gauge_ids_, name, unit, kMaxGauges);
  return index == kInvalidMetric ? Gauge() : Gauge(this, index);
}

Histogram Registry::histogram(std::string_view name, Unit unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t index =
      intern(histogram_info_, histogram_ids_, name, unit, kMaxHistograms);
  return index == kInvalidMetric ? Histogram() : Histogram(this, index);
}

void Counter::add(std::uint64_t delta) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  auto& cell = registry_->local_shard().counters[index_];
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  auto& cell = registry_->local_shard().gauges[index_];
  const std::uint64_t seq =
      1 + registry_->gauge_sequence_.fetch_add(1, std::memory_order_relaxed);
  cell.value.store(value, std::memory_order_relaxed);
  cell.sequence.store(seq, std::memory_order_release);
}

void Histogram::record(double value) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  auto& cell = registry_->local_shard().histograms[index_];
  cell.count.store(cell.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  cell.sum.store(cell.sum.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
  if (value < cell.min.load(std::memory_order_relaxed)) {
    cell.min.store(value, std::memory_order_relaxed);
  }
  if (value > cell.max.load(std::memory_order_relaxed)) {
    cell.max.store(value, std::memory_order_relaxed);
  }
  auto& bucket = cell.buckets[histogram_bucket(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;

  snap.counters.reserve(counter_info_.size());
  for (std::size_t i = 0; i < counter_info_.size(); ++i) {
    CounterStat stat;
    stat.name = counter_info_[i].name;
    stat.unit = counter_info_[i].unit;
    for (const auto& shard : shards_) {
      stat.value += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back(std::move(stat));
  }

  snap.gauges.reserve(gauge_info_.size());
  for (std::size_t i = 0; i < gauge_info_.size(); ++i) {
    GaugeStat stat;
    stat.name = gauge_info_[i].name;
    stat.unit = gauge_info_[i].unit;
    std::uint64_t best_seq = 0;
    for (const auto& shard : shards_) {
      const auto& cell = shard->gauges[i];
      const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
      if (seq > best_seq) {
        best_seq = seq;
        stat.value = cell.value.load(std::memory_order_relaxed);
        stat.set = true;
      }
    }
    snap.gauges.push_back(std::move(stat));
  }

  snap.histograms.reserve(histogram_info_.size());
  for (std::size_t i = 0; i < histogram_info_.size(); ++i) {
    HistogramStat stat;
    stat.name = histogram_info_[i].name;
    stat.unit = histogram_info_[i].unit;
    double merged_min = kInf;
    double merged_max = -kInf;
    for (const auto& shard : shards_) {
      const auto& cell = shard->histograms[i];
      stat.count += cell.count.load(std::memory_order_relaxed);
      stat.sum += cell.sum.load(std::memory_order_relaxed);
      merged_min = std::min(merged_min, cell.min.load(std::memory_order_relaxed));
      merged_max = std::max(merged_max, cell.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        stat.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (stat.count > 0) {
      stat.min = merged_min;
      stat.max = merged_max;
    }
    snap.histograms.push_back(std::move(stat));
  }
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) shard->reset();
}

}  // namespace qsmt::telemetry
