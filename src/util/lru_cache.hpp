// The one least-recently-used cache behind every cache layer: canonical
// answers, prepared models, compiled QUBO fragments and minor embeddings.
//
// Thread-safe behind one mutex. It owns the recency list, a hash index that
// views each node's own key (a key is stored once), an entry cap, an
// optional byte cap (at least one entry is always kept), and the hit /
// miss / insertion / eviction counts. Each count is a telemetry::Tally, so
// one increment feeds both stats() and the <prefix>.{hits,misses,
// insertions,evictions} counters under the prefix the cache is built with;
// the <prefix>.{entries,bytes} gauges publish the occupancy stats() reads
// (docs/caching.md, "LRU mechanics").
//
// Byte accounting: an entry costs kNodeBytes (its list node: the entry and
// two links; its index node: next link, key view, list iterator, cached
// hash; one bucket slot) plus the heap bytes of its key and value, which
// only the caller can know and passes to insert().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace qsmt::util {

/// One cache's counts and occupancy, kept with telemetry off too.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

/// The heap block a string of this length needs: none while it fits the
/// string's inline buffer, else its characters plus the terminator. Sized
/// by length, not capacity, so equal strings always count alike (an
/// answer-cache snapshot round trip restores bytes() exactly).
inline std::size_t heap_bytes(const std::string& text) {
  static const std::size_t kInline = std::string().capacity();
  return text.size() > kInline ? text.size() + 1 : 0;
}

/// The heap block of a std::make_shared<T>: the object plus its control
/// block (vtable link and the two reference counts).
template <typename T>
constexpr std::size_t shared_block_bytes() {
  return sizeof(T) + sizeof(void*) + 2 * sizeof(std::int32_t);
}

/// What insert() does with a key that is already cached.
enum class OnExisting {
  kReplace,  ///< Store the newer value and make it most recent.
  kKeep,     ///< Leave the first value as it is (a racing build lost).
};

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  struct Entry {
    K key;
    V value;
    /// Heap bytes of key and value, as the caller reported them.
    std::size_t heap_bytes = 0;
  };

 private:
  /// String keys are viewed as std::string_view, other keys by address;
  /// list nodes never move, so either view stays valid while its node
  /// lives.
  using KeyView = std::conditional_t<std::is_same_v<K, std::string>,
                                     std::string_view, const K*>;
  using List = std::list<Entry>;

 public:
  /// Everything an entry occupies besides its key's and value's heap
  /// bytes.
  static constexpr std::size_t kNodeBytes =
      sizeof(Entry) + 2 * sizeof(void*) +  // List node.
      sizeof(void*) + sizeof(KeyView) + sizeof(typename List::iterator) +
      sizeof(std::size_t) +  // Index node.
      sizeof(void*);         // Bucket slot.

  /// `max_entries` below 1 is raised to 1.
  LruCache(std::string_view metric_prefix, std::size_t max_entries,
           std::size_t max_bytes = std::numeric_limits<std::size_t>::max())
      : max_entries_(max_entries == 0 ? 1 : max_entries),
        max_bytes_(max_bytes),
        hits_(metric_name(metric_prefix, "hits")),
        misses_(metric_name(metric_prefix, "misses")),
        insertions_(metric_name(metric_prefix, "insertions")),
        evictions_(metric_name(metric_prefix, "evictions")),
        entries_gauge_(telemetry::gauge(metric_name(metric_prefix, "entries"))),
        bytes_gauge_(telemetry::gauge(metric_name(metric_prefix, "bytes"),
                                      telemetry::Unit::kBytes)) {}

  /// A copy of the value cached under `key`, which becomes most recent, or
  /// nullopt. Counts a hit or a miss.
  std::optional<V> get(const K& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(view(key));
    if (it == index_.end()) {
      misses_.add();
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.add();
    return it->second->value;
  }

  /// Caches `value` under `key` as the most recent entry, then evicts the
  /// least recent past the caps. A key already cached is handled as
  /// `on_existing` says; kKeep leaves the cache and its counters as they
  /// are. Returns true when `value` was stored (counted as an insertion).
  bool insert(K key, V value, std::size_t heap_bytes,
              OnExisting on_existing = OnExisting::kReplace) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(view(key)); it != index_.end()) {
      if (on_existing == OnExisting::kKeep) return false;
      Entry& entry = *it->second;
      bytes_ = bytes_ - entry.heap_bytes + heap_bytes;
      entry.value = std::move(value);
      entry.heap_bytes = heap_bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{std::move(key), std::move(value), heap_bytes});
      index_.emplace(view(lru_.front().key), lru_.begin());
      bytes_ += kNodeBytes + heap_bytes;
    }
    insertions_.add();
    evict_to_caps_locked();
    publish_occupancy_locked();
    return true;
  }

  /// Replaces the contents with `entries`, most recent first (a repeated
  /// key keeps its first, more recent, entry), then evicts past the caps.
  /// Counts evictions only: a reload is not traffic.
  void assign(std::vector<Entry> entries) {
    const std::lock_guard<std::mutex> lock(mutex_);
    index_.clear();  // Its keys view the nodes being replaced.
    lru_.clear();
    bytes_ = 0;
    for (Entry& entry : entries) {
      lru_.push_back(std::move(entry));
      if (!index_.emplace(view(lru_.back().key), std::prev(lru_.end()))
               .second) {
        lru_.pop_back();
        continue;
      }
      bytes_ += kNodeBytes + lru_.back().heap_bytes;
    }
    evict_to_caps_locked();
    publish_occupancy_locked();
  }

  /// Drops every entry; the counters keep their totals.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    index_.clear();  // Its keys view the nodes: drop them first.
    lru_.clear();
    bytes_ = 0;
    publish_occupancy_locked();
  }

  /// Calls fn(key, value) on every entry, most recent first, under the
  /// lock (fn must not call back into the cache).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& entry : lru_) fn(entry.key, entry.value);
  }

  CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats;
    stats.hits = hits_.value();
    stats.misses = misses_.value();
    stats.insertions = insertions_.value();
    stats.evictions = evictions_.value();
    stats.entries = lru_.size();
    stats.bytes = bytes_;
    return stats;
  }

 private:
  struct ViewHash {
    std::size_t operator()(KeyView key) const {
      if constexpr (std::is_same_v<KeyView, std::string_view>) {
        return std::hash<std::string_view>{}(key);
      } else {
        return Hash{}(*key);
      }
    }
  };
  struct ViewEqual {
    bool operator()(KeyView a, KeyView b) const {
      if constexpr (std::is_same_v<KeyView, std::string_view>) {
        return a == b;
      } else {
        return *a == *b;
      }
    }
  };

  static KeyView view(const K& key) {
    if constexpr (std::is_same_v<KeyView, std::string_view>) {
      return key;
    } else {
      return &key;
    }
  }

  static std::string metric_name(std::string_view prefix,
                                 std::string_view suffix) {
    std::string name(prefix);
    name += '.';
    name += suffix;
    return name;
  }

  void evict_to_caps_locked() {
    while (lru_.size() > 1 &&
           (lru_.size() > max_entries_ || bytes_ > max_bytes_)) {
      bytes_ -= kNodeBytes + lru_.back().heap_bytes;
      index_.erase(view(lru_.back().key));
      lru_.pop_back();
      evictions_.add();
    }
  }

  void publish_occupancy_locked() const {
    entries_gauge_.set(static_cast<double>(lru_.size()));
    bytes_gauge_.set(static_cast<double>(bytes_));
  }

  const std::size_t max_entries_;
  const std::size_t max_bytes_;
  telemetry::Tally hits_;
  telemetry::Tally misses_;
  telemetry::Tally insertions_;
  telemetry::Tally evictions_;
  const telemetry::Gauge entries_gauge_;
  const telemetry::Gauge bytes_gauge_;

  mutable std::mutex mutex_;
  List lru_;  // Front = most recently used.
  std::unordered_map<KeyView, typename List::iterator, ViewHash, ViewEqual>
      index_;
  std::size_t bytes_ = 0;
};

}  // namespace qsmt::util
