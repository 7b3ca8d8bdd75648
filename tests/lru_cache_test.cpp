// util::LruCache (src/util/lru_cache.hpp), the one LRU behind the answer,
// prepared-model, fragment and embedding caches: recency order, the entry
// and byte caps, the two insert policies, node-plus-heap byte accounting,
// the CacheStats mirror of the emitted metrics, and a get-or-build race.
#include "util/lru_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace qsmt {
namespace {

using Cache = util::LruCache<std::string, int>;

std::vector<std::string> keys_in_order(const Cache& cache) {
  std::vector<std::string> keys;
  cache.for_each([&](const std::string& key, int) { keys.push_back(key); });
  return keys;
}

TEST(LruCache, KeepsMostRecentFirst) {
  Cache cache("lru_test.order", 8);
  cache.insert("a", 1, 0);
  cache.insert("b", 2, 0);
  cache.insert("c", 3, 0);
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"c", "b", "a"}));
  ASSERT_EQ(cache.get("a"), 1);
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"a", "c", "b"}));
  EXPECT_EQ(cache.get("missing"), std::nullopt);
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"a", "c", "b"}));
}

TEST(LruCache, EntryCapEvictsLeastRecent) {
  Cache cache("lru_test.entry_cap", 2);
  cache.insert("a", 1, 0);
  cache.insert("b", 2, 0);
  ASSERT_TRUE(cache.get("a"));  // "b" is now the least recent.
  cache.insert("c", 3, 0);
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  Cache floor("lru_test.entry_floor", 0);  // Raised to one entry.
  floor.insert("a", 1, 0);
  floor.insert("b", 2, 0);
  EXPECT_EQ(keys_in_order(floor), (std::vector<std::string>{"b"}));
}

TEST(LruCache, BytesAreNodeOverheadPlusHeap) {
  Cache cache("lru_test.bytes", 8);
  cache.insert("a", 1, 100);
  cache.insert("b", 2, 7);
  EXPECT_EQ(cache.stats().bytes, 2 * Cache::kNodeBytes + 107);
  cache.insert("a", 3, 40);  // A replaced value is re-counted.
  EXPECT_EQ(cache.stats().bytes, 2 * Cache::kNodeBytes + 47);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 3u);  // Clearing keeps the totals.
}

TEST(LruCache, ByteCapStillKeepsOneEntry) {
  Cache cache("lru_test.byte_cap", 8, /*max_bytes=*/1);
  cache.insert("big", 1, 1000);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.get("big"), 1);
  cache.insert("bigger", 2, 2000);
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"bigger"}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes, Cache::kNodeBytes + 2000);

  // A budget of exactly two entries holds two, not three.
  Cache two("lru_test.byte_cap_two", 8, 2 * (Cache::kNodeBytes + 10));
  for (const char* key : {"a", "b", "c"}) two.insert(key, 0, 10);
  EXPECT_EQ(keys_in_order(two), (std::vector<std::string>{"c", "b"}));
}

TEST(LruCache, ReplaceRefreshesAndKeepFirstLeavesTheEntry) {
  Cache cache("lru_test.policy", 8);
  cache.insert("a", 1, 0);
  cache.insert("b", 2, 0);

  EXPECT_TRUE(cache.insert("a", 10, 0, util::OnExisting::kReplace));
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cache.stats().insertions, 3u);

  EXPECT_FALSE(cache.insert("b", 20, 5, util::OnExisting::kKeep));
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().bytes, 2 * Cache::kNodeBytes);
  EXPECT_EQ(cache.get("a"), 10);
  EXPECT_EQ(cache.get("b"), 2);
}

TEST(LruCache, AssignKeepsFirstOfRepeatedKeysAndCountsOnlyEvictions) {
  Cache cache("lru_test.assign", 2);
  cache.insert("old", 0, 0);
  cache.assign({{"x", 1, 3}, {"y", 2, 0}, {"x", 9, 0}, {"z", 3, 0}});
  EXPECT_EQ(keys_in_order(cache), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(cache.get("x"), 1);
  const util::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);  // Only the insert before the load.
  EXPECT_EQ(stats.evictions, 1u);   // "z", past the entry cap.
  EXPECT_EQ(stats.bytes, 2 * Cache::kNodeBytes + 3);
}

struct Point {
  int x = 0;
  int y = 0;
  bool operator==(const Point&) const = default;
};
struct CollidingHash {
  std::size_t operator()(const Point&) const { return 0; }
};

TEST(LruCache, NonStringKeysCompareInFullUnderCollidingHashes) {
  util::LruCache<Point, std::string, CollidingHash> cache("lru_test.points",
                                                           8);
  cache.insert({1, 2}, "a", 0);
  cache.insert({2, 1}, "b", 0);
  EXPECT_EQ(cache.get({1, 2}), "a");
  EXPECT_EQ(cache.get({2, 1}), "b");
  EXPECT_EQ(cache.get({1, 1}), std::nullopt);
  EXPECT_FALSE(cache.insert({1, 2}, "c", 0, util::OnExisting::kKeep));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LruCache, StatsMirrorTheEmittedMetrics) {
  telemetry::set_mode(telemetry::Mode::kSummary);
  telemetry::reset();
  Cache cache("lru_test.mirror", 2, 3 * Cache::kNodeBytes);
  cache.insert("a", 1, 16);
  cache.insert("b", 2, 0);
  (void)cache.get("a");
  (void)cache.get("zz");
  cache.insert("c", 3, 0);  // Evicts "b".
  cache.insert("a", 4, 0);  // Refresh.
  cache.insert("c", 5, 0, util::OnExisting::kKeep);

  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const util::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * Cache::kNodeBytes);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const telemetry::CounterStat* stat = snapshot.counter(name);
    EXPECT_NE(stat, nullptr) << name;
    return stat == nullptr ? 0 : stat->value;
  };
  const auto gauge = [&](const char* name) -> double {
    const telemetry::GaugeStat* stat = snapshot.gauge(name);
    EXPECT_NE(stat, nullptr) << name;
    return stat == nullptr ? -1.0 : stat->value;
  };
  EXPECT_EQ(counter("lru_test.mirror.hits"), stats.hits);
  EXPECT_EQ(counter("lru_test.mirror.misses"), stats.misses);
  EXPECT_EQ(counter("lru_test.mirror.insertions"), stats.insertions);
  EXPECT_EQ(counter("lru_test.mirror.evictions"), stats.evictions);
  EXPECT_EQ(gauge("lru_test.mirror.entries"),
            static_cast<double>(stats.entries));
  EXPECT_EQ(gauge("lru_test.mirror.bytes"), static_cast<double>(stats.bytes));
  telemetry::reset();
  telemetry::set_mode(telemetry::Mode::kOff);
}

// Four threads run the get-or-build pattern the fragment and model caches
// use (get; on a miss build outside the lock, then insert keep-first) over
// one key set in lockstep rounds. Each key is inserted exactly once, every
// call is exactly one hit or one miss, and every miss built once.
TEST(LruCache, ConcurrentGetOrBuildInsertsEachKeyOnce) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 16;
  constexpr int kRounds = 50;
  Cache cache("lru_test.race", kKeys);
  std::atomic<std::uint64_t> builds{0};
  std::atomic<std::uint64_t> stored{0};
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "key-" + std::to_string(k);
          if (const auto hit = cache.get(key)) {
            EXPECT_EQ(*hit, k);
            continue;
          }
          builds.fetch_add(1);
          if (cache.insert(key, k, 0, util::OnExisting::kKeep)) {
            stored.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const util::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stored.load(), static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kKeys * kRounds));
  EXPECT_EQ(stats.misses, builds.load());
  EXPECT_EQ(stats.entries, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace qsmt
