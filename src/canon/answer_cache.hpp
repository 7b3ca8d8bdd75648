// Content-addressed answer cache: alpha-equivalent solve memoization.
//
// The existing cache layers (prepared-model LRU, fragment cache, embedding
// cache) memoize *inputs to solving*; this one memoizes *answers*. Entries
// are keyed by a canonical alpha-equivalence form of the job (canon.hpp)
// joined with the BuildOptions fingerprint, and store the verdict plus the
// canonical witness (sat) or the UNSAT note. The SolveService looks a job
// up at enqueue — ahead of the model build and presolve — and on a hit
// confirms the remapped witness with one classical verification before
// serving it; any mismatch falls through to a normal solve, so a cache
// (even a poisoned or stale one) can cost at most one cheap check, never a
// wrong verdict.
//
// A thread-safe, byte-budgeted util::LruCache. One instance is meant to
// be shared across services, server sessions, and tenants (like the
// FragmentCache): entries carry no session state, and a witness can only
// be observed through a canonical-key hit — i.e. by a tenant who already
// holds a structurally identical query (pinned by
// tests/server_stress_test.cpp).
//
// Telemetry: answer_cache.{hits,misses,insertions,evictions} counters and
// answer_cache.{bytes,entries} gauges, counted by the same increments that
// Stats reports. save_snapshot/load_snapshot round-trip the cache as text so a
// warmed cache survives daemon restarts.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "smtlib/driver.hpp"
#include "util/lru_cache.hpp"

namespace qsmt::canon {

/// One memoized verdict. `text` is the canonical witness (string-producing
/// constraint jobs and script model values); `position` is the Includes
/// verdict (std::nullopt inside an engaged entry = verified "no
/// occurrence"); `variable` is the canonical model-variable name of a
/// script entry (remapped through the hit script's inverse renaming);
/// `note` carries the UNSAT explanation.
struct CachedAnswer {
  smtlib::CheckSatStatus status = smtlib::CheckSatStatus::kUnknown;
  std::optional<std::string> text;
  std::optional<std::size_t> position;
  std::string variable;
  std::string note;
};

struct AnswerCacheOptions {
  /// Retained-footprint budget (AnswerCache::entry_bytes summed over every
  /// entry); the LRU tail is evicted past it. Minimum one entry is always
  /// kept.
  std::size_t max_bytes = 8u << 20;
  /// Entry-count ceiling, applied alongside the byte budget.
  std::size_t max_entries = 65536;
};

class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheOptions options = {});

  /// Returns the entry for `key`, refreshing its LRU position. Emits
  /// answer_cache.hits / answer_cache.misses.
  std::optional<CachedAnswer> lookup(const std::string& key);

  /// Inserts (or refreshes) `key`. Unknown verdicts are rejected — they
  /// describe a budget, not an answer. Evicts the LRU tail past the byte
  /// and entry budgets.
  void insert(const std::string& key, CachedAnswer answer);

  void clear();

  std::size_t size() const;
  std::size_t bytes() const;

  /// What one entry holding `key` and `answer` really occupies: the LRU's
  /// node overhead (util::LruCache::kNodeBytes: the entry, its list node's
  /// two links, its index node and one bucket slot) plus the heap blocks
  /// of its strings (length plus terminator; a string short enough to live
  /// inside its own object adds none). The key is stored once. bytes() is
  /// the sum over every entry.
  static std::size_t entry_bytes(const std::string& key,
                                 const CachedAnswer& answer);

  /// The answer_cache.* counts and occupancy, kept with telemetry off too.
  using Stats = util::CacheStats;
  Stats stats() const;

  /// Serializes every entry (most recent first) as line-oriented text
  /// ("qsmt-answer-cache v1"; fields hex-encoded so canonical keys with
  /// separators and newlines survive).
  std::string save_snapshot() const;

  /// Replaces the contents from save_snapshot() output, re-applying the
  /// budgets. Returns false — leaving the cache untouched — on malformed
  /// input. Counters (hits/misses/...) are not restored; occupancy is.
  bool load_snapshot(const std::string& snapshot);

 private:
  using Lru = util::LruCache<std::string, CachedAnswer>;
  Lru cache_;
};

}  // namespace qsmt::canon
