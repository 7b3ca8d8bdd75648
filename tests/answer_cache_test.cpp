// Canonical answer cache (src/canon/answer_cache.hpp) and its SolveService
// integration: LRU/byte budgets, snapshot round-trips, verified-hit serving
// with exactly-once hit/miss/fallback counters, poisoned-entry fallback,
// and mirror equality between every cache layer's occupancy gauges
// (*.cache.{entries,bytes}) and its deterministic stats struct.
#include "canon/answer_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "canon/canon.hpp"
#include "graph/embedding_cache.hpp"
#include "smtlib/incremental.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt {
namespace {

canon::CachedAnswer sat_answer(const std::string& text) {
  canon::CachedAnswer answer;
  answer.status = smtlib::CheckSatStatus::kSat;
  answer.text = text;
  return answer;
}

TEST(AnswerCacheTest, LookupHitRefreshesLruPosition) {
  canon::AnswerCacheOptions options;
  options.max_entries = 2;
  canon::AnswerCache cache(options);
  cache.insert("a", sat_answer("A"));
  cache.insert("b", sat_answer("B"));
  // Touch "a" so "b" is now the LRU tail.
  ASSERT_TRUE(cache.lookup("a").has_value());
  cache.insert("c", sat_answer("C"));
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const canon::AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(AnswerCacheTest, ByteBudgetEvictsTail) {
  canon::AnswerCacheOptions options;
  options.max_bytes = 300;  // About one entry's worth (entry_bytes).
  canon::AnswerCache cache(options);
  cache.insert("first", sat_answer(std::string(64, 'x')));
  cache.insert("second", sat_answer(std::string(64, 'y')));
  cache.insert("third", sat_answer(std::string(64, 'z')));
  EXPECT_LE(cache.bytes(), options.max_bytes);
  EXPECT_LT(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup("first").has_value());
  EXPECT_TRUE(cache.lookup("third").has_value());
}

TEST(AnswerCacheTest, EntryBytesCountWhatAnEntryHolds) {
  using canon::AnswerCache;
  // Fixed part: the entry (key string, answer, byte count), its list
  // node's two links, and its index node (next link, key view, list
  // iterator, cached hash) plus one bucket slot.
  const canon::CachedAnswer bare = sat_answer("");
  const std::size_t fixed = AnswerCache::entry_bytes("k", bare);
  EXPECT_EQ(fixed, sizeof(std::string) + sizeof(canon::CachedAnswer) +
                       sizeof(std::size_t) + 2 * sizeof(void*) +
                       sizeof(void*) + sizeof(std::string_view) +
                       sizeof(void*) + sizeof(std::size_t) + sizeof(void*));
  // Strings that fit their inline buffer add nothing; longer ones add
  // their heap block (length plus terminator).
  const std::string inline_key(std::string().capacity(), 'k');
  EXPECT_EQ(AnswerCache::entry_bytes(inline_key, bare), fixed);
  const std::string long_key(200, 'k');
  canon::CachedAnswer full = sat_answer(std::string(50, 't'));
  full.variable = std::string(40, 'v');
  full.note = std::string(30, 'n');
  const std::size_t full_bytes = AnswerCache::entry_bytes(long_key, full);
  EXPECT_EQ(full_bytes, fixed + 201 + 51 + 41 + 31);

  // bytes() is the sum over the entries: the key is counted (and stored)
  // once.
  AnswerCache cache;
  cache.insert(long_key, full);
  cache.insert("k", bare);
  EXPECT_EQ(cache.bytes(), full_bytes + fixed);

  // A budget of three such entries holds exactly three.
  canon::AnswerCacheOptions options;
  options.max_bytes = 3 * full_bytes;
  AnswerCache bounded(options);
  for (char tag : {'a', 'b', 'c', 'd'}) {
    std::string key = long_key;
    key.back() = tag;
    bounded.insert(key, full);
  }
  EXPECT_EQ(bounded.size(), 3u);
  EXPECT_EQ(bounded.bytes(), 3 * full_bytes);
}

TEST(AnswerCacheTest, AlwaysKeepsOneEntryEvenOverBudget) {
  canon::AnswerCacheOptions options;
  options.max_bytes = 1;
  canon::AnswerCache cache(options);
  cache.insert("k", sat_answer(std::string(1024, 'x')));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AnswerCacheTest, UnknownVerdictsAreRejected) {
  canon::AnswerCache cache;
  canon::CachedAnswer unknown;
  unknown.status = smtlib::CheckSatStatus::kUnknown;
  cache.insert("k", unknown);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(AnswerCacheTest, InsertRefreshesExistingKey) {
  canon::AnswerCache cache;
  cache.insert("k", sat_answer("old"));
  cache.insert("k", sat_answer("new"));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->text, "new");
}

TEST(AnswerCacheTest, SnapshotRoundTripsEveryFieldShape) {
  canon::AnswerCache cache;
  // Keys and payloads deliberately contain the canonical-form separators,
  // newlines, and spaces the hex encoding must survive.
  canon::CachedAnswer with_position = sat_answer("hello world");
  with_position.position = 3;
  with_position.variable = "v0";
  cache.insert(std::string("key\x1d\x1ewith\nseps"), with_position);

  canon::CachedAnswer no_occurrence;
  no_occurrence.status = smtlib::CheckSatStatus::kSat;
  no_occurrence.position = std::nullopt;  // Verified "no occurrence".
  cache.insert("includes-key", no_occurrence);

  canon::CachedAnswer unsat;
  unsat.status = smtlib::CheckSatStatus::kUnsat;
  unsat.note = "line one\nline two";
  cache.insert("unsat-key", unsat);

  canon::CachedAnswer empty_text = sat_answer("");
  cache.insert("empty-text-key", empty_text);

  const std::string snapshot = cache.save_snapshot();
  canon::AnswerCache restored;
  ASSERT_TRUE(restored.load_snapshot(snapshot));
  EXPECT_EQ(restored.size(), 4u);
  EXPECT_EQ(restored.bytes(), cache.bytes());

  auto hit = restored.lookup(std::string("key\x1d\x1ewith\nseps"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->text, "hello world");
  EXPECT_EQ(hit->position, std::optional<std::size_t>(3));
  EXPECT_EQ(hit->variable, "v0");

  hit = restored.lookup("includes-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->text.has_value());
  EXPECT_FALSE(hit->position.has_value());

  hit = restored.lookup("unsat-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, smtlib::CheckSatStatus::kUnsat);
  EXPECT_EQ(hit->note, "line one\nline two");

  hit = restored.lookup("empty-text-key");
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->text.has_value());
  EXPECT_EQ(*hit->text, "");

  // Round-trip stability: a snapshot of the restored cache re-loads too.
  canon::AnswerCache again;
  EXPECT_TRUE(again.load_snapshot(restored.save_snapshot()));
  EXPECT_EQ(again.size(), 4u);
}

TEST(AnswerCacheTest, MalformedSnapshotLeavesCacheUntouched) {
  canon::AnswerCache cache;
  cache.insert("keep", sat_answer("kept"));
  const char* malformed[] = {
      "",
      "not-the-header\n",
      "qsmt-answer-cache v2\n",
      "qsmt-answer-cache v1\nentry sat ~\n",
      "qsmt-answer-cache v1\nentry maybe ~ 6b - - -\n",
      "qsmt-answer-cache v1\nentry sat twelve 6b - - -\n",
      "qsmt-answer-cache v1\nentry sat ~ zz - - -\n",
      "qsmt-answer-cache v1\nentry sat ~ 6b x61 - -\n",  // Text missing 't'.
      "qsmt-answer-cache v1\nentry sat ~ 6b - - - extra\n",
      "qsmt-answer-cache v1\nwrong sat ~ 6b - - -\n",
  };
  for (const char* snapshot : malformed) {
    EXPECT_FALSE(cache.load_snapshot(snapshot)) << snapshot;
    EXPECT_EQ(cache.size(), 1u) << snapshot;
    EXPECT_TRUE(cache.lookup("keep").has_value()) << snapshot;
  }
}

TEST(AnswerCacheTest, LoadSnapshotReappliesBudgets) {
  canon::AnswerCache big;
  for (int i = 0; i < 8; ++i) {
    big.insert("key" + std::to_string(i), sat_answer(std::string(32, 'a')));
  }
  canon::AnswerCacheOptions tight;
  tight.max_entries = 3;
  canon::AnswerCache small(tight);
  ASSERT_TRUE(small.load_snapshot(big.save_snapshot()));
  EXPECT_EQ(small.size(), 3u);
  // MRU-first snapshot order: the most recent entries survive.
  EXPECT_TRUE(small.lookup("key7").has_value());
  EXPECT_FALSE(small.lookup("key0").has_value());
}

// --- Service integration ---------------------------------------------------

service::ServiceOptions exact_service(
    std::shared_ptr<canon::AnswerCache> cache) {
  service::ServiceOptions options;
  options.portfolio = {service::exact_member("exact")};
  options.num_workers = 2;
  options.answer_cache = std::move(cache);
  return options;
}

TEST(AnswerCacheServiceTest, SecondIdenticalConstraintJobIsServedFromCache) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));

  const strqubo::Constraint constraint = strqubo::Equality{"ab"};
  const service::JobResult cold = solver.submit(constraint, {}).get();
  ASSERT_EQ(cold.status, smtlib::CheckSatStatus::kSat);
  EXPECT_FALSE(cold.answer_cache_hit);
  ASSERT_TRUE(cold.text.has_value());

  const service::JobResult warm = solver.submit(constraint, {}).get();
  EXPECT_TRUE(warm.answer_cache_hit);
  EXPECT_EQ(warm.winner, "answer-cache");
  EXPECT_EQ(warm.attempts, 0u);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.text, cold.text);  // Byte-identical witness.
  EXPECT_EQ(warm.position, cold.position);

  const service::SolveService::Stats stats = solver.stats();
  EXPECT_EQ(stats.answer_hits, 1u);
  EXPECT_EQ(stats.answer_misses, 1u);
  EXPECT_EQ(stats.answer_fallbacks, 0u);
  EXPECT_EQ(cache->stats().hits, stats.answer_hits + stats.answer_fallbacks);
  EXPECT_EQ(cache->stats().misses, stats.answer_misses);
}

TEST(AnswerCacheServiceTest, AlphaVariantScriptHitRemapsTheWitnessVariable) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));

  const service::JobResult cold = solver
                                      .submit_script(
                                          "(declare-const x String)\n"
                                          "(assert (= x \"ab\"))\n"
                                          "(check-sat)\n",
                                          {})
                                      .get();
  ASSERT_EQ(cold.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(cold.variable, "x");

  // Same formula, different variable name, reordered assertions.
  const service::JobResult warm = solver
                                      .submit_script(
                                          "(declare-const renamed String)\n"
                                          "(assert (= renamed \"ab\"))\n"
                                          "(check-sat)\n",
                                          {})
                                      .get();
  EXPECT_TRUE(warm.answer_cache_hit);
  EXPECT_EQ(warm.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(warm.variable, "renamed");  // Remapped through the hit script.
  EXPECT_EQ(warm.model_value, cold.model_value);
}

TEST(AnswerCacheServiceTest, UnsatScriptVerdictIsCachedAndServed) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));

  const std::string unsat_a =
      "(declare-const x String)\n"
      "(assert (= x \"a\"))\n"
      "(assert (= x \"b\"))\n"
      "(check-sat)\n";
  const service::JobResult cold = solver.submit_script(unsat_a, {}).get();
  ASSERT_EQ(cold.status, smtlib::CheckSatStatus::kUnsat);
  EXPECT_FALSE(cold.answer_cache_hit);

  const std::string unsat_b =
      "(declare-const other String)\n"
      "(assert (= other \"b\"))\n"
      "(assert (= other \"a\"))\n"
      "(check-sat)\n";
  const service::JobResult warm = solver.submit_script(unsat_b, {}).get();
  EXPECT_TRUE(warm.answer_cache_hit);
  EXPECT_EQ(warm.status, smtlib::CheckSatStatus::kUnsat);
}

TEST(AnswerCacheServiceTest, PoisonedEntryFallsThroughToColdSolve) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));

  const strqubo::Constraint constraint = strqubo::Equality{"ab"};
  const strqubo::BuildOptions build;  // Matches ServiceOptions default.
  cache->insert(canon::constraint_answer_key(constraint, build),
                sat_answer("WRONG"));

  const service::JobResult result = solver.submit(constraint, {}).get();
  EXPECT_FALSE(result.answer_cache_hit);
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "ab");  // Verdict identical to an unpoisoned run.

  const service::SolveService::Stats stats = solver.stats();
  EXPECT_EQ(stats.answer_fallbacks, 1u);
  EXPECT_EQ(stats.answer_hits, 0u);
  // The fresh verified verdict replaced the poisoned entry.
  const auto healed =
      cache->lookup(canon::constraint_answer_key(constraint, build));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->text, "ab");
}

TEST(AnswerCacheServiceTest, UnknownAndTimedOutVerdictsAreNeverInserted) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));
  service::JobOptions expired;
  expired.deadline = std::chrono::nanoseconds(-1);
  const service::JobResult result =
      solver.submit(strqubo::Equality{"ab"}, expired).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_FALSE(result.answer_cache_hit);
  EXPECT_EQ(cache->size(), 0u);
  // The expired job skipped the lookup entirely: no miss was charged.
  EXPECT_EQ(solver.stats().answer_misses, 0u);
}

TEST(AnswerCacheServiceTest, CacheDisabledWhenNull) {
  service::ServiceOptions options = exact_service(nullptr);
  service::SolveService solver(options);
  const strqubo::Constraint constraint = strqubo::Equality{"ab"};
  ASSERT_EQ(solver.submit(constraint, {}).get().status,
            smtlib::CheckSatStatus::kSat);
  const service::JobResult second = solver.submit(constraint, {}).get();
  EXPECT_FALSE(second.answer_cache_hit);
  EXPECT_EQ(solver.stats().answer_hits, 0u);
  EXPECT_EQ(solver.stats().answer_misses, 0u);
}

// --- Telemetry mirror equality (all four cache layers) ---------------------

class CacheGaugeMirrorTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::set_mode(telemetry::Mode::kSummary); }
  void TearDown() override { telemetry::set_mode(telemetry::Mode::kOff); }

  static double gauge_value(const telemetry::Snapshot& snapshot,
                            const std::string& name) {
    const telemetry::GaugeStat* stat = snapshot.gauge(name);
    EXPECT_NE(stat, nullptr) << name;
    return stat == nullptr ? -1.0 : stat->value;
  }
};

TEST_F(CacheGaugeMirrorTest, AnswerAndModelCacheGaugesMirrorStats) {
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService solver(exact_service(cache));
  ASSERT_EQ(solver.submit(strqubo::Equality{"ab"}, {}).get().status,
            smtlib::CheckSatStatus::kSat);
  ASSERT_EQ(solver.submit(strqubo::Reverse{"ba"}, {}).get().status,
            smtlib::CheckSatStatus::kSat);

  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const canon::AnswerCache::Stats cache_stats = cache->stats();
  EXPECT_GT(cache_stats.entries, 0u);
  EXPECT_EQ(gauge_value(snapshot, "answer_cache.entries"),
            static_cast<double>(cache_stats.entries));
  EXPECT_EQ(gauge_value(snapshot, "answer_cache.bytes"),
            static_cast<double>(cache_stats.bytes));
  ASSERT_NE(snapshot.counter("answer_cache.misses"), nullptr);
  EXPECT_EQ(snapshot.counter("answer_cache.misses")->value,
            cache_stats.misses);

  const service::SolveService::Stats service_stats = solver.stats();
  EXPECT_GT(service_stats.model_cache_entries, 0u);
  EXPECT_EQ(gauge_value(snapshot, "service.model_cache.entries"),
            static_cast<double>(service_stats.model_cache_entries));
  EXPECT_EQ(gauge_value(snapshot, "service.model_cache.bytes"),
            static_cast<double>(service_stats.model_cache_bytes));
}

TEST_F(CacheGaugeMirrorTest, FragmentCacheGaugesMirrorStats) {
  smtlib::FragmentCache cache(8);
  const strqubo::BuildOptions options;
  cache.get_or_build(strqubo::Equality{"ab"}, options);
  cache.get_or_build(strqubo::Palindrome{3}, options);

  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const smtlib::FragmentCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.bytes, cache.bytes());
  const telemetry::GaugeStat* entries =
      snapshot.gauge("incremental.fragment.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->value, static_cast<double>(stats.entries));
  const telemetry::GaugeStat* bytes =
      snapshot.gauge("incremental.fragment.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value, static_cast<double>(stats.bytes));
}

TEST_F(CacheGaugeMirrorTest, EmbeddingCacheGaugesMirrorAccessors) {
  graph::Graph logical(3);
  logical.add_edge(0, 1);
  logical.add_edge(1, 2);
  logical.finalize();
  graph::Embedding embedding;
  embedding.chains = {{0}, {1}, {2}};

  graph::EmbeddingCache cache(4);
  cache.insert(logical, embedding);

  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);
  const telemetry::GaugeStat* entries = snapshot.gauge("embed.cache.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->value, static_cast<double>(cache.stats().entries));
  const telemetry::GaugeStat* bytes = snapshot.gauge("embed.cache.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value, static_cast<double>(cache.stats().bytes));
}

}  // namespace
}  // namespace qsmt
