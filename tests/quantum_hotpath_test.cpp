// Hot-path proofs for the quantum simulation path (docs/hotpath.md, "The
// quantum path"): the PIMC incremental field cache never drifts from a
// direct recompute, fixed-seed PIMC sampling and embedding search are
// bit-identical under concurrent callers, and the structure-keyed embedding cache serves bit-identical
// embeddings while skipping the embedding search entirely.
#include <gtest/gtest.h>

#include "anneal/pimc.hpp"
#include "concurrent_callers.hpp"
#include "graph/chimera.hpp"
#include "graph/embedded_sampler.hpp"
#include "graph/embedding_cache.hpp"
#include "service/quantum_portfolio.hpp"
#include "strqubo/builders.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace qsmt {
namespace {

qubo::QuboModel random_model(std::size_t n, Xoshiro256& rng) {
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i)
    model.add_linear(i, rng.uniform() * 2.0 - 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.4)
        model.add_quadratic(i, j, rng.uniform() * 2.0 - 1.0);
    }
  }
  return model;
}

bool same_sample_sets(const anneal::SampleSet& a, const anneal::SampleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].energy != b[k].energy) return false;
    if (a[k].bits != b[k].bits) return false;
    if (a[k].num_occurrences != b[k].num_occurrences) return false;
  }
  return true;
}

// Kernel-equivalence oracle: after every Γ step of an audited run, every
// cached slice field and every cached slice energy is recomputed directly
// from the adjacency. Any incremental-update bug (wrong sign, missed
// neighbour, stale slice after a global move) shows up as drift far above
// floating-point reassociation noise.
TEST(PimcFieldCache, MatchesDirectRecomputeOnRandomModels) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256 rng(seed, 99);
    const qubo::QuboModel model = random_model(14, rng);
    anneal::PathIntegralParams p;
    p.num_reads = 4;
    p.num_sweeps = 64;
    p.num_slices = 8;
    p.seed = seed;
    EXPECT_LT(anneal::detail::pimc_field_drift(model, p), 1e-9)
        << "field cache drifted for seed " << seed;
  }
}

// Fixed-seed PIMC sampling must be bit-identical no matter how many threads
// sample at once: reads own counter-seeded streams with a fixed per-sweep
// uniform consumption rate, and each thread's slice-major AnnealContext
// buffers carry nothing from one call into the next.
TEST(PimcDeterminism, IdenticalAcrossThreadCounts) {
  Xoshiro256 rng(7, 3);
  const qubo::QuboModel model = random_model(20, rng);
  const qubo::QuboModel warmup = random_model(28, rng);
  anneal::PathIntegralParams p;
  p.num_reads = 8;
  p.num_sweeps = 64;
  p.num_slices = 8;
  p.seed = 11;
  const anneal::PathIntegralAnnealer annealer(p);

  const anneal::SampleSet lone = annealer.sample(model);
  for (const anneal::SampleSet& set : run_concurrently([&] {
         annealer.sample(warmup);
         return annealer.sample(model);
       })) {
    EXPECT_TRUE(same_sample_sets(lone, set));
  }
}

// find_embedding keeps the first attempt with the fewest qubits, so the
// embedding for a fixed seed must not depend on other threads searching at
// the same time.
TEST(EmbeddingDeterminism, FindEmbeddingIdenticalAcrossThreadCounts) {
  const graph::Graph target = graph::make_chimera(4, 4, 4);
  const graph::Graph logical =
      graph::logical_graph(strqubo::build_palindrome(4));

  const auto lone = graph::find_embedding(logical, target, 7, 8);
  ASSERT_TRUE(lone.has_value());
  for (const auto& embedding : run_concurrently(
           [&] { return graph::find_embedding(logical, target, 7, 8); })) {
    ASSERT_TRUE(embedding.has_value());
    EXPECT_EQ(lone->chains, embedding->chains);
  }
}

// A shared cache hands the second sampler the first sampler's embedding,
// bit-identical, and the hit is visible on both the cache accessor and the
// embed.cache.hits telemetry counter. The second solve performs no
// embedding search at all: misses stays at 1.
TEST(EmbeddingCacheSharing, HitReturnsBitIdenticalEmbedding) {
  telemetry::set_mode(telemetry::Mode::kSummary);
  telemetry::reset();

  const graph::Graph target = graph::make_chimera(4, 4, 4);
  auto cache = std::make_shared<graph::EmbeddingCache>();
  graph::EmbeddedSamplerParams params;
  params.anneal.num_reads = 8;
  params.anneal.num_sweeps = 64;
  params.embedding_cache = cache;

  const auto model = strqubo::build_palindrome(3);
  const graph::EmbeddedSampler cold(target, params);
  graph::EmbeddedSampleStats cold_stats;
  (void)cold.sample_with_stats(model, cold_stats);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().misses, 1u);

  const graph::EmbeddedSampler warm(target, params);
  graph::EmbeddedSampleStats warm_stats;
  (void)warm.sample_with_stats(model, warm_stats);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u) << "warm solve must skip find_embedding";
  EXPECT_EQ(warm_stats.embedding.chains, cold_stats.embedding.chains);

  const auto snapshot = telemetry::registry().snapshot();
  ASSERT_NE(snapshot.counter("embed.cache.hits"), nullptr);
  EXPECT_EQ(snapshot.counter("embed.cache.hits")->value, 1u);
  ASSERT_NE(snapshot.counter("embed.cache.misses"), nullptr);
  EXPECT_EQ(snapshot.counter("embed.cache.misses")->value, 1u);

  telemetry::reset();
  telemetry::set_mode(telemetry::Mode::kOff);
}

// The service's embedded portfolio lane constructs a fresh sampler per
// attempt; embedded_member must share one cache across them so a
// structurally-identical warm solve skips find_embedding entirely.
TEST(EmbeddingCacheSharing, EmbeddedMemberAttemptsShareOneCache) {
  const graph::Graph target = graph::make_chimera(4, 4, 4);
  graph::EmbeddedSamplerParams base;
  base.anneal.num_reads = 8;
  base.anneal.num_sweeps = 64;
  const service::PortfolioMember member =
      service::embedded_member("embedded", target, base);

  // Two attempts, two samplers — the way the service retries with reseeds.
  const auto first = member.make(1, CancelToken());
  const auto second = member.make(2, CancelToken());
  const auto model = strqubo::build_palindrome(3);
  (void)first->sample(model);
  (void)second->sample(model);

  const auto* warm = dynamic_cast<const graph::EmbeddedSampler*>(second.get());
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->embedding_cache()->stats().misses, 1u)
      << "second attempt repeated the embedding search";
  EXPECT_EQ(warm->embedding_cache()->stats().hits, 1u);
}

// LRU bound: capacity + 1 distinct shapes evict the oldest, and a re-solve
// of the evicted shape misses again.
TEST(EmbeddingCacheLru, EvictsLeastRecentlyUsedShape) {
  graph::EmbeddingCache cache(2);
  const graph::Graph target = graph::make_chimera(4, 4, 4);
  const auto shape = [](std::size_t len) {
    return graph::logical_graph(strqubo::build_palindrome(len));
  };
  const graph::Embedding dummy{
      {{0}}};  // Contents irrelevant; the cache stores it opaquely.
  cache.insert(shape(3), dummy);
  cache.insert(shape(4), dummy);
  EXPECT_TRUE(cache.lookup(shape(3)).has_value());  // 3 now most recent.
  cache.insert(shape(5), dummy);                    // Evicts 4.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_FALSE(cache.lookup(shape(4)).has_value());
  EXPECT_TRUE(cache.lookup(shape(3)).has_value());
  EXPECT_TRUE(cache.lookup(shape(5)).has_value());
}

TEST(StructureHash, DistinguishesShapesAndIgnoresCoefficients) {
  const auto a = graph::logical_graph(strqubo::build_palindrome(3));
  const auto b = graph::logical_graph(strqubo::build_palindrome(4));
  EXPECT_NE(graph::structure_hash(a), graph::structure_hash(b));
  // Two palindromes of one length differ only in coefficients upstream; the
  // logical graphs are identical and must hash identically.
  const auto a2 = graph::logical_graph(strqubo::build_palindrome(3));
  EXPECT_EQ(graph::structure_hash(a), graph::structure_hash(a2));
}

}  // namespace
}  // namespace qsmt
