// Structure-keyed minor-embedding cache.
//
// String QUBOs are highly redundant in shape: every palindrome constraint of
// one length yields the same logical graph, every equality of one operand
// size likewise — only the coefficients differ, and an embedding depends on
// the structure alone. Caching embeddings by the canonical logical edge set
// therefore turns the minor-embedding search (which dominates small-problem
// embedded solves) into a hash lookup for all but the first solve of each
// shape.
//
// Entries are keyed by the graph's shape (node count, sorted edge list),
// hashed by structure_hash and compared in full on every hit, so a hash
// collision costs one extra compare instead of ever serving a wrong
// embedding. The cache is a bounded, thread-safe util::LruCache: one
// instance can be shared across samplers
// (EmbeddedSamplerParams::embedding_cache), which is how the solve service
// lets every attempt of a portfolio lane reuse warm embeddings.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/embedding.hpp"
#include "graph/graph.hpp"
#include "util/lru_cache.hpp"

namespace qsmt::graph {

/// What an embedding depends on: the node count and the sorted edge list.
struct GraphShape {
  std::size_t num_nodes = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  bool operator==(const GraphShape&) const = default;
};

/// Canonical 64-bit structure hash of a finalized graph: node count plus the
/// sorted edge list (Graph::finalize sorts edges, so isomorphic *labelled*
/// graphs — same node ids, same edges — hash identically regardless of
/// insertion order). Exposed for tests.
std::uint64_t structure_hash(const Graph& graph);

class EmbeddingCache {
 public:
  /// `capacity` bounds the number of distinct graph shapes retained; the
  /// least-recently-used entry is evicted beyond that.
  explicit EmbeddingCache(std::size_t capacity = 64);

  /// Returns the cached embedding for `logical`'s structure, refreshing its
  /// LRU position, or std::nullopt. Emits embed.cache.hits / .misses.
  std::optional<Embedding> lookup(const Graph& logical);

  /// Stores `embedding` for `logical`'s structure (no-op if already
  /// present: racing inserts keep the first). Evicts the LRU entry when
  /// over capacity.
  void insert(const Graph& logical, const Embedding& embedding);

  /// Mirror of the embed.cache.* counters and gauges; `bytes` counts the
  /// LRU nodes plus the stored edge lists and embedding chains.
  util::CacheStats stats() const { return cache_.stats(); }

 private:
  struct ShapeHash {
    std::size_t operator()(const GraphShape& shape) const;
  };

  util::LruCache<GraphShape, Embedding, ShapeHash> cache_;
};

}  // namespace qsmt::graph
