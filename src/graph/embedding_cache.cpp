#include "graph/embedding_cache.hpp"

#include <span>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::graph {

namespace {

// splitmix64 as the per-word mixer — the same finalizer the RNG seeding
// uses, strong enough that collisions are handled (shapes compared in
// full), not feared.
std::uint64_t hash_shape(
    std::size_t num_nodes,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges) {
  std::uint64_t h = mix_seed(0x9e3779b97f4a7c15ULL, num_nodes);
  for (const auto& [u, v] : edges) {
    h = mix_seed(h, (static_cast<std::uint64_t>(u) << 32) | v);
  }
  return h;
}

GraphShape shape_of(const Graph& graph) {
  require(graph.finalized(), "structure_hash: graph must be finalized");
  return {graph.num_nodes(), {graph.edges().begin(), graph.edges().end()}};
}

}  // namespace

std::uint64_t structure_hash(const Graph& graph) {
  require(graph.finalized(), "structure_hash: graph must be finalized");
  return hash_shape(graph.num_nodes(), graph.edges());
}

std::size_t EmbeddingCache::ShapeHash::operator()(
    const GraphShape& shape) const {
  return hash_shape(shape.num_nodes, shape.edges);
}

EmbeddingCache::EmbeddingCache(std::size_t capacity)
    : cache_("embed.cache", capacity) {}

std::optional<Embedding> EmbeddingCache::lookup(const Graph& logical) {
  return cache_.get(shape_of(logical));
}

void EmbeddingCache::insert(const Graph& logical, const Embedding& embedding) {
  GraphShape shape = shape_of(logical);
  std::size_t heap = shape.edges.size() * sizeof(shape.edges.front()) +
                     embedding.chains.size() * sizeof(embedding.chains.front());
  for (const auto& chain : embedding.chains) {
    heap += chain.size() * sizeof(std::uint32_t);
  }
  cache_.insert(std::move(shape), embedding, heap, util::OnExisting::kKeep);
}

}  // namespace qsmt::graph
