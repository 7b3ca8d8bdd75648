#include "graph/embedded_sampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace qsmt::graph {

EmbeddedSampler::EmbeddedSampler(const Graph& target,
                                 EmbeddedSamplerParams params)
    : target_(target),
      params_(std::move(params)),
      cache_(params_.embedding_cache
                 ? params_.embedding_cache
                 : std::make_shared<EmbeddingCache>()) {
  require(target_.finalized(), "EmbeddedSampler: target graph not finalized");
}

qubo::QuboModel EmbeddedSampler::embed_model(const qubo::QuboModel& logical,
                                             const Embedding& embedding,
                                             double chain_strength) const {
  qubo::QuboModel physical(target_.num_nodes());

  // Chain ownership lookup.
  std::vector<std::int64_t> owner(target_.num_nodes(), -1);
  for (std::size_t v = 0; v < embedding.chains.size(); ++v) {
    for (std::uint32_t q : embedding.chains[v])
      owner[q] = static_cast<std::int64_t>(v);
  }

  // Linear terms: split equally across the chain.
  for (std::size_t v = 0; v < logical.num_variables(); ++v) {
    const double lin = logical.linear_terms()[v];
    if (lin == 0.0) continue;
    const auto& chain = embedding.chains[v];
    for (std::uint32_t q : chain)
      physical.add_linear(q, lin / static_cast<double>(chain.size()));
  }

  // Quadratic terms: split equally across available physical couplers.
  for (const auto& [key, value] : logical.quadratic_terms()) {
    if (value == 0.0) continue;
    const auto a = static_cast<std::size_t>(key >> 32);
    const auto b = static_cast<std::size_t>(key & 0xffffffffULL);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> couplers;
    for (std::uint32_t q : embedding.chains[a]) {
      for (std::uint32_t w : target_.neighbors(q)) {
        if (owner[w] == static_cast<std::int64_t>(b)) couplers.emplace_back(q, w);
      }
    }
    require(!couplers.empty(),
            "embed_model: logical edge has no physical coupler");
    for (const auto& [q, w] : couplers) {
      physical.add_quadratic(q, w,
                             value / static_cast<double>(couplers.size()));
    }
  }

  // Intra-chain ferromagnetic couplings: equality gadget on every hardware
  // edge internal to a chain (disagreement costs chain_strength per edge).
  for (const auto& chain : embedding.chains) {
    for (std::uint32_t q : chain) {
      for (std::uint32_t w : target_.neighbors(q)) {
        if (w <= q || owner[w] != owner[q]) continue;
        physical.add_linear(q, chain_strength);
        physical.add_linear(w, chain_strength);
        physical.add_quadratic(q, w, -2.0 * chain_strength);
      }
    }
  }
  return physical;
}

anneal::SampleSet EmbeddedSampler::sample(const qubo::QuboModel& model) const {
  EmbeddedSampleStats stats;
  return sample_with_stats(model, stats);
}

std::size_t EmbeddedSampler::embedding_cache_hits() const {
  return cache_->stats().hits;
}

anneal::SampleSet EmbeddedSampler::sample_with_stats(
    const qubo::QuboModel& model, EmbeddedSampleStats& stats) const {
  telemetry::Span span("graph.embedded_sample");
  span.arg("num_variables", static_cast<double>(model.num_variables()));
  const Graph logical = logical_graph(model);

  // The cache emits embed.cache.hits/.misses itself; a hit skips
  // find_embedding entirely, which is the whole point for the redundant
  // structure of string QUBOs.
  std::optional<Embedding> embedding = cache_->lookup(logical);
  if (!embedding) {
    telemetry::Span find_span("graph.find_embedding");
    embedding = find_embedding(logical, target_, params_.embedding_seed,
                               params_.embedding_attempts);
    find_span.close();
    if (embedding) cache_->insert(logical, *embedding);
  }
  if (!embedding) {
    throw std::runtime_error(
        "EmbeddedSampler: could not embed model onto target topology");
  }

  static const auto chain_length =
      telemetry::histogram("graph.chain_length", telemetry::Unit::kCount);
  if (telemetry::enabled()) {  // Skips the walk over the chains.
    for (const auto& chain : embedding->chains) {
      chain_length.record(static_cast<double>(chain.size()));
    }
  }

  const double chain_strength = params_.chain_strength.value_or(
      1.5 * std::max(model.max_abs_coefficient(), 1.0));
  telemetry::Span embed_span("graph.embed_model");
  const qubo::QuboModel physical =
      embed_model(model, *embedding, chain_strength);
  embed_span.close();
  static const auto strength = telemetry::gauge("graph.chain_strength");
  static const auto qubits = telemetry::gauge("graph.physical_variables");
  strength.set(chain_strength);
  qubits.set(static_cast<double>(embedding->total_physical()));

  const anneal::SimulatedAnnealer inner(params_.anneal);
  const anneal::SampleSet physical_samples = inner.sample(physical);

  telemetry::Span unembed_span("graph.unembed");
  anneal::SampleSet logical_samples;
  std::size_t broken_chains = 0;
  std::size_t chain_checks = 0;
  std::size_t discarded = 0;

  for (const auto& phys : physical_samples) {
    std::vector<std::uint8_t> bits(model.num_variables(), 0);
    bool any_broken = false;
    for (std::size_t v = 0; v < model.num_variables(); ++v) {
      const auto& chain = embedding->chains[v];
      std::size_t ones = 0;
      for (std::uint32_t q : chain) ones += phys.bits[q];
      chain_checks += phys.num_occurrences;
      if (ones != 0 && ones != chain.size()) {
        broken_chains += phys.num_occurrences;
        any_broken = true;
      }
      bits[v] = (2 * ones > chain.size()) ? 1 : 0;  // Majority, ties -> 0.
    }
    if (any_broken &&
        params_.chain_break_resolution == ChainBreakResolution::kDiscard) {
      discarded += phys.num_occurrences;
      continue;
    }
    const double energy = model.energy(bits);
    logical_samples.add(std::move(bits), energy, phys.num_occurrences);
  }
  logical_samples.aggregate();
  unembed_span.close();
  static const auto checks = telemetry::counter("graph.chain_checks");
  static const auto breaks = telemetry::counter("graph.chain_breaks");
  static const auto discards = telemetry::counter("graph.discarded_samples");
  static const auto break_rate =
      telemetry::histogram("graph.chain_break_rate", telemetry::Unit::kRatio);
  checks.add(static_cast<std::uint64_t>(chain_checks));
  breaks.add(static_cast<std::uint64_t>(broken_chains));
  discards.add(static_cast<std::uint64_t>(discarded));
  if (chain_checks != 0) {
    break_rate.record(static_cast<double>(broken_chains) /
                      static_cast<double>(chain_checks));
  }

  stats.embedding = std::move(*embedding);
  stats.chain_break_fraction =
      chain_checks == 0 ? 0.0
                        : static_cast<double>(broken_chains) /
                              static_cast<double>(chain_checks);
  stats.discarded_samples = discarded;
  stats.physical_variables = stats.embedding.total_physical();
  return logical_samples;
}

}  // namespace qsmt::graph
