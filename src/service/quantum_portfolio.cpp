#include "service/quantum_portfolio.hpp"

#include <memory>
#include <utility>

#include "graph/embedding_cache.hpp"

namespace qsmt::service {

PortfolioMember path_integral_member(std::string name,
                                     anneal::PathIntegralParams base) {
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base](std::uint64_t seed,
                       CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    anneal::PathIntegralParams params = base;
    params.seed = seed;
    params.cancel = std::move(cancel);
    return std::make_unique<anneal::PathIntegralAnnealer>(params);
  };
  return member;
}

PortfolioMember embedded_member(std::string name, const graph::Graph& target,
                                graph::EmbeddedSamplerParams base) {
  // One embedding cache for every sampler this rung ever constructs:
  // attempts get fresh samplers (independent RNG streams), but the first
  // solve of each graph shape pays for the embedding search exactly once —
  // warm solves of structurally-identical QUBOs skip find_embedding.
  if (!base.embedding_cache) {
    base.embedding_cache = std::make_shared<graph::EmbeddingCache>();
  }
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base, &target](
                    std::uint64_t seed,
                    CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    graph::EmbeddedSamplerParams params = base;
    params.anneal.seed = seed;
    params.anneal.cancel = std::move(cancel);
    return std::make_unique<graph::EmbeddedSampler>(target, params);
  };
  return member;
}

std::vector<PortfolioMember> quantum_portfolio(const graph::Graph& target) {
  anneal::SimulatedAnnealerParams fast;
  fast.num_reads = 16;
  fast.num_sweeps = 64;
  // Light PIMC rung: with the incremental-field kernel a low-budget
  // transverse-field schedule is cheap enough to try on the jobs sa-fast
  // leaves unverified (frustrated / degenerate ground-state manifolds).
  anneal::PathIntegralParams pimc;
  pimc.num_reads = 4;
  pimc.num_sweeps = 48;
  pimc.num_slices = 8;
  // Embedded rung: the shared embedding cache inside embedded_member means
  // only the first job of each graph shape pays the minor-embedding search.
  graph::EmbeddedSamplerParams embedded;
  embedded.anneal.num_reads = 16;
  embedded.anneal.num_sweeps = 96;
  std::vector<PortfolioMember> portfolio;
  portfolio.push_back(simulated_annealing_member("sa-fast", fast));
  portfolio.push_back(path_integral_member("pimc-light", pimc));
  portfolio.push_back(embedded_member("embedded", target, embedded));
  return portfolio;
}

}  // namespace qsmt::service
