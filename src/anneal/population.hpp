// Population annealing over QUBO models.
//
// A sequential Monte Carlo cousin of simulated annealing (Hukushima & Iba
// 2003; Machta 2010): a population of replicas is cooled along a β
// schedule, and at every temperature step each replica is resampled with
// multiplicity proportional to exp(-Δβ · E) before a round of Metropolis
// sweeps re-equilibrates it. The resampling concentrates the population in
// low-energy basins faster than independent restarts, making this the
// strongest "many walkers" classical comparator in the suite.
//
// One read = one full population run (reads run in order on the calling
// thread, same counter-seeded determinism as the other samplers); the
// returned sample of a read is its best replica, polished greedily if
// configured.
#pragma once

#include <cstdint>
#include <optional>

#include "anneal/sampler.hpp"
#include "anneal/schedule.hpp"

namespace qsmt::anneal {

struct PopulationAnnealingParams {
  std::size_t num_reads = 8;          ///< Independent population runs.
  std::size_t population_size = 64;   ///< Replicas per run.
  std::size_t num_temperatures = 32;  ///< β ladder steps.
  std::size_t sweeps_per_step = 4;    ///< Metropolis sweeps per β step.
  std::uint64_t seed = 0;
  /// β endpoints. When unset, derived per-model via default_beta_range().
  std::optional<double> beta_hot;
  std::optional<double> beta_cold;
  bool polish_with_greedy = true;
};

class PopulationAnnealing final : public Sampler {
 public:
  explicit PopulationAnnealing(PopulationAnnealingParams params = {});

  SampleSet sample(const qubo::QuboModel& model) const override;
  SampleSet sample(const qubo::QuboAdjacency& adjacency) const override;
  std::string name() const override { return "population-annealing"; }
  bool supports_adjacency_sampling() const noexcept override { return true; }

  const PopulationAnnealingParams& params() const noexcept { return params_; }

 private:
  PopulationAnnealingParams params_;
};

}  // namespace qsmt::anneal
