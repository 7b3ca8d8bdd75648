// Parallel tempering (replica-exchange Monte Carlo) over QUBO models.
//
// K replicas run Metropolis sweeps at a geometric ladder of inverse
// temperatures; after each sweep, adjacent replicas propose to swap
// configurations with the standard replica-exchange acceptance
//   min(1, exp((β_a - β_b) (E_a - E_b))).
// Hot replicas roam the landscape, cold replicas refine — a stronger
// heuristic than independent-restart SA on rugged instances, included here
// as the strongest classical comparator for the sampler benches (E2).
//
// Reads (independent tempering runs) run in order on the calling thread
// with the same counter-seeded determinism guarantees as the other samplers.
#pragma once

#include <cstdint>
#include <optional>

#include "anneal/sampler.hpp"
#include "anneal/schedule.hpp"
#include "util/cancel.hpp"

namespace qsmt::anneal {

struct ParallelTemperingParams {
  std::size_t num_reads = 16;     ///< Independent tempering runs.
  std::size_t num_sweeps = 256;   ///< Sweeps (with one exchange round each).
  std::size_t num_replicas = 8;   ///< Temperature-ladder rungs.
  std::uint64_t seed = 0;
  /// β ladder endpoints. When unset, derived from default_beta_range().
  std::optional<double> beta_hot;
  std::optional<double> beta_cold;
  bool polish_with_greedy = true;
  /// Cooperative cancellation, polled once per exchange round (i.e. per
  /// ladder sweep) and before each read. See SimulatedAnnealerParams::cancel
  /// for the contract.
  CancelToken cancel;
};

class ParallelTempering final : public Sampler {
 public:
  explicit ParallelTempering(ParallelTemperingParams params = {});

  SampleSet sample(const qubo::QuboModel& model) const override;
  SampleSet sample(const qubo::QuboAdjacency& adjacency) const override;
  std::string name() const override { return "parallel-tempering"; }
  bool supports_adjacency_sampling() const noexcept override { return true; }

  const ParallelTemperingParams& params() const noexcept { return params_; }

 private:
  ParallelTemperingParams params_;
};

}  // namespace qsmt::anneal
