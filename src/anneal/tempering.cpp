#include "anneal/tempering.hpp"

#include <cmath>
#include <vector>

#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/simulated_annealer.hpp"
#include "qubo/adjacency.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

ParallelTempering::ParallelTempering(ParallelTemperingParams params)
    : params_(params) {
  require(params_.num_reads >= 1, "ParallelTempering: num_reads >= 1");
  require(params_.num_sweeps >= 1, "ParallelTempering: num_sweeps >= 1");
  require(params_.num_replicas >= 2, "ParallelTempering: num_replicas >= 2");
}

namespace {

struct Replica {
  std::vector<std::uint8_t> bits;
  std::vector<double> field;
  double energy = 0.0;
};

}  // namespace

SampleSet ParallelTempering::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

SampleSet ParallelTempering::sample(
    const qubo::QuboAdjacency& adjacency) const {
  const std::size_t n = adjacency.num_variables();

  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas = make_schedule(
      params_.beta_hot.value_or(range.hot),
      params_.beta_cold.value_or(range.cold), params_.num_replicas,
      Interpolation::kGeometric);

  const CancelToken* cancel =
      params_.cancel.cancellable() ? &params_.cancel : nullptr;

  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    Xoshiro256 rng(params_.seed ^ 0x7e57ab1eULL, r);
    // The O(n·deg) field build runs exactly once per replica, here. It never
    // needs repeating: the sweeps maintain fields incrementally, and exchange
    // moves below swap whole Replica structs, so each field array travels
    // with the bits it describes.
    std::vector<Replica> ladder(params_.num_replicas);
    for (Replica& replica : ladder) {
      replica.bits.resize(n);
      for (auto& b : replica.bits) b = rng.coin() ? 1 : 0;
      replica.field.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        replica.field[i] = adjacency.local_field(replica.bits, i);
      }
      replica.energy = adjacency.energy(replica.bits);
    }

    std::vector<std::uint8_t> best_bits = ladder.back().bits;
    double best_energy = ladder.back().energy;
    auto consider = [&](const Replica& replica) {
      if (replica.energy < best_energy) {
        best_energy = replica.energy;
        best_bits = replica.bits;
      }
    };
    for (const Replica& replica : ladder) consider(replica);

    std::size_t read_flips = 0;
    for (std::size_t s = 0; s < params_.num_sweeps; ++s) {
      // Cancellation is polled once per exchange round: the ladder is
      // consistent between rounds, and `best_bits` already holds the best
      // state seen, so a cancelled read returns it immediately.
      if (cancel && cancel->cancelled()) break;
      for (std::size_t k = 0; k < ladder.size(); ++k) {
        Replica& replica = ladder[k];
        read_flips += detail::metropolis_sweep(
            adjacency, betas[k], rng, replica.bits, replica.field,
            ctx.uniforms, &replica.energy);
        consider(replica);
      }
      // Exchange round: alternate even/odd pairings so information can
      // percolate across the whole ladder.
      for (std::size_t k = s % 2; k + 1 < ladder.size(); k += 2) {
        const double exponent = (betas[k] - betas[k + 1]) *
                                (ladder[k].energy - ladder[k + 1].energy);
        if (exponent >= 0.0 || rng.uniform() < std::exp(exponent)) {
          // Swapping the full structs (bits + field + energy, all vector
          // moves) keeps the cached fields attached to their configuration —
          // an exchange only re-labels which temperature a state sweeps at,
          // so no field rebuild is needed afterwards.
          std::swap(ladder[k], ladder[k + 1]);
        }
      }
    }

    if (params_.polish_with_greedy && !(cancel && cancel->cancelled())) {
      detail::greedy_descend(adjacency, best_bits);
      best_energy = adjacency.energy(best_bits);
    }
    const std::size_t ladder_sweeps = params_.num_sweeps * ladder.size();
    record_read_stats(ReadStats{n, read_flips, ladder_sweeps, ladder_sweeps,
                                false});
    Sample out;
    out.energy = best_energy;
    out.bits = std::move(best_bits);
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
