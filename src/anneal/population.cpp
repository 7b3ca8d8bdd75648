#include "anneal/population.hpp"

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

PopulationAnnealing::PopulationAnnealing(PopulationAnnealingParams params)
    : params_(params) {
  require(params_.num_reads >= 1, "PopulationAnnealing: num_reads >= 1");
  require(params_.population_size >= 2,
          "PopulationAnnealing: population_size >= 2");
  require(params_.num_temperatures >= 2,
          "PopulationAnnealing: num_temperatures >= 2");
  require(params_.sweeps_per_step >= 1,
          "PopulationAnnealing: sweeps_per_step >= 1");
}

namespace {

struct Walker {
  std::vector<std::uint8_t> bits;
  double energy = 0.0;
};

// `sweeps` exp-free Metropolis sweeps of `walker` at `beta`. `ctx` supplies
// the field and uniform scratch buffers; walkers keep only their bits and
// energy, so resampling copies stay cheap.
// Returns the number of accepted flips (telemetry).
std::size_t metropolis_sweeps(const qubo::QuboAdjacency& adjacency,
                              Walker& walker, double beta, std::size_t sweeps,
                              Xoshiro256& rng, AnnealContext& ctx) {
  const std::size_t n = adjacency.num_variables();
  // One O(n·deg) field build per (walker, beta) call, then incremental
  // updates for all `sweeps` sweeps. The rebuild cannot be hoisted across
  // calls: resampling duplicates and kills walkers between beta steps, and
  // Walker deliberately carries no field array (copies during resampling
  // would then cost O(n) doubles each) — so the shared ctx.field must be
  // refreshed for whichever bits this walker now holds.
  for (std::size_t i = 0; i < n; ++i) {
    ctx.field[i] = adjacency.local_field(walker.bits, i);
  }
  std::size_t flips = 0;
  for (std::size_t s = 0; s < sweeps; ++s) {
    flips += detail::metropolis_sweep(adjacency, beta, rng, walker.bits,
                                      ctx.field, ctx.uniforms,
                                      &walker.energy);
  }
  return flips;
}

}  // namespace

SampleSet PopulationAnnealing::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

SampleSet PopulationAnnealing::sample(
    const qubo::QuboAdjacency& adjacency) const {
  const std::size_t n = adjacency.num_variables();

  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas = make_schedule(
      params_.beta_hot.value_or(range.hot),
      params_.beta_cold.value_or(range.cold), params_.num_temperatures,
      Interpolation::kGeometric);

  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    Xoshiro256 rng(params_.seed ^ 0x9090aaULL, r);
    std::vector<Walker> population(params_.population_size);
    for (Walker& walker : population) {
      walker.bits.resize(n);
      for (auto& b : walker.bits) b = rng.coin() ? 1 : 0;
      walker.energy = adjacency.energy(walker.bits);
    }

    std::vector<std::uint8_t> best_bits = population.front().bits;
    double best_energy = population.front().energy;
    auto consider = [&](const Walker& walker) {
      if (walker.energy < best_energy) {
        best_energy = walker.energy;
        best_bits = walker.bits;
      }
    };
    for (const Walker& walker : population) consider(walker);

    std::size_t read_flips = 0;
    std::size_t read_sweeps = 0;
    double previous_beta = betas.front();
    for (double beta : betas) {
      const double delta_beta = beta - previous_beta;
      previous_beta = beta;

      if (delta_beta > 0.0) {
        // Resampling: weight w_i = exp(-Δβ (E_i - E_min)); each walker
        // spawns floor(W) copies plus one more with probability frac(W),
        // where W = w_i * (target / Σw). Keeps the expected population size.
        double min_energy = population.front().energy;
        for (const Walker& w : population) {
          min_energy = std::min(min_energy, w.energy);
        }
        double total_weight = 0.0;
        std::vector<double> weights(population.size());
        for (std::size_t i = 0; i < population.size(); ++i) {
          weights[i] = std::exp(-delta_beta *
                                (population[i].energy - min_energy));
          total_weight += weights[i];
        }
        std::vector<Walker> next;
        next.reserve(params_.population_size + 8);
        const double scale =
            static_cast<double>(params_.population_size) / total_weight;
        for (std::size_t i = 0; i < population.size(); ++i) {
          const double expected = weights[i] * scale;
          auto copies = static_cast<std::size_t>(expected);
          if (rng.uniform() < expected - static_cast<double>(copies)) {
            ++copies;
          }
          for (std::size_t c = 0; c < copies; ++c) {
            next.push_back(population[i]);
          }
        }
        // Guard against extinction (possible at tiny populations).
        if (next.empty()) {
          next.push_back(population[rng.below(population.size())]);
        }
        population = std::move(next);
      }

      for (Walker& walker : population) {
        read_flips += metropolis_sweeps(adjacency, walker, beta,
                                        params_.sweeps_per_step, rng, ctx);
        read_sweeps += params_.sweeps_per_step;
        consider(walker);
      }
    }
    record_read_stats(ReadStats{n, read_flips, read_sweeps, read_sweeps,
                                false});

    if (params_.polish_with_greedy) {
      detail::greedy_descend(adjacency, best_bits);
      best_energy = adjacency.energy(best_bits);
    }
    Sample out;
    out.energy = best_energy;
    out.bits = std::move(best_bits);
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
