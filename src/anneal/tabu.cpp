#include "anneal/tabu.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "qubo/adjacency.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

TabuSampler::TabuSampler(TabuParams params) : params_(params) {
  require(params_.num_restarts >= 1, "TabuSampler: num_restarts must be >= 1");
  require(params_.max_stale_iterations >= 1,
          "TabuSampler: max_stale_iterations must be >= 1");
}

namespace {

Sample tabu_walk(const qubo::QuboAdjacency& adjacency, std::size_t tenure,
                 std::size_t max_stale, Xoshiro256& rng) {
  const std::size_t n = adjacency.num_variables();
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.coin() ? 1 : 0;

  std::vector<double> field(n);
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);
  double energy = adjacency.energy(bits);

  std::vector<std::size_t> tabu_until(n, 0);
  std::vector<std::uint8_t> best_bits = bits;
  double best_energy = energy;

  std::size_t iteration = 0;
  std::size_t stale = 0;
  while (stale < max_stale) {
    ++iteration;
    double best_delta = std::numeric_limits<double>::infinity();
    std::size_t best_var = n;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      const bool is_tabu = tabu_until[i] > iteration;
      // Aspiration: a tabu move is admissible when it beats the global best.
      if (is_tabu && energy + delta >= best_energy) continue;
      if (delta < best_delta) {
        best_delta = delta;
        best_var = i;
      }
    }
    if (best_var == n) {
      // Everything tabu and nothing aspires: release by jumping randomly.
      best_var = static_cast<std::size_t>(rng.below(n));
      best_delta = bits[best_var] ? -field[best_var] : field[best_var];
    }

    const double step = bits[best_var] ? -1.0 : 1.0;
    bits[best_var] ^= 1u;
    energy += best_delta;
    for (const auto& nb : adjacency.neighbors(best_var)) {
      field[nb.index] += nb.coefficient * step;
    }
    tabu_until[best_var] = iteration + tenure;

    if (energy < best_energy - 1e-12) {
      best_energy = energy;
      best_bits = bits;
      stale = 0;
    } else {
      ++stale;
    }
  }
  return Sample{std::move(best_bits), best_energy, 1};
}

}  // namespace

SampleSet TabuSampler::sample(const qubo::QuboModel& model) const {
  const qubo::QuboAdjacency adjacency(model);
  const std::size_t n = adjacency.num_variables();
  const std::size_t tenure =
      params_.tenure.value_or(std::min<std::size_t>(20, n / 4 + 1));
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_restarts; ++r) {
    Xoshiro256 rng(params_.seed, r);
    set.add(tabu_walk(adjacency, tenure, params_.max_stale_iterations, rng));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
