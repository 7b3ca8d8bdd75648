#include "anneal/reverse.hpp"

#include <algorithm>

#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/simulated_annealer.hpp"
#include "qubo/adjacency.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

std::vector<double> make_reverse_schedule(double beta_cold, double dip_beta,
                                          std::size_t num_sweeps) {
  require(beta_cold > 0.0 && dip_beta > 0.0 && dip_beta <= beta_cold,
          "make_reverse_schedule: need 0 < dip_beta <= beta_cold");
  require(num_sweeps >= 2, "make_reverse_schedule: need at least two sweeps");
  const std::size_t down = num_sweeps / 2;
  const std::size_t up = num_sweeps - down;
  std::vector<double> schedule =
      make_schedule(beta_cold, dip_beta, down, Interpolation::kGeometric);
  const std::vector<double> back =
      make_schedule(dip_beta, beta_cold, up, Interpolation::kGeometric);
  schedule.insert(schedule.end(), back.begin(), back.end());
  return schedule;
}

ReverseAnnealer::ReverseAnnealer(std::vector<std::uint8_t> initial_state,
                                 ReverseAnnealerParams params)
    : initial_state_(std::move(initial_state)), params_(params) {
  require(params_.num_reads >= 1, "ReverseAnnealer: num_reads >= 1");
  require(params_.num_sweeps >= 2, "ReverseAnnealer: num_sweeps >= 2");
  require(params_.reheat_fraction > 0.0 && params_.reheat_fraction <= 1.0,
          "ReverseAnnealer: reheat_fraction must be in (0, 1]");
}

SampleSet ReverseAnnealer::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

SampleSet ReverseAnnealer::sample(const qubo::QuboAdjacency& adjacency) const {
  SampleSet set;
  sample_until(adjacency, [&](std::span<const std::uint8_t> bits,
                              double energy) {
    set.add(std::vector<std::uint8_t>(bits.begin(), bits.end()), energy);
    return false;
  });
  set.aggregate();
  return set;
}

std::size_t ReverseAnnealer::sample_until(const qubo::QuboAdjacency& adjacency,
                                          const ReadVisitor& visit) const {
  const std::size_t n = adjacency.num_variables();
  require(initial_state_.size() == n,
          "ReverseAnnealer: initial state size does not match model");

  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas = make_reverse_schedule(
      range.cold, range.cold * params_.reheat_fraction, params_.num_sweeps);

  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    Xoshiro256 rng(params_.seed ^ 0x5e7e15edULL, r);
    std::copy(initial_state_.begin(), initial_state_.end(), ctx.bits.begin());
    // The kernel arms its zero-flip exit only on the schedule's
    // non-decreasing suffix, so the cold opening sweeps of this reverse
    // schedule cannot abort the read before the reheat dip executes — a
    // polished initial state always gets its escape attempt.
    detail::anneal_read(adjacency, betas, rng, ctx);
    if (params_.polish_with_greedy)
      detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    if (visit(ctx.bits, adjacency.energy(ctx.bits))) return r + 1;
  }
  return params_.num_reads;
}

}  // namespace qsmt::anneal
