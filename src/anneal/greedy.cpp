#include "anneal/greedy.hpp"

#include "anneal/context.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

namespace detail {

std::size_t greedy_descend(const qubo::QuboAdjacency& adjacency,
                           std::vector<std::uint8_t>& bits,
                           std::vector<double>& field) {
  const std::size_t n = adjacency.num_variables();
  std::size_t flips = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    // Steepest: pick the single best flip each round.
    double best_delta = 0.0;
    std::size_t best_var = n;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      if (delta < best_delta) {
        best_delta = delta;
        best_var = i;
      }
    }
    if (best_var != n) {
      const double step = bits[best_var] ? -1.0 : 1.0;
      bits[best_var] ^= 1u;
      for (const auto& nb : adjacency.neighbors(best_var)) {
        field[nb.index] += nb.coefficient * step;
      }
      ++flips;
      improved = true;
    }
  }
  return flips;
}

std::size_t greedy_descend(const qubo::QuboAdjacency& adjacency,
                           std::vector<std::uint8_t>& bits) {
  const std::size_t n = adjacency.num_variables();
  std::vector<double> field(n);
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);
  return greedy_descend(adjacency, bits, field);
}

}  // namespace detail

GreedyDescent::GreedyDescent(GreedyDescentParams params) : params_(params) {
  require(params_.num_reads >= 1, "GreedyDescent: num_reads must be >= 1");
}

SampleSet GreedyDescent::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

SampleSet GreedyDescent::sample(const qubo::QuboAdjacency& adjacency) const {
  const std::size_t n = adjacency.num_variables();
  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    Xoshiro256 rng(params_.seed, r);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;
    for (std::size_t i = 0; i < n; ++i)
      ctx.field[i] = adjacency.local_field(ctx.bits, i);
    detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    Sample out;
    out.energy = adjacency.energy(ctx.bits);
    out.bits.assign(ctx.bits.begin(), ctx.bits.end());
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
