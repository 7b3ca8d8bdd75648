#include "anneal/exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "qubo/adjacency.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace qsmt::anneal {

ExactSolver::ExactSolver(ExactSolverParams params) : params_(params) {
  require(params_.max_samples >= 1, "ExactSolver: max_samples must be >= 1");
}

namespace {

// Index of the bit that changes between Gray codes of k and k+1.
std::size_t gray_flip_index(std::uint64_t k) noexcept {
  return static_cast<std::size_t>(__builtin_ctzll(k + 1));
}

// Visits all 2^n assignments in Gray-code order, n = field.size(). `field`
// starts as each variable's linear coefficient, `energy` as the all-zero
// energy, and `neighbors(i)` lists variable i's (index, coefficient) pairs
// in the same index space.
template <typename Neighbors, typename Visit>
void enumerate(std::vector<double> field, double energy,
               Neighbors&& neighbors, Visit&& visit) {
  const std::size_t n = field.size();
  std::vector<std::uint8_t> bits(n, 0);
  visit(bits, energy);
  const std::uint64_t total = 1ULL << n;
  for (std::uint64_t k = 0; k + 1 < total; ++k) {
    const std::size_t i = gray_flip_index(k);
    energy += bits[i] ? -field[i] : field[i];
    const double step = bits[i] ? -1.0 : 1.0;
    bits[i] ^= 1u;
    for (const auto& nb : neighbors(i)) {
      field[nb.index] += nb.coefficient * step;
    }
    visit(bits, energy);
  }
}

template <typename Visit>
void enumerate(const qubo::QuboAdjacency& adjacency, Visit&& visit) {
  std::vector<double> field(adjacency.num_variables());
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = adjacency.linear(i);
  enumerate(
      std::move(field), adjacency.offset(),
      [&](std::size_t i) { return adjacency.neighbors(i); },
      std::forward<Visit>(visit));
}

// Tie-break value of variable i: the bits of 'a' (0x61, MSB first) on
// string bits, 0 on auxiliary bits.
std::uint8_t tie_bit(std::size_t i, std::size_t string_bits) noexcept {
  if (i >= string_bits) return 0;
  return static_cast<std::uint8_t>((0x61u >> (6 - i % 7)) & 1u);
}

}  // namespace

SampleSet ExactSolver::sample(const qubo::QuboModel& model) const {
  require(model.num_variables() <= params_.max_variables,
          "ExactSolver: model exceeds max_variables");
  const qubo::QuboAdjacency adjacency(model);

  // Keep the best max_samples assignments seen so far. The candidate pool is
  // kept at twice the budget and compacted when full, so the enumeration
  // stays O(2^n log k) without a per-step sort.
  struct Candidate {
    std::vector<std::uint8_t> bits;
    double energy;
  };
  std::vector<Candidate> pool;
  pool.reserve(params_.max_samples * 2 + 1);
  double worst_kept = std::numeric_limits<double>::infinity();

  auto compact = [&] {
    std::sort(pool.begin(), pool.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.energy < b.energy;
              });
    if (pool.size() > params_.max_samples) pool.resize(params_.max_samples);
    worst_kept = pool.size() == params_.max_samples
                     ? pool.back().energy
                     : std::numeric_limits<double>::infinity();
  };

  enumerate(adjacency, [&](const std::vector<std::uint8_t>& bits,
                           double energy) {
    if (energy >= worst_kept) return;
    pool.push_back(Candidate{bits, energy});
    if (pool.size() >= params_.max_samples * 2) compact();
  });
  compact();

  SampleSet set;
  for (auto& c : pool) set.add(std::move(c.bits), c.energy);
  set.sort_by_energy();
  return set;
}

double ExactSolver::ground_energy(const qubo::QuboModel& model) const {
  require(model.num_variables() <= params_.max_variables,
          "ExactSolver: model exceeds max_variables");
  const qubo::QuboAdjacency adjacency(model);
  double best = std::numeric_limits<double>::infinity();
  enumerate(adjacency, [&](const std::vector<std::uint8_t>&, double energy) {
    best = std::min(best, energy);
  });
  return best;
}

std::optional<std::vector<std::uint8_t>> presolve(
    const qubo::QuboAdjacency& adjacency, std::size_t string_bits) {
  telemetry::Span span("presolve");
  using Neighbor = qubo::QuboAdjacency::Neighbor;
  const std::size_t n = adjacency.num_variables();
  std::vector<std::uint8_t> bits(n, 0);
  std::vector<std::uint8_t> seen(n, 0);
  // The current component: its variables in discovery order, each one's
  // local index, and its local CSR rows (reused across components).
  std::vector<std::uint32_t> component;
  std::vector<std::uint32_t> local(n, 0);
  std::vector<Neighbor> rows;
  std::vector<std::size_t> row_start;

  for (std::size_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    if (adjacency.neighbors(root).empty()) {
      const double field = adjacency.linear(root);
      bits[root] = field < 0.0   ? 1
                   : field > 0.0 ? 0
                                 : tie_bit(root, string_bits);
      continue;
    }

    component.assign(1, static_cast<std::uint32_t>(root));
    for (std::size_t head = 0; head < component.size(); ++head) {
      for (const Neighbor& nb : adjacency.neighbors(component[head])) {
        if (seen[nb.index]) continue;
        if (component.size() == kMaxPresolveComponent) {
          static const auto declined = telemetry::counter("presolve.declined");
          declined.add();
          return std::nullopt;
        }
        seen[nb.index] = 1;
        component.push_back(nb.index);
      }
    }

    const std::size_t size = component.size();
    std::vector<double> field(size);
    std::vector<std::uint8_t> preferred(size);
    double scale = 0.0;
    rows.clear();
    row_start.assign(1, 0);
    for (std::size_t c = 0; c < size; ++c) local[component[c]] = c;
    for (std::size_t c = 0; c < size; ++c) {
      field[c] = adjacency.linear(component[c]);
      preferred[c] = tie_bit(component[c], string_bits);
      scale += std::abs(field[c]);
      for (const Neighbor& nb : adjacency.neighbors(component[c])) {
        rows.push_back(Neighbor{local[nb.index], nb.coefficient});
        scale += std::abs(nb.coefficient);
      }
      row_start.push_back(rows.size());
    }

    // Gray-code updates accumulate rounding, so energies within a few
    // ulps of the component's coefficient mass count as one level.
    const double tolerance = 1e-9 * std::max(1.0, scale);
    const auto mismatches = [&](const std::vector<std::uint8_t>& candidate) {
      std::size_t count = 0;
      for (std::size_t c = 0; c < size; ++c) count += candidate[c] != preferred[c];
      return count;
    };
    std::vector<std::uint8_t> best;
    double best_energy = std::numeric_limits<double>::infinity();
    std::size_t best_mismatches = 0;
    enumerate(
        std::move(field), 0.0,
        [&](std::size_t c) {
          return std::span<const Neighbor>(rows.data() + row_start[c],
                                           row_start[c + 1] - row_start[c]);
        },
        [&](const std::vector<std::uint8_t>& candidate, double energy) {
          if (energy > best_energy + tolerance) return;
          const std::size_t count = mismatches(candidate);
          if (energy >= best_energy - tolerance && count >= best_mismatches) {
            return;
          }
          best = candidate;
          best_energy = std::min(best_energy, energy);
          best_mismatches = count;
        });
    for (std::size_t c = 0; c < size; ++c) bits[component[c]] = best[c];
  }
  return bits;
}

}  // namespace qsmt::anneal
