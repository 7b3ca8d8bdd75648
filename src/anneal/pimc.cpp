#include "anneal/pimc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/metropolis.hpp"
#include "anneal/schedule.hpp"
#include "qubo/adjacency.hpp"
#include "qubo/ising.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

double trotter_coupling(double gamma, std::size_t num_slices,
                        double temperature) {
  require(gamma > 0.0, "trotter_coupling: gamma must be positive");
  require(num_slices >= 2, "trotter_coupling: need at least two slices");
  require(temperature > 0.0, "trotter_coupling: temperature must be positive");
  const double pt = static_cast<double>(num_slices) * temperature;
  // -(T/2) ln tanh(Γ/(PT));  tanh < 1 so the log is negative and J⊥ > 0.
  return -(temperature / 2.0) * std::log(std::tanh(gamma / pt));
}

PathIntegralAnnealer::PathIntegralAnnealer(PathIntegralParams params)
    : params_(params) {
  require(params_.num_reads >= 1, "PathIntegralAnnealer: num_reads >= 1");
  require(params_.num_sweeps >= 1, "PathIntegralAnnealer: num_sweeps >= 1");
  require(params_.num_slices >= 2, "PathIntegralAnnealer: num_slices >= 2");
  require(params_.temperature > 0.0,
          "PathIntegralAnnealer: temperature must be positive");
  require(params_.gamma_hot > params_.gamma_cold && params_.gamma_cold > 0.0,
          "PathIntegralAnnealer: need gamma_hot > gamma_cold > 0");
}

namespace {

// Ising adjacency in flat arrays for the inner loop. `scale` multiplies
// every coefficient: the incremental kernel builds its view pre-scaled by
// beta/P so cached fields live directly in Metropolis-exponent units — the
// accept argument needs no beta or 1/P multiply per proposal (the reference
// kernel builds an unscaled view).
struct IsingView {
  std::vector<double> h;
  std::vector<std::size_t> row_start;
  struct Edge {
    std::uint32_t index;
    double weight;
  };
  std::vector<Edge> edges;

  explicit IsingView(const qubo::IsingModel& ising, double scale = 1.0)
      : h(ising.h) {
    const std::size_t n = h.size();
    for (auto& value : h) value *= scale;
    std::vector<std::size_t> degree(n, 0);
    for (const auto& [key, value] : ising.coupling) {
      if (value == 0.0) continue;
      ++degree[key >> 32];
      ++degree[key & 0xffffffffULL];
    }
    row_start.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) row_start[i + 1] = row_start[i] + degree[i];
    edges.resize(row_start[n]);
    std::vector<std::size_t> cursor(row_start.begin(), row_start.end() - 1);
    for (const auto& [key, value] : ising.coupling) {
      if (value == 0.0) continue;
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffULL);
      edges[cursor[i]++] = Edge{j, value * scale};
      edges[cursor[j]++] = Edge{i, value * scale};
    }
  }

  std::size_t num_variables() const noexcept { return h.size(); }

  // Local field of spin i in slice configuration `spins`:
  // h_i + Σ_j J_ij s_j (classical part only).
  double local_field(const std::int8_t* spins, std::size_t i) const {
    double f = h[i];
    for (std::size_t e = row_start[i]; e < row_start[i + 1]; ++e)
      f += edges[e].weight * spins[edges[e].index];
    return f;
  }
};

struct ReadOutcome {
  std::size_t sweeps_executed = 0;  ///< Slice sweeps actually run.
  std::size_t slice_flips = 0;
  std::size_t global_flips = 0;
};

// One PIMC read over the incremental-field kernel. `view` must be built
// with scale = beta/P, so the slice-major buffers in `ctx` (spins,
// slice_field, slice_energy — see prepare_pimc) obey, across every accepted
// move:
//
//   slice_field[k*n + i] == (beta/P) (h_i + Σ_j J_ij s^k_j)
//   slice_energy[k]      == H_problem(s^k)       (true classical energy)
//
// Fields are cached directly in Metropolis-exponent units: the local accept
// argument is -2 s (field - beta J⊥ (prev+next)) with no beta or 1/P
// multiply per proposal, and a true-units energy delta costs one multiply
// by PT = (beta/P)^-1 on accepted flips only. A local proposal is O(1)
// (field read + the two neighbouring-slice spins), an accepted flip
// O(degree) (push the step into the neighbours' fields), and a whole-column
// global proposal O(P) (one cached field per slice). Best-slice tracking
// compares the cached energies — O(P) per Γ step instead of re-walking the
// coupling map.
//
// The RNG consumption rate is fixed — n bulk uniforms per slice sweep and
// n per global pass, independent of acceptance — which is what keeps reads
// bit-for-bit deterministic for a fixed seed and lets a drift audit replay
// the identical stream.
//
// `audit_drift`, when non-null, accumulates the maximum absolute deviation
// between every cached field/energy and a direct recompute after each
// Γ step (test oracle; never used on the hot path).
ReadOutcome pimc_read(const IsingView& view, const qubo::IsingModel& ising,
                      const PathIntegralParams& params,
                      std::span<const double> gammas, Xoshiro256& rng,
                      AnnealContext& ctx, const CancelToken* cancel,
                      std::vector<std::int8_t>& best_spins,
                      double& best_energy, double* audit_drift) {
  const std::size_t n = view.num_variables();
  const std::size_t slices = params.num_slices;
  const double beta = 1.0 / params.temperature;
  // Cached fields are scaled by beta/P (see the view); one multiply by the
  // inverse recovers true-units energy deltas on accepted flips.
  const double inv_scale =
      static_cast<double>(slices) * params.temperature;
  std::int8_t* spins = ctx.spins.data();
  double* field = ctx.slice_field.data();
  double* energy = ctx.slice_energy.data();
  double* uniforms = ctx.uniforms.data();

  for (std::size_t s = 0; s < slices * n; ++s) {
    spins[s] = rng.coin() ? std::int8_t{1} : std::int8_t{-1};
  }
  for (std::size_t k = 0; k < slices; ++k) {
    const std::int8_t* slice = spins + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      field[k * n + i] = view.local_field(slice, i);
    }
    energy[k] = ising.energy(std::span<const std::int8_t>(slice, n));
  }

  best_energy = std::numeric_limits<double>::infinity();
  auto score_slice = [&](std::size_t k) {
    if (energy[k] < best_energy) {
      best_energy = energy[k];
      std::copy(spins + k * n, spins + (k + 1) * n, best_spins.begin());
    }
  };
  // Score the initial slices so a read cancelled before its first sweep
  // still returns a well-defined state.
  for (std::size_t k = 0; k < slices; ++k) score_slice(k);

  ReadOutcome out;
  for (double gamma : gammas) {
    const double beta_j_perp =
        beta * trotter_coupling(gamma, slices, params.temperature);
    // Local single-spin moves across all slices. Cancellation is polled per
    // slice sweep — the same granularity as the SA/PT kernels — so service
    // deadlines interrupt large models within one sweep, and the cached
    // fields/energies stay consistent at every poll point.
    bool cancelled = false;
    for (std::size_t k = 0; k < slices; ++k) {
      if (cancel && cancel->cancelled()) {
        cancelled = true;
        break;
      }
      std::int8_t* slice = spins + k * n;
      double* f = field + k * n;
      const std::int8_t* prev = spins + ((k + slices - 1) % slices) * n;
      const std::int8_t* next = spins + ((k + 1) % slices) * n;
      for (std::size_t i = 0; i < n; ++i) uniforms[i] = rng.uniform();
      double e = energy[k];
      for (std::size_t i = 0; i < n; ++i) {
        const double s = slice[i];
        // beta ΔE of flipping s -> -s: the cached field already carries
        // beta/P, the inter-slice term gets beta via beta_j_perp.
        const double x =
            -2.0 * s * (f[i] - beta_j_perp * (prev[i] + next[i]));
        if (detail::metropolis_accept(x, uniforms[i])) {
          slice[i] = static_cast<std::int8_t>(-slice[i]);
          e += -2.0 * s * f[i] * inv_scale;
          const double step = 2.0 * static_cast<double>(slice[i]);
          for (std::size_t a = view.row_start[i]; a < view.row_start[i + 1];
               ++a) {
            f[view.edges[a].index] += view.edges[a].weight * step;
          }
          ++out.slice_flips;
        }
      }
      energy[k] = e;
      ++out.sweeps_executed;
    }
    if (cancelled || (cancel && cancel->cancelled())) break;

    // Global moves: flip one variable across every slice (the inter-slice
    // coupling cancels, so only the classical part matters). The cached
    // fields make the proposal O(P) instead of O(P·degree).
    for (std::size_t i = 0; i < n; ++i) uniforms[i] = rng.uniform();
    for (std::size_t i = 0; i < n; ++i) {
      // beta ΔE of the column flip: the inter-slice coupling cancels, and
      // summing the beta/P-scaled cached fields IS beta times the classical
      // delta — no per-slice adjacency walk and no trailing multiply.
      double x = 0.0;
      for (std::size_t k = 0; k < slices; ++k) {
        x += static_cast<double>(spins[k * n + i]) * field[k * n + i];
      }
      x *= -2.0;
      if (detail::metropolis_accept(x, uniforms[i])) {
        ++out.global_flips;
        for (std::size_t k = 0; k < slices; ++k) {
          std::int8_t* slice = spins + k * n;
          const double s = slice[i];
          energy[k] += -2.0 * s * field[k * n + i] * inv_scale;
          slice[i] = static_cast<std::int8_t>(-slice[i]);
          const double step = 2.0 * static_cast<double>(slice[i]);
          for (std::size_t a = view.row_start[i]; a < view.row_start[i + 1];
               ++a) {
            field[k * n + view.edges[a].index] += view.edges[a].weight * step;
          }
        }
      }
    }
    for (std::size_t k = 0; k < slices; ++k) score_slice(k);

    if (audit_drift != nullptr) {
      double drift = *audit_drift;
      for (std::size_t k = 0; k < slices; ++k) {
        const std::int8_t* slice = spins + k * n;
        for (std::size_t i = 0; i < n; ++i) {
          drift = std::max(
              drift, std::abs(field[k * n + i] - view.local_field(slice, i)));
        }
        drift = std::max(
            drift,
            std::abs(energy[k] -
                     ising.energy(std::span<const std::int8_t>(slice, n))));
      }
      *audit_drift = drift;
    }
  }
  return out;
}

void record_pimc_read(const ReadOutcome& outcome) {
  if (!telemetry::enabled()) return;
  static const auto reads = telemetry::counter("anneal.pimc.reads");
  static const auto sweeps =
      telemetry::histogram("anneal.pimc.sweeps", telemetry::Unit::kCount);
  static const auto slice_flips =
      telemetry::histogram("anneal.pimc.slice_flips", telemetry::Unit::kCount);
  static const auto global_flips =
      telemetry::histogram("anneal.pimc.global_flips", telemetry::Unit::kCount);
  reads.add();
  sweeps.record(static_cast<double>(outcome.sweeps_executed));
  slice_flips.record(static_cast<double>(outcome.slice_flips));
  global_flips.record(static_cast<double>(outcome.global_flips));
}

}  // namespace

SampleSet PathIntegralAnnealer::sample(const qubo::QuboModel& model) const {
  telemetry::Span span("anneal.pimc.sample");
  span.arg("num_variables", static_cast<double>(model.num_variables()));
  span.arg("num_reads", static_cast<double>(params_.num_reads));
  span.arg("num_slices", static_cast<double>(params_.num_slices));
  const qubo::IsingModel ising = qubo::qubo_to_ising(model);
  // View pre-scaled by beta/P: cached fields live in accept-exponent units.
  const IsingView view(
      ising, 1.0 / (params_.temperature *
                    static_cast<double>(params_.num_slices)));
  const qubo::QuboAdjacency qubo_adjacency(model);
  const std::size_t n = view.num_variables();

  const std::vector<double> gammas =
      make_schedule(params_.gamma_hot, params_.gamma_cold, params_.num_sweeps,
                    Interpolation::kGeometric);

  const CancelToken* cancel =
      params_.cancel.cancellable() ? &params_.cancel : nullptr;

  AnnealContext& ctx = thread_local_context();
  ctx.prepare_pimc(n, params_.num_slices);
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    Xoshiro256 rng(params_.seed ^ 0x51a5e13bULL, r);

    std::vector<std::int8_t> best_spins(n);
    double best_energy = 0.0;
    const ReadOutcome outcome =
        pimc_read(view, ising, params_, gammas, rng, ctx, cancel, best_spins,
                  best_energy, nullptr);
    record_pimc_read(outcome);

    std::vector<std::uint8_t> bits = qubo::spins_to_bits(best_spins);
    if (params_.polish_with_greedy && !(cancel && cancel->cancelled())) {
      detail::greedy_descend(qubo_adjacency, bits);
    }
    Sample out;
    out.energy = qubo_adjacency.energy(bits);
    out.bits = std::move(bits);
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

namespace detail {

double pimc_field_drift(const qubo::QuboModel& model,
                        const PathIntegralParams& params) {
  const qubo::IsingModel ising = qubo::qubo_to_ising(model);
  const IsingView view(
      ising, 1.0 / (params.temperature *
                    static_cast<double>(params.num_slices)));
  const std::size_t n = view.num_variables();
  const std::vector<double> gammas =
      make_schedule(params.gamma_hot, params.gamma_cold, params.num_sweeps,
                    Interpolation::kGeometric);
  const CancelToken* cancel =
      params.cancel.cancellable() ? &params.cancel : nullptr;

  double drift = 0.0;
  for (std::size_t r = 0; r < params.num_reads; ++r) {
    Xoshiro256 rng(params.seed ^ 0x51a5e13bULL, r);
    AnnealContext ctx;
    ctx.prepare_pimc(n, params.num_slices);
    std::vector<std::int8_t> best_spins(n);
    double best_energy = 0.0;
    pimc_read(view, ising, params, gammas, rng, ctx, cancel, best_spins,
              best_energy, &drift);
  }
  return drift;
}

SampleSet pimc_sample_reference(const qubo::QuboModel& model,
                                const PathIntegralParams& params) {
  const qubo::IsingModel ising = qubo::qubo_to_ising(model);
  const IsingView view(ising);
  const qubo::QuboAdjacency qubo_adjacency(model);
  const std::size_t n = view.num_variables();
  const std::size_t slices = params.num_slices;
  const double inv_p = 1.0 / static_cast<double>(slices);
  const double beta = 1.0 / params.temperature;

  const std::vector<double> gammas =
      make_schedule(params.gamma_hot, params.gamma_cold, params.num_sweeps,
                    Interpolation::kGeometric);

  const CancelToken* cancel =
      params.cancel.cancellable() ? &params.cancel : nullptr;

  SampleSet set;
  for (std::size_t r = 0; r < params.num_reads; ++r) {
    Xoshiro256 rng(params.seed ^ 0x51a5e13bULL, r);
    // spins[k * n + i]: spin i in slice k.
    std::vector<std::int8_t> spins(slices * n);
    for (auto& s : spins) s = rng.coin() ? std::int8_t{1} : std::int8_t{-1};

    std::vector<std::int8_t> best_bits_spins(n);
    double best_energy = std::numeric_limits<double>::infinity();

    auto score_slice = [&](std::size_t k) {
      std::span<const std::int8_t> slice(spins.data() + k * n, n);
      const double e = ising.energy(slice);
      if (e < best_energy) {
        best_energy = e;
        std::copy(slice.begin(), slice.end(), best_bits_spins.begin());
      }
    };

    for (double gamma : gammas) {
      if (cancel && cancel->cancelled()) break;
      const double j_perp = trotter_coupling(gamma, slices, params.temperature);
      // Local single-spin moves across all slices, re-walking the adjacency
      // for every proposal.
      for (std::size_t k = 0; k < slices; ++k) {
        std::int8_t* slice = spins.data() + k * n;
        const std::int8_t* prev = spins.data() + ((k + slices - 1) % slices) * n;
        const std::int8_t* next = spins.data() + ((k + 1) % slices) * n;
        for (std::size_t i = 0; i < n; ++i) {
          const double classical = view.local_field(slice, i) * inv_p;
          const double quantum = -j_perp * (prev[i] + next[i]);
          const double delta = -2.0 * slice[i] * (classical + quantum);
          if (delta <= 0.0 || rng.uniform() < std::exp(-delta * beta)) {
            slice[i] = static_cast<std::int8_t>(-slice[i]);
          }
        }
      }
      // Global moves with a full field recompute per (variable, slice).
      for (std::size_t i = 0; i < n; ++i) {
        double delta = 0.0;
        for (std::size_t k = 0; k < slices; ++k) {
          const std::int8_t* slice = spins.data() + k * n;
          delta += -2.0 * slice[i] * view.local_field(slice, i) * inv_p;
        }
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta * beta)) {
          for (std::size_t k = 0; k < slices; ++k) {
            spins[k * n + i] = static_cast<std::int8_t>(-spins[k * n + i]);
          }
        }
      }
      for (std::size_t k = 0; k < slices; ++k) score_slice(k);
    }

    std::vector<std::uint8_t> bits = qubo::spins_to_bits(best_bits_spins);
    if (params.polish_with_greedy && !(cancel && cancel->cancelled())) {
      detail::greedy_descend(qubo_adjacency, bits);
    }
    Sample out;
    out.energy = qubo_adjacency.energy(bits);
    out.bits = std::move(bits);
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace detail

}  // namespace qsmt::anneal
