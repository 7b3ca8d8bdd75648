#include "anneal/simulated_annealer.hpp"

#include <cmath>
#include <vector>

#include "anneal/batched_kernel.hpp"
#include "anneal/greedy.hpp"
#include "anneal/metropolis.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace qsmt::anneal {

SimulatedAnnealer::SimulatedAnnealer(SimulatedAnnealerParams params)
    : params_(params) {
  require(params_.num_reads >= 1, "SimulatedAnnealer: num_reads must be >= 1");
  require(params_.num_sweeps >= 1,
          "SimulatedAnnealer: num_sweeps must be >= 1");
}

namespace detail {

std::size_t anneal_read(const qubo::QuboAdjacency& adjacency,
                        std::span<const double> betas, Xoshiro256& rng,
                        AnnealContext& ctx, bool allow_early_exit,
                        const CancelToken* cancel) {
  const std::size_t n = adjacency.num_variables();
  auto& bits = ctx.bits;
  auto& field = ctx.field;
  auto& uniforms = ctx.uniforms;
  // Incrementally maintained local fields: field[i] = q_ii + Σ_j q_ij x_j.
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);

  // The zero-flip early exit is sound only while every remaining sweep is at
  // least as cold as the current one. Reverse-annealing schedules start cold,
  // dip hot, and come back, so restrict the exit to the longest
  // non-decreasing suffix of the schedule: before `monotone_from` (i.e.
  // before the dip) a zero-flip sweep says nothing about the sweeps ahead.
  std::size_t monotone_from = 0;
  if (allow_early_exit && !betas.empty()) {
    monotone_from = betas.size() - 1;
    while (monotone_from > 0 && betas[monotone_from - 1] <= betas[monotone_from])
      --monotone_from;
  }

  std::size_t total_flips = 0;
  std::size_t executed = 0;
  bool exited_early = false;
  for (std::size_t s = 0; s < betas.size(); ++s) {
    // Cooperative cancellation rides the same per-sweep plumbing as the
    // zero-flip exit: between sweeps the state is consistent, so a
    // cancelled read simply returns what it has annealed so far.
    if (cancel && cancel->cancelled()) break;
    ++executed;
    const double beta = betas[s];
    // Bulk uniforms up front (the generation loop is branch-free and
    // independent of the sweep state); the acceptance test itself is the
    // screened exact-Metropolis compare from metropolis.hpp, which touches
    // std::exp only inside its narrow ambiguity band.
    for (std::size_t i = 0; i < n; ++i) {
      uniforms[i] = rng.uniform();
    }
    std::size_t flips = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      if (metropolis_accept(beta * delta, uniforms[i])) {
        const double step = bits[i] ? -1.0 : 1.0;
        bits[i] ^= 1u;
        ++flips;
        for (const auto& nb : adjacency.neighbors(i)) {
          field[nb.index] += nb.coefficient * step;
        }
      }
    }
    total_flips += flips;
    // A zero-flip sweep means the state is a local minimum AND every uphill
    // proposal was rejected; once inside the non-decreasing suffix the
    // remaining (colder) sweeps accept uphill moves with no greater
    // probability, and the greedy polish mops up any strictly-downhill
    // chain, so the read is done.
    if (flips == 0 && allow_early_exit && s >= monotone_from) {
      exited_early = s + 1 < betas.size();
      break;
    }
  }
  record_read_stats(ReadStats{n, total_flips, executed, betas.size(),
                              exited_early});
  return total_flips;
}

void anneal_read(const qubo::QuboAdjacency& adjacency,
                 std::span<const double> betas, Xoshiro256& rng,
                 std::vector<std::uint8_t>& bits, bool allow_early_exit) {
  AnnealContext& ctx = thread_local_context();
  ctx.prepare(bits.size());
  ctx.bits.swap(bits);
  anneal_read(adjacency, betas, rng, ctx, allow_early_exit);
  ctx.bits.swap(bits);
}

void anneal_read_reference(const qubo::QuboAdjacency& adjacency,
                           std::span<const double> betas, Xoshiro256& rng,
                           std::vector<std::uint8_t>& bits) {
  const std::size_t n = adjacency.num_variables();
  std::vector<double> field(n);
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);

  for (double beta : betas) {
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta * beta)) {
        const double step = bits[i] ? -1.0 : 1.0;
        bits[i] ^= 1u;
        for (const auto& nb : adjacency.neighbors(i)) {
          field[nb.index] += nb.coefficient * step;
        }
      }
    }
  }
}

}  // namespace detail

namespace {

/// The β schedule sample() runs, shared by the scalar and batched paths.
/// With a fully defaulted β range, use the anneal-then-quench schedule: the
/// quench tail freezes each read so the kernel's zero-flip early exit fires
/// well before the nominal sweep count, which is where most of the measured
/// sweep-throughput win comes from (see docs/hotpath.md). Explicitly set
/// endpoints keep the plain interpolated schedule — the caller asked for
/// exactly that β range, and tests rely on it being honoured.
std::vector<double> sample_schedule(const qubo::QuboAdjacency& adjacency,
                                    const SimulatedAnnealerParams& params) {
  const BetaRange range = default_beta_range(adjacency);
  const bool defaulted = !params.beta_hot && !params.beta_cold;
  const double hot = params.beta_hot.value_or(range.hot);
  const double cold = params.beta_cold.value_or(range.cold);
  return defaulted ? make_quench_schedule(hot, cold, params.num_sweeps,
                                          params.beta_interpolation)
                   : make_schedule(hot, cold, params.num_sweeps,
                                   params.beta_interpolation);
}

/// The batched branch of SimulatedAnnealer::sample: every read is a lane of
/// one BatchedSweepKernel, then each lane gets the scalar path's per-read
/// tail (greedy polish + energy) off the kernel's final bits/fields.
/// Bit-identical to the scalar loop. Emits the anneal.batch.* counters
/// (docs/telemetry.md).
SampleSet sample_on_kernel(const qubo::QuboAdjacency& adjacency,
                           const SimulatedAnnealerParams& params) {
  const std::size_t n = adjacency.num_variables();
  const std::vector<double> betas = sample_schedule(adjacency, params);

  BatchedSweepKernel kernel(adjacency, params.seed, params.num_reads,
                            params.cancel);
  const std::size_t lanes = kernel.num_lanes();

  telemetry::Span span("anneal.sample");
  span.arg("num_variables", static_cast<double>(n));
  span.arg("num_reads", static_cast<double>(lanes));
  span.arg("num_sweeps", static_cast<double>(params.num_sweeps));
  static const auto read_energy = telemetry::histogram("anneal.read.energy");
  const bool telemetry_on = telemetry::enabled();
  if (telemetry_on) {
    static const auto beta_hot_gauge = telemetry::gauge("anneal.beta.hot");
    static const auto beta_cold_gauge = telemetry::gauge("anneal.beta.cold");
    if (!betas.empty()) {
      beta_hot_gauge.set(betas.front());
      beta_cold_gauge.set(betas.back());
    }
  }

  kernel.run(betas, params.early_exit);

  if (telemetry_on) {
    static const auto invocations =
        telemetry::counter("anneal.batch.invocations");
    static const auto replicas = telemetry::counter("anneal.batch.replicas");
    invocations.add();
    replicas.add(static_cast<std::uint64_t>(lanes));
    if (kernel.used_avx2()) {
      // Interned lazily so scalar-fallback hosts never surface the name.
      static const auto avx2_runs = telemetry::counter("anneal.batch.avx2");
      avx2_runs.add();
    }
  }

  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  SampleSet set;
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto bits = kernel.lane_bits(l);
    const auto field = kernel.lane_field(l);
    ctx.bits.assign(bits.begin(), bits.end());
    ctx.field.assign(field.begin(), field.end());
    const bool cancelled =
        params.cancel.cancellable() && params.cancel.cancelled();
    if (kernel.lane_annealed(l)) record_read_stats(kernel.lane_stats(l));
    if (params.polish_with_greedy && !cancelled) {
      detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    }
    Sample out;
    out.energy = adjacency.energy(ctx.bits);
    out.bits.assign(ctx.bits.begin(), ctx.bits.end());
    out.num_occurrences = 1;
    if (telemetry_on) read_energy.record(out.energy);
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace

SampleSet SimulatedAnnealer::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

SampleSet SimulatedAnnealer::sample(
    const qubo::QuboAdjacency& adjacency) const {
  const std::size_t n = adjacency.num_variables();

  // Route multi-read runs through the batched substrate (bit-identical to
  // the scalar loop below, see batched_kernel.hpp). Trace-mode telemetry
  // stays on the scalar path for its per-read trace events; SweepMode
  // overrides pick a substrate explicitly.
  const bool batched =
      params_.sweep_mode == SweepMode::kBatched ||
      (params_.sweep_mode == SweepMode::kAuto && params_.num_reads >= 2 &&
       !telemetry::trace_enabled());
  if (batched) return sample_on_kernel(adjacency, params_);

  const std::vector<double> betas = sample_schedule(adjacency, params_);
  const double hot = betas.empty() ? 0.0 : betas.front();
  const double cold = betas.empty() ? 0.0 : betas.back();

  telemetry::Span span("anneal.sample");
  span.arg("num_variables", static_cast<double>(n));
  span.arg("num_reads", static_cast<double>(params_.num_reads));
  span.arg("num_sweeps", static_cast<double>(params_.num_sweeps));
  span.arg("beta_hot", betas.empty() ? hot : betas.front());
  span.arg("beta_cold", betas.empty() ? cold : betas.back());
  static const auto read_energy = telemetry::histogram("anneal.read.energy");
  const bool telemetry_on = telemetry::enabled();
  const bool trace_on = telemetry::trace_enabled();
  if (telemetry_on) {
    static const auto beta_hot_gauge = telemetry::gauge("anneal.beta.hot");
    static const auto beta_cold_gauge = telemetry::gauge("anneal.beta.cold");
    beta_hot_gauge.set(betas.empty() ? hot : betas.front());
    beta_cold_gauge.set(betas.empty() ? cold : betas.back());
  }

  const CancelToken* cancel =
      params_.cancel.cancellable() ? &params_.cancel : nullptr;
  AnnealContext& ctx = thread_local_context();
  ctx.prepare(n);
  SampleSet set;
  for (std::size_t r = 0; r < params_.num_reads; ++r) {
    const double read_start_us = trace_on ? telemetry::trace_now_us() : 0.0;
    Xoshiro256 rng(params_.seed, r);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;

    // A cancelled run still fills every slot (SampleSet must stay
    // well-formed), but pending reads return their random initial state and
    // skip the polish — the caller asked us to stop spending cycles.
    const bool cancelled_before_read = cancel && cancel->cancelled();
    if (!cancelled_before_read) {
      detail::anneal_read(adjacency, betas, rng, ctx, params_.early_exit,
                          cancel);
    }
    if (params_.polish_with_greedy && !(cancel && cancel->cancelled())) {
      // ctx.field is current after the anneal, so the polish pass skips its
      // own field rebuild.
      detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    }

    Sample out;
    out.energy = adjacency.energy(ctx.bits);
    out.bits.assign(ctx.bits.begin(), ctx.bits.end());
    out.num_occurrences = 1;
    if (telemetry_on) read_energy.record(out.energy);
    if (trace_on) {
      // Per-read trajectory: one trace slice per read with its final
      // energy, on the calling thread's row, so chrome://tracing shows
      // where in the sample() span the best energies landed.
      telemetry::TraceEvent event;
      event.name = "anneal.read";
      event.tid = telemetry::current_thread_id();
      event.ts_us = read_start_us;
      event.dur_us = telemetry::trace_now_us() - read_start_us;
      event.args = {{"read", static_cast<double>(r)},
                    {"energy", out.energy}};
      telemetry::add_trace_event(std::move(event));
    }
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
