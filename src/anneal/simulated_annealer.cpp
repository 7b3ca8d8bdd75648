#include "anneal/simulated_annealer.hpp"

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

std::size_t metropolis_sweep(const qubo::QuboAdjacency& adjacency, double beta,
                             Xoshiro256& rng, std::span<std::uint8_t> bits,
                             std::span<double> field,
                             std::span<double> uniforms, double* energy) {
  const std::size_t n = adjacency.num_variables();
  // Bulk uniforms up front (the generation loop is branch-free and
  // independent of the sweep state); the acceptance test itself is the
  // screened exact-Metropolis compare from metropolis.hpp, which touches
  // std::exp only inside its narrow ambiguity band.
  for (std::size_t i = 0; i < n; ++i) uniforms[i] = rng.uniform();
  std::size_t flips = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double delta = bits[i] ? -field[i] : field[i];
    if (metropolis_accept(beta * delta, uniforms[i])) {
      const double step = bits[i] ? -1.0 : 1.0;
      bits[i] ^= 1u;
      ++flips;
      if (energy != nullptr) *energy += delta;
      for (const auto& nb : adjacency.neighbors(i)) {
        field[nb.index] += nb.coefficient * step;
      }
    }
  }
  return flips;
}

std::size_t anneal_read(const qubo::QuboAdjacency& adjacency,
                        std::span<const double> betas, Xoshiro256& rng,
                        AnnealContext& ctx, bool allow_early_exit,
                        const CancelToken* cancel) {
  const std::size_t n = adjacency.num_variables();
  // Incrementally maintained local fields: field[i] = q_ii + Σ_j q_ij x_j.
  for (std::size_t i = 0; i < n; ++i) {
    ctx.field[i] = adjacency.local_field(ctx.bits, i);
  }
  const std::size_t monotone_from = early_exit_from(betas);

  std::size_t total_flips = 0;
  std::size_t executed = 0;
  bool exited_early = false;
  for (std::size_t s = 0; s < betas.size(); ++s) {
    // Cooperative cancellation rides the same per-sweep plumbing as the
    // zero-flip exit: between sweeps the state is consistent, so a
    // cancelled read simply returns what it has annealed so far.
    if (cancel && cancel->cancelled()) break;
    ++executed;
    const std::size_t flips = metropolis_sweep(adjacency, betas[s], rng,
                                               ctx.bits, ctx.field,
                                               ctx.uniforms);
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

}  // namespace detail

namespace {

/// The β schedule sample() runs (never empty: num_sweeps >= 1).
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

/// Start and length of one block's run, for its reads' trace slices.
struct BlockInterval {
  double ts_us = 0.0;
  double dur_us = 0.0;
};

}  // namespace

SampleSet SimulatedAnnealer::sample(const qubo::QuboModel& model) const {
  return sample(qubo::QuboAdjacency(model));
}

/// Every read is a lane of one BatchedSweepKernel; each lane then gets the
/// per-read tail (greedy polish + energy) off the kernel's final
/// bits/fields. Emits the anneal.batch.* counters (docs/telemetry.md).
SampleSet SimulatedAnnealer::sample(
    const qubo::QuboAdjacency& adjacency) const {
  const std::size_t n = adjacency.num_variables();
  const std::vector<double> betas = sample_schedule(adjacency, params_);

  BatchedSweepKernel kernel(adjacency, params_.seed, params_.num_reads,
                            params_.cancel);
  const std::size_t lanes = kernel.num_lanes();

  telemetry::Span span("anneal.sample");
  span.arg("num_variables", static_cast<double>(n));
  span.arg("num_reads", static_cast<double>(lanes));
  span.arg("num_sweeps", static_cast<double>(params_.num_sweeps));
  span.arg("beta_hot", betas.front());
  span.arg("beta_cold", betas.back());
  static const auto read_energy = telemetry::histogram("anneal.read.energy");
  const bool telemetry_on = telemetry::enabled();
  const bool trace_on = telemetry::trace_enabled();
  if (telemetry_on) {
    static const auto beta_hot_gauge = telemetry::gauge("anneal.beta.hot");
    static const auto beta_cold_gauge = telemetry::gauge("anneal.beta.cold");
    beta_hot_gauge.set(betas.front());
    beta_cold_gauge.set(betas.back());
  }

  std::vector<BlockInterval> blocks;
  for (std::size_t b = 0; b < kernel.num_blocks(); ++b) {
    const double start_us = trace_on ? telemetry::trace_now_us() : 0.0;
    kernel.run_block(b, betas, params_.early_exit);
    if (trace_on) {
      blocks.push_back({start_us, telemetry::trace_now_us() - start_us});
    }
  }

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
    // A cancelled run still fills every slot (SampleSet must stay
    // well-formed) but skips the polish — the caller asked us to stop
    // spending cycles.
    const bool cancelled =
        params_.cancel.cancellable() && params_.cancel.cancelled();
    if (kernel.lane_annealed(l)) record_read_stats(kernel.lane_stats(l));
    if (params_.polish_with_greedy && !cancelled) {
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
      // One trace slice per read with its final energy, on the calling
      // thread's row. The reads of one block anneal together, so each
      // slice spans its block's run.
      const BlockInterval& block = blocks[l / detail::kBatchedLanes];
      telemetry::TraceEvent event;
      event.name = "anneal.read";
      event.tid = telemetry::current_thread_id();
      event.ts_us = block.ts_us;
      event.dur_us = block.dur_us;
      event.args = {{"read", static_cast<double>(l)}, {"energy", out.energy}};
      telemetry::add_trace_event(std::move(event));
    }
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

}  // namespace qsmt::anneal
