// Metropolis single-spin-flip simulated annealing over QUBO models.
//
// This is the same algorithm as D-Wave's SimulatedAnnealingSampler
// (dwave-neal), which the paper used for all its experiments: each read
// starts from a uniformly random assignment and performs `sweeps` full
// passes over the variables under a geometric β (inverse temperature)
// schedule, accepting a flip with probability min(1, exp(-β Δ)).
//
// The sweep kernel is exp-free on the hot path: each sweep bulk-generates
// n uniforms u_i up front and decides u_i < exp(-β Δ_i) through the
// screened compare in metropolis.hpp — elementary bounds on exp(-x) settle
// almost every move with a couple of multiplies, and std::exp runs only
// inside the narrow O(x³) ambiguity band. Downhill and flat moves
// (Δ <= 0) are accepted unconditionally. A read terminates early the first
// time a sweep accepts zero flips — the state is a local minimum with every
// uphill move rejected, later (colder) sweeps would almost surely be
// no-ops, and the closing greedy polish covers any residual descent. That
// argument needs every remaining sweep to be at least as cold, so the exit
// is armed only within the longest non-decreasing suffix of the β schedule
// (a reverse-anneal schedule that dips hot cannot abort before its reheat),
// and it can be disabled outright via SimulatedAnnealerParams::early_exit
// for callers that sample distributions rather than optimize. When the β
// range is defaulted the schedule is anneal-then-quench
// (make_quench_schedule) so that freeze point arrives well before the
// nominal sweep count. See docs/hotpath.md for the derivation and
// measurements.
//
// Every read is a lane of the BatchedSweepKernel (batched_kernel.hpp): R
// reads run as ceil(R/16) blocks of up to 16 lanes, one block after another
// on the calling thread, and a single read is a one-lane block. Every read
// owns a counter-seeded RNG stream (see util/rng.hpp), so the output for a
// fixed seed does not depend on how many threads sample at once, and it is
// bit-identical to a loop of detail::anneal_read over the same streams.
// Parallelism comes from the caller (the SolveService pool). Scratch
// buffers come from the thread-local AnnealContext, so steady-state
// sampling allocates only the kernel's per-lane results and the returned
// samples.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "anneal/context.hpp"
#include "anneal/sampler.hpp"
#include "anneal/schedule.hpp"
#include "qubo/adjacency.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

struct SimulatedAnnealerParams {
  std::size_t num_reads = 64;    ///< Independent annealing runs.
  std::size_t num_sweeps = 256;  ///< Full variable passes per read.
  std::uint64_t seed = 0;        ///< Master seed for all RNG streams.
  /// β endpoints. When unset, derived per-model via default_beta_range().
  std::optional<double> beta_hot;
  std::optional<double> beta_cold;
  Interpolation beta_interpolation = Interpolation::kGeometric;
  /// Run a steepest-descent pass on each read's final state, the way
  /// dwave-greedy is commonly chained after neal.
  bool polish_with_greedy = true;
  /// Stop a read at the first zero-flip sweep once the schedule's remaining
  /// sweeps are all at least as cold (see the header comment). Exact for
  /// optimization with greedy polish; turn off to keep full-length reads
  /// when sampling the Boltzmann distribution with an explicit β range.
  bool early_exit = true;
  /// Cooperative cancellation: polled once per block sweep (the same
  /// plumbing the zero-flip early exit uses) and before each block's first
  /// sweep. On cancellation, the running block's reads stop after the
  /// current sweep, reads of blocks not yet started return their initial
  /// states unannealed, and reads not yet polished skip the greedy polish;
  /// sample() still returns a well-formed (but low-quality) SampleSet,
  /// which callers like qsmt::service discard. A default token never
  /// cancels.
  CancelToken cancel;
};

class SimulatedAnnealer final : public Sampler {
 public:
  explicit SimulatedAnnealer(SimulatedAnnealerParams params = {});

  SampleSet sample(const qubo::QuboModel& model) const override;
  /// Hot path: anneals a prebuilt adjacency (no per-call CSR rebuild).
  SampleSet sample(const qubo::QuboAdjacency& adjacency) const override;
  std::string name() const override { return "simulated-annealing"; }
  bool supports_adjacency_sampling() const noexcept override { return true; }

  const SimulatedAnnealerParams& params() const noexcept { return params_; }

 private:
  SimulatedAnnealerParams params_;
};

namespace detail {

/// One Metropolis sweep at fixed inverse temperature `beta`: draws n bulk
/// uniforms from `rng` into `uniforms`, then decides each variable in index
/// order with the screened accept of metropolis.hpp, keeping `field`
/// (q_ii + Σ_j q_ij x_j, current on entry) current across accepted flips.
/// When `energy` is non-null, each accepted flip adds its Δ to it. Returns
/// the number of accepted flips. The scalar sweep of anneal_read,
/// ParallelTempering and PopulationAnnealing.
std::size_t metropolis_sweep(const qubo::QuboAdjacency& adjacency, double beta,
                             Xoshiro256& rng, std::span<std::uint8_t> bits,
                             std::span<double> field,
                             std::span<double> uniforms,
                             double* energy = nullptr);

/// One annealing read over a prebuilt adjacency using the exp-free threshold
/// kernel: anneals `ctx.bits` in place following `betas`, maintaining
/// `ctx.field` incrementally (both sized by the caller via ctx.prepare();
/// bits initialised by the caller, fields by this function). Consumes
/// exactly one uniform per variable per executed sweep. `allow_early_exit`
/// arms the zero-flip exit, which fires only within the schedule's longest
/// non-decreasing suffix (so non-monotone reverse schedules run their
/// reheat regardless). A non-null `cancel` token is polled once per sweep;
/// when it reports cancellation the read stops after the sweep in progress
/// (bits/fields stay consistent). Returns the number of accepted flips.
/// The reverse annealer's kernel, and the oracle the batched kernel is
/// tested and benched against: a loop of reads seeded Xoshiro256(seed, r)
/// reproduces SimulatedAnnealer::sample bit for bit.
std::size_t anneal_read(const qubo::QuboAdjacency& adjacency,
                        std::span<const double> betas, Xoshiro256& rng,
                        AnnealContext& ctx, bool allow_early_exit = true,
                        const CancelToken* cancel = nullptr);

}  // namespace detail

}  // namespace qsmt::anneal
