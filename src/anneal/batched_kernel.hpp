// Batched multi-replica annealing substrate.
//
// The serving workload is floods of *small* string QUBOs: one replica
// (annealing read) touches so little state that the scalar per-read loop in
// SimulatedAnnealer::sample spends its time on bookkeeping, branches, and
// per-read RNG rather than arithmetic. This kernel packs R replicas of the
// SAME adjacency into replica-major (structure-of-arrays) state so one pass
// over the shared CSR updates every replica at once:
//
//   spins[i]                    one std::uint64_t per variable; bit l is
//                               lane l's current value of x_i
//   field[i * kStride + l]      lane l's local field q_ii + sum q_ij x_j,
//                               maintained incrementally like the scalar
//                               kernel's ctx.field
//   uniforms[i * kStride + l]   lane l's bulk U[0,1) draw for variable i,
//                               regenerated once per sweep per active lane
//
// Lanes are grouped into blocks of kBatchedLanesPerBlock; blocks are
// independent (their lane state never interacts) and run one after another
// on the calling thread. Within a block the sweep
// is vectorized with AVX2 when the CPU supports it (runtime dispatch; set
// QSMT_NO_AVX2=1 to force the portable scalar fallback). Both paths produce
// bit-identical results to the retained scalar kernel (detail::anneal_read):
// every lane consumes the same counter-seeded RNG stream in the same order,
// the screened Metropolis test is evaluated with the exact operation
// sequence of metropolis.hpp (explicit mul/add — never FMA, which would
// change rounding), and branch-free lane updates only ever add coef * 0.0
// to non-flipped lanes, which can at most flip the sign of a zero field —
// invisible to every later comparison and to the energies recomputed from
// bits. docs/hotpath.md ("The batched substrate") has the layout diagram
// and the measured speedups; bench/batch_bench.cpp tracks them.
//
// Lanes belong to *groups*: a group is one logical sample() call (its own
// seed, replica count, and cancel token). SimulatedAnnealer::sample runs a
// single group; the service's cross-job fusion (service::BatchAggregator)
// packs many jobs' groups into one kernel invocation. Each group's cancel
// token is polled ONCE per batched sweep — not per replica — and a
// cancelled group's lanes drop out of the active mask at the next sweep
// boundary while other groups keep annealing. Per-lane zero-flip early
// exits use the same active mask, so a settled replica stops costing
// anything while its siblings continue.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anneal/context.hpp"
#include "qubo/adjacency.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

/// One logical sample() call inside a batched kernel invocation: a block of
/// `num_replicas` contiguous lanes seeded as Xoshiro256(seed, replica) —
/// exactly the streams the scalar path would use — sharing one cancel token.
struct BatchedGroup {
  std::uint64_t seed = 0;
  std::size_t num_replicas = 0;
  CancelToken cancel;
};

/// Post-run per-group aggregates (fed by the per-lane counters).
struct BatchedGroupStats {
  std::size_t replicas = 0;
  std::size_t sweeps_executed = 0;  ///< Max executed sweeps over the lanes.
  std::size_t total_flips = 0;
  std::size_t replicas_early_exited = 0;
  /// The group's token reported cancellation during the run; its lanes were
  /// removed from the active mask at the following sweep boundary.
  bool cancelled = false;
};

namespace detail {

/// Lanes per independent block; also the lane stride of the field/uniform
/// rows (kept equal and a multiple of 4 so AVX2 quads never straddle rows).
inline constexpr std::size_t kBatchedLanes = 16;

/// Borrowed per-block working-state view handed to the sweep/uniform
/// routines (the buffers live in the thread-local AnnealContext, the
/// adjacency rows in the shared CSR).
struct BatchedBlockView {
  std::size_t num_variables = 0;
  std::uint64_t active = 0;       ///< Bit l: lane l still annealing.
  std::uint64_t* spins = nullptr;     ///< [num_variables]
  double* field = nullptr;            ///< [num_variables * kBatchedLanes]
  double* uniforms = nullptr;         ///< [num_variables * kBatchedLanes]
  const qubo::QuboAdjacency* adjacency = nullptr;
};

/// Fills this sweep's uniforms for every active lane (scalar) or every quad
/// containing an active lane (AVX2), advancing the per-lane generators.
/// Each active lane receives exactly the draws the scalar kernel would
/// consume; AVX2 additionally advances inactive lanes sharing a quad, which
/// is unobservable (nothing reads a retired lane's generator again).
void fill_uniforms_scalar(const BatchedBlockView& view, Xoshiro256* rngs);
void fill_uniforms_avx2(const BatchedBlockView& view, Xoshiro256* rngs);

/// One batched Metropolis sweep at inverse temperature `beta` over every
/// active lane. Returns the mask of lanes that accepted at least one flip
/// and bumps lane_flips[l] per accepted move.
std::uint64_t sweep_scalar(const BatchedBlockView& view, double beta,
                           std::uint64_t* lane_flips);
std::uint64_t sweep_avx2(const BatchedBlockView& view, double beta,
                         std::uint64_t* lane_flips);

/// True when this binary carries the AVX2 translation unit (compiled with
/// -mavx2); false on toolchains/targets without it, where the scalar
/// fallback is the only path.
bool batched_avx2_compiled() noexcept;

}  // namespace detail

/// Runtime dispatch verdict: AVX2 code compiled in, supported by this CPU,
/// and not disabled via the QSMT_NO_AVX2 environment variable.
bool batched_avx2_enabled();

/// The batched multi-replica sweep kernel. Construction captures the lane
/// layout (groups get contiguous lane ranges in order); run() anneals every
/// lane through a β schedule; afterwards the per-lane final bits and local
/// fields are available for polish/energy, bit-identical to what the scalar
/// kernel leaves in its AnnealContext.
class BatchedSweepKernel {
 public:
  /// `adjacency` must outlive the kernel. Every group needs >= 1 replica.
  BatchedSweepKernel(const qubo::QuboAdjacency& adjacency,
                     std::vector<BatchedGroup> groups);

  std::size_t num_lanes() const noexcept { return lane_group_.size(); }
  std::size_t num_groups() const noexcept { return groups_.size(); }

  /// Anneals every lane through `betas` (initial bits drawn from the lane's
  /// own stream, exactly like the scalar path). `allow_early_exit` arms the
  /// per-lane zero-flip exit within the schedule's longest non-decreasing
  /// suffix. `force_scalar` pins the portable sweep path regardless of the
  /// runtime dispatch — the in-process AVX2-vs-scalar identity tests use it.
  /// May be called once per kernel.
  void run(std::span<const double> betas, bool allow_early_exit = true,
           bool force_scalar = false);

  /// Final per-lane state after run(): one 0/1 byte per variable, and the
  /// incrementally-maintained local fields (current, so a greedy polish can
  /// skip its own rebuild).
  std::span<const std::uint8_t> lane_bits(std::size_t lane) const;
  std::span<const double> lane_field(std::size_t lane) const;

  /// Per-lane read statistics in the scalar kernel's ReadStats shape.
  ReadStats lane_stats(std::size_t lane) const;
  /// False when the lane's group was already cancelled before its first
  /// sweep — the scalar path records no ReadStats for such reads.
  bool lane_annealed(std::size_t lane) const;

  std::size_t lane_group(std::size_t lane) const { return lane_group_[lane]; }
  /// First lane of `group`; its replicas occupy lanes [first, first + R).
  std::size_t group_first_lane(std::size_t group) const {
    return group_first_lane_[group];
  }
  BatchedGroupStats group_stats(std::size_t group) const;

  /// True when the last run() took the AVX2 sweep path.
  bool used_avx2() const noexcept { return used_avx2_; }

 private:
  void run_block(std::size_t block, std::span<const double> betas,
                 std::size_t monotone_from, bool allow_early_exit,
                 bool use_avx2);

  const qubo::QuboAdjacency* adjacency_;
  std::vector<BatchedGroup> groups_;
  std::vector<std::uint32_t> lane_group_;
  std::vector<std::size_t> group_first_lane_;

  // Per-lane outputs; each block writes its own lane range.
  std::vector<std::uint8_t> final_bits_;   // [lanes * n]
  std::vector<double> final_field_;        // [lanes * n]
  std::vector<std::uint64_t> lane_flips_;
  std::vector<std::size_t> lane_sweeps_;
  std::vector<std::uint8_t> lane_early_exit_;
  std::vector<std::uint8_t> lane_annealed_;
  std::vector<std::uint8_t> group_cancelled_;

  std::size_t scheduled_sweeps_ = 0;
  bool used_avx2_ = false;
};

}  // namespace qsmt::anneal
