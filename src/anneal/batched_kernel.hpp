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
// Lanes are grouped into blocks of kBatchedLanes; blocks are independent
// (their lane state never interacts) and run one after another on the
// calling thread. Within a block the sweep
// is vectorized with AVX2 when the CPU supports it (runtime dispatch; set
// QSMT_NO_AVX2=1 to force the portable scalar fallback). Both paths produce
// bit-identical results to the scalar kernel (detail::anneal_read):
// every lane consumes the same counter-seeded RNG stream in the same order,
// the screened Metropolis test is evaluated with the exact operation
// sequence of metropolis.hpp (explicit mul/add — never FMA, which would
// change rounding), and branch-free lane updates only ever add coef * 0.0
// to non-flipped lanes, which can at most flip the sign of a zero field —
// invisible to every later comparison and to the energies recomputed from
// bits. docs/hotpath.md ("The batched substrate") has the layout diagram
// and the measured speedups; bench/batch_bench.cpp tracks them.
//
// The lanes are the replicas of one sample() call: one seed, one replica
// count, and one cancel token. The token is polled ONCE per batched sweep —
// not per replica — and a cancel takes every live lane out of the active
// mask at the next sweep boundary. Per-lane zero-flip early exits use the
// same active mask, so a settled replica stops costing anything while its
// siblings continue.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anneal/context.hpp"
#include "qubo/adjacency.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {

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

/// First sweep at which the zero-flip early exit may fire: the start of the
/// schedule's longest non-decreasing suffix, so every later sweep is at
/// least as cold. Before it (a reverse-anneal schedule's reheat, say) a
/// zero-flip sweep says nothing about the sweeps ahead. Shared by the
/// batched kernel and detail::anneal_read.
std::size_t early_exit_from(std::span<const double> betas);

/// True when this binary carries the AVX2 translation unit (compiled with
/// -mavx2); false on toolchains/targets without it, where the scalar
/// fallback is the only path.
bool batched_avx2_compiled() noexcept;

}  // namespace detail

/// Runtime dispatch verdict: AVX2 code compiled in, supported by this CPU,
/// and not disabled via the QSMT_NO_AVX2 environment variable.
bool batched_avx2_enabled();

/// The batched multi-replica sweep kernel. Lane l is replica l, seeded as
/// Xoshiro256(seed, l) — exactly the stream a detail::anneal_read loop's
/// read l uses. run() anneals every lane through a β schedule; afterwards
/// the per-lane final bits and local fields are available for
/// polish/energy, bit-identical to what the scalar kernel leaves in its
/// AnnealContext.
class BatchedSweepKernel {
 public:
  /// `adjacency` must outlive the kernel; `num_replicas` must be >= 1.
  BatchedSweepKernel(const qubo::QuboAdjacency& adjacency, std::uint64_t seed,
                     std::size_t num_replicas, CancelToken cancel = {});

  std::size_t num_lanes() const noexcept { return num_lanes_; }
  /// Lane blocks: lanes [b * kBatchedLanes, (b + 1) * kBatchedLanes) form
  /// block b, the last one possibly partial.
  std::size_t num_blocks() const noexcept {
    return (num_lanes_ + detail::kBatchedLanes - 1) / detail::kBatchedLanes;
  }

  /// Anneals every lane through `betas`: run_block() for each block in
  /// order. May be called once per kernel.
  void run(std::span<const double> betas, bool allow_early_exit = true,
           bool force_scalar = false);

  /// Anneals block `block`'s lanes through `betas` (initial bits drawn from
  /// each lane's own stream, exactly like detail::anneal_read's caller).
  /// `allow_early_exit` arms the per-lane zero-flip exit from
  /// detail::early_exit_from(betas) on. `force_scalar` pins the portable
  /// sweep path regardless of the runtime dispatch — the in-process
  /// AVX2-vs-scalar identity tests use it. Each block may run once.
  void run_block(std::size_t block, std::span<const double> betas,
                 bool allow_early_exit = true, bool force_scalar = false);

  /// Final per-lane state once the lane's block has run: one 0/1 byte per
  /// variable, and the incrementally-maintained local fields (current, so a
  /// greedy polish can skip its own rebuild).
  std::span<const std::uint8_t> lane_bits(std::size_t lane) const;
  std::span<const double> lane_field(std::size_t lane) const;

  /// Per-lane read statistics in the scalar kernel's ReadStats shape.
  ReadStats lane_stats(std::size_t lane) const;
  /// False when the token was already cancelled before the lane's first
  /// sweep — no ReadStats are recorded for such reads.
  bool lane_annealed(std::size_t lane) const;

  /// True when the last block run took the AVX2 sweep path.
  bool used_avx2() const noexcept { return used_avx2_; }

 private:
  const qubo::QuboAdjacency* adjacency_;
  std::uint64_t seed_;
  std::size_t num_lanes_;
  CancelToken cancel_;

  // Per-lane outputs; each block writes its own lane range.
  std::vector<std::uint8_t> final_bits_;   // [lanes * n]
  std::vector<double> final_field_;        // [lanes * n]
  std::vector<std::uint64_t> lane_flips_;
  std::vector<std::size_t> lane_sweeps_;
  std::vector<std::uint8_t> lane_early_exit_;
  std::vector<std::uint8_t> lane_annealed_;

  std::size_t scheduled_sweeps_ = 0;
  bool used_avx2_ = false;
};

}  // namespace qsmt::anneal
