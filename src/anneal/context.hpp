// Reusable per-thread annealing workspace.
//
// Every annealing read needs three scratch buffers: the working bit
// assignment, the incrementally-maintained local fields, and (for the
// exp-free kernel) the per-sweep bulk uniform draws the Metropolis
// acceptance test consumes.
// Allocating them per read dominated sample() at small model sizes, so the
// hot paths borrow a thread-local AnnealContext instead: buffers grow to the
// largest model a thread has annealed and are reused verbatim afterwards.
//
// Reuse contract (see docs/hotpath.md):
//  - prepare(n) must be called before a read; it resizes the buffers but
//    deliberately does NOT clear them — kernels overwrite every entry they
//    read (bits are re-initialised by the caller, fields by anneal_read).
//  - A context may only be used by one read at a time. The thread_local
//    accessor guarantees this: samplers run their reads one after another
//    on the calling thread (a SolveService worker, say), and kernels do not
//    recursively sample on the same thread (none do).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace qsmt::anneal {

struct AnnealContext {
  std::vector<std::uint8_t> bits;   ///< Working assignment, one byte per var.
  std::vector<double> field;        ///< Local fields q_ii + Σ q_ij x_j.
  std::vector<double> uniforms;     ///< Per-sweep bulk U[0,1) draws.

  // Slice-major PIMC workspace (see docs/hotpath.md, "The quantum path").
  // spins[k*n + i] is spin i of Trotter slice k; slice_field mirrors it with
  // the incrementally-maintained classical local fields h_i + Σ_j J_ij s_j^k,
  // and slice_energy[k] tracks each slice's classical Ising energy so the
  // best-slice scan is O(P) instead of O(P·(n+E)) per Γ step.
  std::vector<std::int8_t> spins;
  std::vector<double> slice_field;
  std::vector<double> slice_energy;

  // Replica-major batched-kernel workspace (docs/hotpath.md, "The batched
  // substrate"): one bit-packed spin word per variable plus lane-strided
  // field/uniform rows, sized for one block of the BatchedSweepKernel. The
  // block loop borrows these through the thread-local context, so
  // successive sample() calls on one thread reuse the same buffers.
  struct BatchedScratch {
    std::vector<std::uint64_t> spins;     ///< [n] spin words, bit l = lane l.
    std::vector<double> field;            ///< [n * lanes] lane-strided.
    std::vector<double> uniforms;         ///< [n * lanes] lane-strided.
    std::vector<Xoshiro256> rngs;         ///< One per lane.
    std::vector<std::uint64_t> lane_flips;
  };
  BatchedScratch batched;

  /// Sizes all buffers for an n-variable model (contents unspecified).
  void prepare(std::size_t n) {
    bits.resize(n);
    field.resize(n);
    uniforms.resize(n);
  }

  /// Additionally sizes the slice-major PIMC buffers for `slices` Trotter
  /// replicas (contents unspecified, like prepare()).
  void prepare_pimc(std::size_t n, std::size_t slices) {
    prepare(n);
    spins.resize(n * slices);
    slice_field.resize(n * slices);
    slice_energy.resize(slices);
  }

  /// Sizes the batched-kernel workspace for one `lanes`-wide block over an
  /// n-variable model (contents unspecified, like prepare()).
  void prepare_batched(std::size_t n, std::size_t lanes) {
    batched.spins.resize(n);
    batched.field.resize(n * lanes);
    batched.uniforms.resize(n * lanes);
    batched.rngs.resize(lanes, Xoshiro256(0));
    batched.lane_flips.resize(lanes);
  }
};

/// The calling thread's reusable workspace. Buffers persist across reads and
/// across sample() calls, so steady-state sampling performs no allocation.
AnnealContext& thread_local_context();

/// Per-read introspection snapshot shared by every sampler kernel: one call
/// at the end of each read (never per sweep) feeds the anneal.read.* metrics
/// documented in docs/telemetry.md. With telemetry off this is a single
/// branch, which is what keeps the read loop's overhead unmeasurable.
struct ReadStats {
  std::size_t num_variables = 0;
  std::size_t flips = 0;             ///< Accepted moves over the whole read.
  std::size_t sweeps_executed = 0;   ///< Sweeps actually run.
  std::size_t sweeps_scheduled = 0;  ///< Sweeps the schedule asked for.
  bool early_exit = false;           ///< Zero-flip exit fired.
};
void record_read_stats(const ReadStats& stats);

}  // namespace qsmt::anneal
