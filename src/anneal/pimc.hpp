// Path-integral Monte Carlo simulation of transverse-field quantum
// annealing (PIQA).
//
// The paper's future work is running its QUBOs on a real quantum annealer;
// we substitute the standard classical simulation of that device
// (Martoňák, Santoro & Tosatti, PRB 66, 094203 (2002)): the quantum Ising
// Hamiltonian
//   H(t) = Σ h_i σ^z_i + Σ J_ij σ^z_i σ^z_j - Γ(t) Σ σ^x_i
// is Suzuki-Trotter mapped onto P coupled classical replicas ("slices"),
//   H_eff = Σ_k [ H_problem(s^k) / P ] - J⊥(Γ) Σ_{k,i} s^k_i s^{k+1}_i ,
//   J⊥(Γ) = -(T/2) ln tanh(Γ / (P T)) > 0, periodic in k,
// and sampled with Metropolis moves (single spin flips plus whole-column
// "global" flips) while Γ decays from gamma_hot to gamma_cold. The output
// sample of a read is the best slice encountered, scored by the true
// problem Hamiltonian.
//
// The inner loop runs the same hot-path treatment as the classical SA
// kernel (docs/hotpath.md, "The quantum path"): per-slice classical local
// fields are maintained incrementally in slice-major AnnealContext buffers,
// so a proposal is O(1) and an accepted flip O(degree); acceptance is the
// screened exp-free Metropolis compare with bulk-generated uniforms.
//
// Reads run in order on the calling thread with counter-seeded RNG streams
// like the classical annealer, so a fixed seed gives bit-identical output.
#pragma once

#include <cstdint>

#include "anneal/sampler.hpp"
#include "util/cancel.hpp"

namespace qsmt::anneal {

struct PathIntegralParams {
  std::size_t num_reads = 32;
  std::size_t num_sweeps = 256;   ///< Γ-schedule steps; one full pass each.
  std::size_t num_slices = 16;    ///< Trotter replicas P.
  double temperature = 0.05;      ///< Simulation temperature T (in energy units).
  double gamma_hot = 3.0;         ///< Initial transverse field.
  double gamma_cold = 1e-3;       ///< Final transverse field.
  std::uint64_t seed = 0;
  bool polish_with_greedy = true; ///< Quench the winning slice classically.
  /// Cooperative cancellation, polled once per slice sweep (the same
  /// granularity as the classical SA/PT kernels, so service deadlines cut
  /// large models short within one sweep). See
  /// SimulatedAnnealerParams::cancel for the contract.
  CancelToken cancel;
};

class PathIntegralAnnealer final : public Sampler {
 public:
  explicit PathIntegralAnnealer(PathIntegralParams params = {});

  SampleSet sample(const qubo::QuboModel& model) const override;
  std::string name() const override { return "path-integral-quantum"; }

  const PathIntegralParams& params() const noexcept { return params_; }

 private:
  PathIntegralParams params_;
};

/// Trotter inter-slice ferromagnetic coupling strength J⊥ for transverse
/// field `gamma`, `num_slices` replicas at `temperature`. Exposed for tests:
/// J⊥ → ∞ as gamma → 0 (slices lock) and → 0 as gamma grows (slices free).
double trotter_coupling(double gamma, std::size_t num_slices,
                        double temperature);

namespace detail {

/// The pre-overhaul PIMC kernel: per-proposal adjacency walks, lazy uniform
/// draws, textbook `exp` acceptance, per-Γ-step slice rescoring. Kept
/// verbatim as the bench baseline (BENCH_quantum.json) and for the
/// conformance suite's ground-state parity checks.
SampleSet pimc_sample_reference(const qubo::QuboModel& model,
                                const PathIntegralParams& params);

/// Field-cache audit oracle: runs the incremental-field kernel and, after
/// every Γ step, recomputes each cached slice field and each slice energy
/// directly from the adjacency. Returns the maximum absolute deviation
/// observed across all reads/steps — the kernel-equivalence bound asserted
/// by tests/quantum_hotpath_test.cpp.
double pimc_field_drift(const qubo::QuboModel& model,
                        const PathIntegralParams& params);

}  // namespace detail

}  // namespace qsmt::anneal
