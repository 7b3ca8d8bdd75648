// Exhaustive QUBO solver for small models, and the exact component
// presolve built on the same enumeration.
//
// Enumerates all 2^n assignments in Gray-code order so each step is a
// single-bit flip evaluated in O(degree) — the ground truth oracle used by
// the test suite and by the success-probability benches. Hard-capped at
// 30 variables; larger requests throw rather than silently running for
// hours (Core Guidelines I.6: prefer Expects() over surprising behaviour).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "anneal/sampler.hpp"

namespace qsmt::anneal {

struct ExactSolverParams {
  /// Keep at most this many lowest-energy samples in the result.
  std::size_t max_samples = 64;
  /// Refuse models with more variables than this (safety valve).
  std::size_t max_variables = 30;
};

class ExactSolver final : public Sampler {
 public:
  explicit ExactSolver(ExactSolverParams params = {});

  /// Throws std::invalid_argument when the model exceeds max_variables.
  SampleSet sample(const qubo::QuboModel& model) const override;
  std::string name() const override { return "exact"; }

  /// Ground-state energy only (same enumeration, no sample bookkeeping).
  double ground_energy(const qubo::QuboModel& model) const;

 private:
  ExactSolverParams params_;
};

/// Largest connected component presolve() decides by enumeration. Sized
/// from the component histogram of the served families: every separable
/// family is all singletons, palindromes pair mirrored bits (2), one-hot
/// regex windows reach 9, and not-contains windows start at 14 — those
/// stay with the samplers, where brute force would cost ~10 ms a model.
inline constexpr std::size_t kMaxPresolveComponent = 12;

/// Exact ground state of `adjacency` when every connected component has at
/// most kMaxPresolveComponent variables; nullopt as soon as one is larger.
/// Singletons take the sign of their field; larger components are
/// enumerated in Gray-code order, independently, so the cost is the sum of
/// 2^size over components rather than 2^n. Ties between ground states go
/// to the bit pattern of 'a' (1100001, MSB first) on the first
/// `string_bits` variables, 7 per character, and to 0 on the rest, so a
/// free character decodes to a printable letter. Deterministic: the same
/// adjacency always yields the same assignment. Emits the `presolve` span
/// and, on a decline, the presolve.declined counter.
std::optional<std::vector<std::uint8_t>> presolve(
    const qubo::QuboAdjacency& adjacency, std::size_t string_bits);

}  // namespace qsmt::anneal
