// Counter-seedable pseudo-random number generation for multi-read sampling.
//
// Each annealing read owns an independent generator seeded as
// splitmix64(seed, read_index), so a read's result depends only on the seed
// and its index, never on which thread runs it or what ran before.
// xoshiro256** is the workhorse generator: fast, 2^256-1 period, passes
// BigCrush, and trivially seedable from splitmix64 per its authors'
// recommendation.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace qsmt {

/// SplitMix64 step function: the standard way to expand a 64-bit seed into
/// the larger state of another generator (Steele et al., OOPSLA'14).
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// Hashes (seed, stream) into a single well-mixed 64-bit value. Used to give
/// each parallel annealing read its own independent stream.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator so it can drive <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Convenience: generator for parallel stream `stream` of a master seed.
  Xoshiro256(std::uint64_t seed, std::uint64_t stream) noexcept
      : Xoshiro256(mix_seed(seed, stream)) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Single random bit.
  bool coin() noexcept { return (operator()() >> 63) != 0; }

  /// Equivalent to 2^128 calls to operator(); used to split non-overlapping
  /// sequences when counter seeding is not appropriate.
  void jump() noexcept;

  /// Snapshot / restore of the full 256-bit state. The batched sweep kernel
  /// runs four interleaved lane streams through SIMD registers and writes
  /// the advanced states back, so each lane's sequence stays bit-identical
  /// to a scalar generator that was stepped on its own.
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace qsmt
