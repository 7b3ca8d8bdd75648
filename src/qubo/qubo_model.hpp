// Sparse QUBO (Quadratic Unconstrained Binary Optimization) model.
//
// A QUBO instance is  E(x) = offset + Σ_i q_ii x_i + Σ_{i<j} q_ij x_i x_j
// over binary variables x ∈ {0,1}^n. This is the exchange format between
// the string-constraint compilers (src/strqubo) and the annealing samplers
// (src/anneal), mirroring the role of dimod.BinaryQuadraticModel in the
// D-Wave stack the paper used.
//
// Storage is upper-triangular: quadratic(i,j) with i<j holds the full
// coefficient of the x_i x_j product (no symmetric halving).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace qsmt::qubo {

/// Packs an (i, j) index pair (i < j) into an unordered_map key.
constexpr std::uint64_t pack_pair(std::uint32_t i, std::uint32_t j) noexcept {
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

class QuboModel {
 public:
  QuboModel() = default;

  /// Creates a model over `num_variables` binary variables, all zero
  /// coefficients.
  explicit QuboModel(std::size_t num_variables);

  std::size_t num_variables() const noexcept { return linear_.size(); }
  std::size_t num_interactions() const noexcept { return quadratic_.size(); }

  /// Grows the model to at least `n` variables (never shrinks).
  void ensure_variables(std::size_t n);

  /// Adds `value` to the linear coefficient q_ii. Grows the model if needed.
  void add_linear(std::size_t i, double value);

  /// Overwrites the linear coefficient q_ii. Grows the model if needed.
  void set_linear(std::size_t i, double value);

  /// Linear coefficient q_ii (0 when untouched). Throws std::out_of_range
  /// when i >= num_variables().
  double linear(std::size_t i) const;

  /// Adds `value` to the quadratic coefficient q_ij (order of i/j does not
  /// matter; i == j is routed to the linear term since x_i^2 = x_i).
  void add_quadratic(std::size_t i, std::size_t j, double value);

  /// Overwrites the quadratic coefficient q_ij.
  void set_quadratic(std::size_t i, std::size_t j, double value);

  /// Quadratic coefficient q_ij (0 when untouched). Throws when an index is
  /// out of range.
  double quadratic(std::size_t i, std::size_t j) const;

  double offset() const noexcept { return offset_; }
  void set_offset(double offset) noexcept { offset_ = offset; }
  void add_offset(double delta) noexcept { offset_ += delta; }

  /// Evaluates E(x). `bits.size()` must equal num_variables(); entries must
  /// be 0 or 1.
  double energy(std::span<const std::uint8_t> bits) const;

  /// Multiplies every coefficient (and the offset) by `factor`.
  void scale(double factor);

  /// Adds every term of `other` into this model. When `variable_offset` is
  /// nonzero, other's variable k maps onto this model's k + variable_offset.
  void add_model(const QuboModel& other, std::size_t variable_offset = 0);

  /// Largest |coefficient| across linear and quadratic terms (0 for an empty
  /// model). Used to auto-derive annealing temperature ranges.
  double max_abs_coefficient() const noexcept;

  /// Smallest nonzero |coefficient| (0 for an all-zero model).
  double min_abs_nonzero_coefficient() const noexcept;

  /// Dense row-major (n x n) upper-triangular matrix view; element [i*n+j]
  /// for i<=j. Intended for small models (tests, Table 1 printing).
  std::vector<double> to_dense() const;

  /// Access to the raw quadratic map for iteration (key = pack_pair(i, j)).
  const std::unordered_map<std::uint64_t, double>& quadratic_terms()
      const noexcept {
    return quadratic_;
  }

  /// Access to the raw linear coefficient array.
  const std::vector<double>& linear_terms() const noexcept { return linear_; }

  /// Heap bytes of the coefficient storage: the linear array, one hash
  /// node (next link, key, value) per quadratic term and the bucket array.
  std::size_t heap_bytes() const noexcept;

  /// Removes stored quadratic entries that are exactly zero.
  void prune_zeros();

  /// Reserves hash capacity for `n` quadratic terms; bulk loaders (see
  /// QuboBuilder) call this once so a term stream inserts without rehashing.
  void reserve_interactions(std::size_t n) { quadratic_.reserve(n); }

  bool operator==(const QuboModel& other) const;

 private:
  std::vector<double> linear_;
  std::unordered_map<std::uint64_t, double> quadratic_;
  double offset_ = 0.0;
};

}  // namespace qsmt::qubo
