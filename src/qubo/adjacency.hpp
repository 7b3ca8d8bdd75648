// CSR-style adjacency view of a QuboModel for fast annealing sweeps.
//
// Samplers flip one bit at a time; the energy change of flipping x_i is
//   Δ_i = (1 - 2 x_i) * (q_ii + Σ_{j ~ i} q_ij x_j)
// which needs O(degree(i)) work given a neighbor list. Building the list is
// O(n + m) once per model and is shared read-only by every thread that
// samples it (no mutation after construction).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo_model.hpp"

namespace qsmt::qubo {

class QuboAdjacency {
 public:
  /// Builds the adjacency for `model`. The adjacency snapshots the
  /// coefficients; later edits to `model` are not reflected.
  explicit QuboAdjacency(const QuboModel& model);

  std::size_t num_variables() const noexcept { return linear_.size(); }
  std::size_t num_interactions() const noexcept { return neighbors_.size() / 2; }
  double offset() const noexcept { return offset_; }

  double linear(std::size_t i) const noexcept { return linear_[i]; }

  /// Neighbors of variable i as (neighbor index, coefficient) pairs.
  struct Neighbor {
    std::uint32_t index;
    double coefficient;
  };
  std::span<const Neighbor> neighbors(std::size_t i) const noexcept {
    return {neighbors_.data() + row_start_[i],
            row_start_[i + 1] - row_start_[i]};
  }

  /// Total energy of a full assignment.
  double energy(std::span<const std::uint8_t> bits) const;

  /// Energy delta of flipping bit i within assignment `bits`.
  double flip_delta(std::span<const std::uint8_t> bits, std::size_t i) const;

  /// Local field q_ii + Σ_j q_ij x_j used by both flip_delta and samplers
  /// that maintain incremental fields themselves.
  double local_field(std::span<const std::uint8_t> bits, std::size_t i) const;

  /// Replica-major bulk local fields for the batched sweep kernel
  /// (docs/hotpath.md, "The batched substrate"). `replica_words[i]` packs
  /// one bit per replica lane of variable i (bit r = lane r's value);
  /// writes fields[i * stride + r] = q_ii + Σ_j q_ij x_j^(r) for every
  /// lane r < num_replicas, accumulating neighbors in CSR order so each
  /// lane's value is bit-identical to local_field() on that lane's
  /// unpacked assignment. Lanes in [num_replicas, stride) are untouched.
  void bulk_local_fields(std::span<const std::uint64_t> replica_words,
                         std::size_t num_replicas, std::size_t stride,
                         std::span<double> fields) const;

  /// Largest |coefficient| across linear and quadratic terms (0 for an empty
  /// adjacency). Matches QuboModel::max_abs_coefficient() for the source
  /// model modulo exactly-zero quadratic entries, which both ignore.
  double max_abs_coefficient() const noexcept;

  /// Smallest nonzero |coefficient| (0 for an all-zero adjacency).
  double min_abs_nonzero_coefficient() const noexcept;

  /// Heap bytes of the linear, row-start and neighbor arrays.
  std::size_t heap_bytes() const noexcept;

  /// Reconstructs an equivalent QuboModel (used by Sampler's generic
  /// adjacency entry point for samplers without a native CSR path).
  QuboModel to_model() const;

 private:
  std::vector<double> linear_;
  std::vector<std::size_t> row_start_;
  std::vector<Neighbor> neighbors_;
  double offset_ = 0.0;
};

}  // namespace qsmt::qubo
