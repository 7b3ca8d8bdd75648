#include "qubo/adjacency.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace qsmt::qubo {

QuboAdjacency::QuboAdjacency(const QuboModel& model)
    : linear_(model.linear_terms()), offset_(model.offset()) {
  const std::size_t n = linear_.size();
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [key, value] : model.quadratic_terms()) {
    if (value == 0.0) continue;
    ++degree[key >> 32];
    ++degree[key & 0xffffffffULL];
  }
  row_start_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) row_start_[i + 1] = row_start_[i] + degree[i];
  neighbors_.resize(row_start_[n]);

  std::vector<std::size_t> cursor(row_start_.begin(), row_start_.end() - 1);
  for (const auto& [key, value] : model.quadratic_terms()) {
    if (value == 0.0) continue;
    const auto i = static_cast<std::uint32_t>(key >> 32);
    const auto j = static_cast<std::uint32_t>(key & 0xffffffffULL);
    neighbors_[cursor[i]++] = Neighbor{j, value};
    neighbors_[cursor[j]++] = Neighbor{i, value};
  }
  // Deterministic neighbor order independent of hash-map iteration.
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(row_start_[i]),
              neighbors_.begin() + static_cast<std::ptrdiff_t>(row_start_[i + 1]),
              [](const Neighbor& a, const Neighbor& b) { return a.index < b.index; });
  }
}

double QuboAdjacency::energy(std::span<const std::uint8_t> bits) const {
  require(bits.size() == linear_.size(),
          "QuboAdjacency::energy: bit vector size mismatch");
  double e = offset_;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (!bits[i]) continue;
    e += linear_[i];
    // Each quadratic term appears in both endpoint rows; count it once by
    // only accumulating neighbors with a larger index.
    for (const Neighbor& nb : neighbors(i)) {
      if (nb.index > i && bits[nb.index]) e += nb.coefficient;
    }
  }
  return e;
}

double QuboAdjacency::local_field(std::span<const std::uint8_t> bits,
                                  std::size_t i) const {
  double field = linear_[i];
  for (const Neighbor& nb : neighbors(i)) {
    if (bits[nb.index]) field += nb.coefficient;
  }
  return field;
}

void QuboAdjacency::bulk_local_fields(
    std::span<const std::uint64_t> replica_words, std::size_t num_replicas,
    std::size_t stride, std::span<double> fields) const {
  const std::size_t n = linear_.size();
  require(replica_words.size() == n,
          "QuboAdjacency::bulk_local_fields: replica word count mismatch");
  require(num_replicas >= 1 && num_replicas <= stride && num_replicas <= 64,
          "QuboAdjacency::bulk_local_fields: bad replica count");
  require(fields.size() >= n * stride,
          "QuboAdjacency::bulk_local_fields: field buffer too small");
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const Neighbor> row = neighbors(i);
    double* out = fields.data() + i * stride;
    for (std::size_t r = 0; r < num_replicas; ++r) {
      // Same conditional accumulation, in the same CSR order, as
      // local_field(): the batched kernel's starting fields must match the
      // scalar oracle's to the last bit.
      double field = linear_[i];
      for (const Neighbor& nb : row) {
        if ((replica_words[nb.index] >> r) & 1u) field += nb.coefficient;
      }
      out[r] = field;
    }
  }
}

double QuboAdjacency::flip_delta(std::span<const std::uint8_t> bits,
                                 std::size_t i) const {
  const double sign = bits[i] ? -1.0 : 1.0;
  return sign * local_field(bits, i);
}

double QuboAdjacency::max_abs_coefficient() const noexcept {
  double best = 0.0;
  for (double v : linear_) best = std::max(best, std::abs(v));
  for (const Neighbor& nb : neighbors_)
    best = std::max(best, std::abs(nb.coefficient));
  return best;
}

double QuboAdjacency::min_abs_nonzero_coefficient() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (double v : linear_)
    if (v != 0.0) best = std::min(best, std::abs(v));
  for (const Neighbor& nb : neighbors_)
    if (nb.coefficient != 0.0) best = std::min(best, std::abs(nb.coefficient));
  return std::isinf(best) ? 0.0 : best;
}

std::size_t QuboAdjacency::heap_bytes() const noexcept {
  return linear_.capacity() * sizeof(double) +
         row_start_.capacity() * sizeof(std::size_t) +
         neighbors_.capacity() * sizeof(Neighbor);
}

QuboModel QuboAdjacency::to_model() const {
  const std::size_t n = linear_.size();
  QuboModel model(n);
  model.set_offset(offset_);
  for (std::size_t i = 0; i < n; ++i) {
    if (linear_[i] != 0.0) model.set_linear(i, linear_[i]);
  }
  // Each edge is stored in both endpoint rows; emit it once from the lower
  // endpoint's row (neighbor index greater than the row index).
  for (std::size_t i = 0; i < n; ++i) {
    for (const Neighbor& nb : neighbors(i)) {
      if (nb.index > i) model.add_quadratic(i, nb.index, nb.coefficient);
    }
  }
  return model;
}

}  // namespace qsmt::qubo
