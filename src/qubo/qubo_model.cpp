#include "qubo/qubo_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace qsmt::qubo {

QuboModel::QuboModel(std::size_t num_variables) : linear_(num_variables, 0.0) {}

void QuboModel::ensure_variables(std::size_t n) {
  if (n > linear_.size()) linear_.resize(n, 0.0);
}

void QuboModel::add_linear(std::size_t i, double value) {
  ensure_variables(i + 1);
  linear_[i] += value;
}

void QuboModel::set_linear(std::size_t i, double value) {
  ensure_variables(i + 1);
  linear_[i] = value;
}

double QuboModel::linear(std::size_t i) const {
  require_in_range(i < linear_.size(), "QuboModel::linear: index out of range");
  return linear_[i];
}

void QuboModel::add_quadratic(std::size_t i, std::size_t j, double value) {
  if (i == j) {
    // x_i * x_i == x_i for binary variables.
    add_linear(i, value);
    return;
  }
  if (i > j) std::swap(i, j);
  ensure_variables(j + 1);
  quadratic_[pack_pair(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j))] += value;
}

void QuboModel::set_quadratic(std::size_t i, std::size_t j, double value) {
  if (i == j) {
    set_linear(i, value);
    return;
  }
  if (i > j) std::swap(i, j);
  ensure_variables(j + 1);
  quadratic_[pack_pair(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j))] = value;
}

double QuboModel::quadratic(std::size_t i, std::size_t j) const {
  require_in_range(i < linear_.size() && j < linear_.size(),
                   "QuboModel::quadratic: index out of range");
  if (i == j) return 0.0;
  if (i > j) std::swap(i, j);
  auto it = quadratic_.find(pack_pair(static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(j)));
  return it == quadratic_.end() ? 0.0 : it->second;
}

double QuboModel::energy(std::span<const std::uint8_t> bits) const {
  require(bits.size() == linear_.size(),
          "QuboModel::energy: bit vector size mismatch");
  double e = offset_;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (bits[i]) e += linear_[i];
  }
  for (const auto& [key, value] : quadratic_) {
    const auto i = static_cast<std::size_t>(key >> 32);
    const auto j = static_cast<std::size_t>(key & 0xffffffffULL);
    if (bits[i] && bits[j]) e += value;
  }
  return e;
}

void QuboModel::scale(double factor) {
  for (double& v : linear_) v *= factor;
  for (auto& [key, value] : quadratic_) value *= factor;
  offset_ *= factor;
}

void QuboModel::add_model(const QuboModel& other, std::size_t variable_offset) {
  ensure_variables(other.num_variables() + variable_offset);
  for (std::size_t i = 0; i < other.linear_.size(); ++i) {
    if (other.linear_[i] != 0.0) linear_[i + variable_offset] += other.linear_[i];
  }
  for (const auto& [key, value] : other.quadratic_) {
    const auto i = static_cast<std::size_t>(key >> 32) + variable_offset;
    const auto j = static_cast<std::size_t>(key & 0xffffffffULL) + variable_offset;
    add_quadratic(i, j, value);
  }
  offset_ += other.offset_;
}

double QuboModel::max_abs_coefficient() const noexcept {
  double best = 0.0;
  for (double v : linear_) best = std::max(best, std::abs(v));
  for (const auto& [key, value] : quadratic_)
    best = std::max(best, std::abs(value));
  return best;
}

double QuboModel::min_abs_nonzero_coefficient() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (double v : linear_)
    if (v != 0.0) best = std::min(best, std::abs(v));
  for (const auto& [key, value] : quadratic_)
    if (value != 0.0) best = std::min(best, std::abs(value));
  return std::isinf(best) ? 0.0 : best;
}

std::size_t QuboModel::heap_bytes() const noexcept {
  return linear_.capacity() * sizeof(double) +
         quadratic_.size() *
             (sizeof(void*) + sizeof(decltype(quadratic_)::value_type)) +
         quadratic_.bucket_count() * sizeof(void*);
}

std::vector<double> QuboModel::to_dense() const {
  const std::size_t n = linear_.size();
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) dense[i * n + i] = linear_[i];
  for (const auto& [key, value] : quadratic_) {
    const auto i = static_cast<std::size_t>(key >> 32);
    const auto j = static_cast<std::size_t>(key & 0xffffffffULL);
    dense[i * n + j] = value;
  }
  return dense;
}

void QuboModel::prune_zeros() {
  for (auto it = quadratic_.begin(); it != quadratic_.end();) {
    if (it->second == 0.0)
      it = quadratic_.erase(it);
    else
      ++it;
  }
}

bool QuboModel::operator==(const QuboModel& other) const {
  if (linear_ != other.linear_ || offset_ != other.offset_) return false;
  // Compare quadratic maps treating missing entries as zero.
  for (const auto& [key, value] : quadratic_) {
    auto it = other.quadratic_.find(key);
    const double rhs = it == other.quadratic_.end() ? 0.0 : it->second;
    if (value != rhs) return false;
  }
  for (const auto& [key, value] : other.quadratic_) {
    if (!quadratic_.contains(key) && value != 0.0) return false;
  }
  return true;
}

}  // namespace qsmt::qubo
