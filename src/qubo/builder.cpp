#include "qubo/builder.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace qsmt::qubo {

namespace {

using Term = QuboBuilder::Term;

// Records which merge path build() took (`path`, one of the three
// qubo.build.path.* counters) plus term/density stats; one call per build.
void record_build(const telemetry::Counter& path, std::size_t n,
                  std::size_t m) {
  path.add();
  static const auto terms =
      telemetry::histogram("qubo.build.terms", telemetry::Unit::kCount);
  static const auto variables =
      telemetry::histogram("qubo.build.variables", telemetry::Unit::kCount);
  static const auto density =
      telemetry::histogram("qubo.build.density", telemetry::Unit::kRatio);
  terms.record(static_cast<double>(m));
  variables.record(static_cast<double>(n));
  if (n > 0) {
    density.record(static_cast<double>(m) / (static_cast<double>(n) *
                                             static_cast<double>(n)));
  }
}

// One stable counting-sort pass over a 32-bit half of the packed key.
// `count` must have at least max_digit+1 entries; contents are clobbered.
void counting_pass(const std::vector<Term>& in, std::vector<Term>& out,
                   std::vector<std::size_t>& count, unsigned shift) {
  std::fill(count.begin(), count.end(), std::size_t{0});
  for (const Term& t : in) ++count[(t.key >> shift) & 0xffffffffULL];
  std::size_t running = 0;
  for (std::size_t& c : count) {
    const std::size_t here = c;
    c = running;
    running += here;
  }
  for (const Term& t : in) out[count[(t.key >> shift) & 0xffffffffULL]++] = t;
}

}  // namespace

QuboModel QuboBuilder::build() {
  const std::size_t n = linear_.size();
  const std::size_t m = terms_.size();

  // Dense-accumulator fast path: duplicate merging does not actually need a
  // sort — only that each key's contributions are summed in insertion
  // order, which a flat n×n accumulator gives for free (per-key adds happen
  // in stream order, so the sums are bit-identical to the incremental
  // map's). Worth it when the n² scratch is small relative to the term
  // stream and fits comfortably in cache.
  telemetry::Span span("qubo.build");
  constexpr std::size_t kDenseCells = std::size_t{1} << 20;
  if (m >= 64 && n * n <= kDenseCells && n * n <= 8 * m) {
    static const auto dense = telemetry::counter("qubo.build.path.dense");
    record_build(dense, n, m);
    std::vector<double> value(n * n, 0.0);
    std::vector<std::uint8_t> seen(n * n, 0);
    std::vector<std::uint32_t> touched;
    touched.reserve(m);
    for (const Term& t : terms_) {
      const auto idx = static_cast<std::uint32_t>(
          (t.key >> 32) * n + (t.key & 0xffffffffULL));
      value[idx] += t.value;
      if (!seen[idx]) {
        seen[idx] = 1;
        touched.push_back(idx);
      }
    }
    QuboModel model(n);
    model.set_offset(offset_);
    for (std::size_t i = 0; i < n; ++i) {
      if (linear_[i] != 0.0) model.set_linear(i, linear_[i]);
    }
    model.reserve_interactions(touched.size());
    for (const std::uint32_t idx : touched) {
      if (value[idx] != 0.0) model.add_quadratic(idx / n, idx % n, value[idx]);
    }
    return model;
  }

  // Otherwise sort terms by packed (i, j) key, keeping duplicate keys in
  // insertion order so the merged sum below accumulates in exactly the
  // order QuboModel::add_quadratic would have — bit-identical
  // floating-point results. Both key halves are variable indices < n, so a
  // two-pass LSD counting sort (stable by construction) does it in
  // O(m + n); the comparison sort remains as the fallback for sparse
  // streams where the O(n) count arrays would dominate.
  if (m >= 64 && n <= 4 * m) {
    static const auto counting_sort =
        telemetry::counter("qubo.build.path.counting_sort");
    record_build(counting_sort, n, m);
    std::vector<Term> tmp(m);
    std::vector<std::size_t> count(n);
    counting_pass(terms_, tmp, count, 0);    // minor key: j
    counting_pass(tmp, terms_, count, 32);   // major key: i
  } else {
    static const auto stable_sort =
        telemetry::counter("qubo.build.path.stable_sort");
    record_build(stable_sort, n, m);
    std::stable_sort(
        terms_.begin(), terms_.end(),
        [](const Term& a, const Term& b) { return a.key < b.key; });
  }

  QuboModel model(n);
  model.set_offset(offset_);
  for (std::size_t i = 0; i < n; ++i) {
    if (linear_[i] != 0.0) model.set_linear(i, linear_[i]);
  }

  // Count unique keys so the model's hash map is sized once.
  std::size_t unique = 0;
  for (std::size_t t = 0; t < m; ++t) {
    if (t == 0 || terms_[t].key != terms_[t - 1].key) ++unique;
  }
  model.reserve_interactions(unique);

  for (std::size_t t = 0; t < m;) {
    const std::uint64_t key = terms_[t].key;
    double sum = terms_[t].value;
    for (++t; t < m && terms_[t].key == key; ++t) {
      sum += terms_[t].value;
    }
    if (sum == 0.0) continue;
    model.add_quadratic(static_cast<std::size_t>(key >> 32),
                        static_cast<std::size_t>(key & 0xffffffffULL), sum);
  }
  return model;
}

}  // namespace qsmt::qubo
