#include "anneal/batched_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>

#include "anneal/metropolis.hpp"
#include "util/require.hpp"

namespace qsmt::anneal {

namespace detail {

void fill_uniforms_scalar(const BatchedBlockView& view, Xoshiro256* rngs) {
  const std::size_t n = view.num_variables;
  for (std::uint64_t m = view.active; m != 0; m &= m - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(m));
    Xoshiro256& rng = rngs[l];
    double* u = view.uniforms + l;
    for (std::size_t i = 0; i < n; ++i) {
      u[i * kBatchedLanes] = rng.uniform();
    }
  }
}

std::uint64_t sweep_scalar(const BatchedBlockView& view, double beta,
                           std::uint64_t* lane_flips) {
  const std::size_t n = view.num_variables;
  const qubo::QuboAdjacency& adjacency = *view.adjacency;
  std::uint64_t flipped_lanes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = view.spins[i];
    double* field_i = view.field + i * kBatchedLanes;
    const double* u_i = view.uniforms + i * kBatchedLanes;
    std::uint64_t flips = 0;
    for (std::uint64_t m = view.active; m != 0; m &= m - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(m));
      const double delta = ((word >> l) & 1u) ? -field_i[l] : field_i[l];
      if (metropolis_accept(beta * delta, u_i[l])) flips |= 1ULL << l;
    }
    if (flips == 0) continue;
    view.spins[i] = word ^ flips;
    flipped_lanes |= flips;
    const auto row = adjacency.neighbors(i);
    for (std::uint64_t m = flips; m != 0; m &= m - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(m));
      const double step = ((word >> l) & 1u) ? -1.0 : 1.0;
      ++lane_flips[l];
      for (const auto& nb : row) {
        view.field[nb.index * kBatchedLanes + l] += nb.coefficient * step;
      }
    }
  }
  return flipped_lanes;
}

}  // namespace detail

bool batched_avx2_enabled() {
  static const bool enabled = [] {
    if (const char* env = std::getenv("QSMT_NO_AVX2");
        env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      return false;
    }
    if (!detail::batched_avx2_compiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return static_cast<bool>(__builtin_cpu_supports("avx2"));
#else
    return false;
#endif
  }();
  return enabled;
}

BatchedSweepKernel::BatchedSweepKernel(const qubo::QuboAdjacency& adjacency,
                                       std::uint64_t seed,
                                       std::size_t num_replicas,
                                       CancelToken cancel)
    : adjacency_(&adjacency),
      seed_(seed),
      num_lanes_(num_replicas),
      cancel_(std::move(cancel)) {
  require(num_replicas >= 1, "BatchedSweepKernel: need >= 1 replica");
  const std::size_t n = adjacency_->num_variables();
  final_bits_.resize(num_lanes_ * n);
  final_field_.resize(num_lanes_ * n);
  lane_flips_.assign(num_lanes_, 0);
  lane_sweeps_.assign(num_lanes_, 0);
  lane_early_exit_.assign(num_lanes_, 0);
  lane_annealed_.assign(num_lanes_, 0);
}

void BatchedSweepKernel::run(std::span<const double> betas,
                             bool allow_early_exit, bool force_scalar) {
  scheduled_sweeps_ = betas.size();
  const bool use_avx2 = !force_scalar && batched_avx2_enabled();
  used_avx2_ = use_avx2;

  // Same arming rule as the scalar kernel: the zero-flip exit is sound only
  // within the schedule's longest non-decreasing suffix.
  std::size_t monotone_from = 0;
  if (allow_early_exit && !betas.empty()) {
    monotone_from = betas.size() - 1;
    while (monotone_from > 0 &&
           betas[monotone_from - 1] <= betas[monotone_from]) {
      --monotone_from;
    }
  }

  const std::size_t blocks =
      (num_lanes() + detail::kBatchedLanes - 1) / detail::kBatchedLanes;
  for (std::size_t b = 0; b < blocks; ++b) {
    run_block(b, betas, monotone_from, allow_early_exit, use_avx2);
  }
}

void BatchedSweepKernel::run_block(std::size_t block,
                                   std::span<const double> betas,
                                   std::size_t monotone_from,
                                   bool allow_early_exit, bool use_avx2) {
  const std::size_t n = adjacency_->num_variables();
  const std::size_t first = block * detail::kBatchedLanes;
  const std::size_t lanes =
      std::min(detail::kBatchedLanes, num_lanes() - first);

  AnnealContext& ctx = thread_local_context();
  ctx.prepare_batched(n, detail::kBatchedLanes);
  auto& scratch = ctx.batched;

  detail::BatchedBlockView view;
  view.num_variables = n;
  view.spins = scratch.spins.data();
  view.field = scratch.field.data();
  view.uniforms = scratch.uniforms.data();
  view.adjacency = adjacency_;

  // Lane setup: counter-seeded stream and random initial bits, exactly the
  // scalar path's Xoshiro256(seed, read) followed by n coin() draws.
  std::fill_n(view.spins, n, 0);
  for (std::size_t l = 0; l < lanes; ++l) {
    scratch.rngs[l] = Xoshiro256(seed_, first + l);
    Xoshiro256& rng = scratch.rngs[l];
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.coin()) view.spins[i] |= 1ULL << l;
    }
  }

  // A token cancelled before the block's first sweep matches the scalar
  // path's "cancelled before read": the lanes keep their random initial
  // bits and record no read stats.
  const auto cancelled = [this] {
    return cancel_.cancellable() && cancel_.cancelled();
  };
  std::uint64_t active = cancelled() ? 0 : (1ULL << lanes) - 1;
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_annealed_[first + l] = (active >> l) & 1u;
  }

  // Replica-major field init off the shared CSR (bit-identical per lane to
  // local_field on the unpacked assignment).
  adjacency_->bulk_local_fields(std::span(view.spins, n), lanes,
                                detail::kBatchedLanes,
                                std::span(view.field, n * detail::kBatchedLanes));

  std::uint64_t* lane_flips = scratch.lane_flips.data();
  std::fill_n(lane_flips, detail::kBatchedLanes, 0);
  std::size_t lane_sweeps[detail::kBatchedLanes] = {};
  std::uint64_t early_exited = 0;

  for (std::size_t s = 0; s < betas.size(); ++s) {
    // One cancel poll per batched sweep — never per replica. Cancelled
    // lanes stop at this sweep boundary with consistent state
    // (bits/fields), like the scalar kernel's per-sweep poll.
    if (cancelled()) {
      for (std::uint64_t m = active; m != 0; m &= m - 1) {
        lane_sweeps[std::countr_zero(m)] = s;
      }
      active = 0;
    }
    if (active == 0) break;
    view.active = active;

    const double beta = betas[s];
    if (use_avx2) {
      detail::fill_uniforms_avx2(view, scratch.rngs.data());
    } else {
      detail::fill_uniforms_scalar(view, scratch.rngs.data());
    }
    const std::uint64_t flipped =
        use_avx2 ? detail::sweep_avx2(view, beta, lane_flips)
                 : detail::sweep_scalar(view, beta, lane_flips);

    if (allow_early_exit && s >= monotone_from) {
      const std::uint64_t settled = active & ~flipped;
      if (settled != 0) {
        for (std::uint64_t m = settled; m != 0; m &= m - 1) {
          lane_sweeps[std::countr_zero(m)] = s + 1;
        }
        if (s + 1 < betas.size()) early_exited |= settled;
        active &= ~settled;
        if (active == 0) break;
      }
    }
  }
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    lane_sweeps[std::countr_zero(m)] = betas.size();
  }

  // Unpack the block's final state into the per-lane output rows.
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t lane = first + l;
    std::uint8_t* bits = final_bits_.data() + lane * n;
    double* field = final_field_.data() + lane * n;
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = static_cast<std::uint8_t>((view.spins[i] >> l) & 1u);
      field[i] = view.field[i * detail::kBatchedLanes + l];
    }
    lane_flips_[lane] = lane_flips[l];
    lane_sweeps_[lane] = lane_sweeps[l];
    lane_early_exit_[lane] = (early_exited >> l) & 1u;
  }
}

std::span<const std::uint8_t> BatchedSweepKernel::lane_bits(
    std::size_t lane) const {
  const std::size_t n = adjacency_->num_variables();
  return {final_bits_.data() + lane * n, n};
}

std::span<const double> BatchedSweepKernel::lane_field(std::size_t lane) const {
  const std::size_t n = adjacency_->num_variables();
  return {final_field_.data() + lane * n, n};
}

ReadStats BatchedSweepKernel::lane_stats(std::size_t lane) const {
  ReadStats stats;
  stats.num_variables = adjacency_->num_variables();
  stats.flips = lane_flips_[lane];
  stats.sweeps_executed = lane_sweeps_[lane];
  stats.sweeps_scheduled = scheduled_sweeps_;
  stats.early_exit = lane_early_exit_[lane] != 0;
  return stats;
}

bool BatchedSweepKernel::lane_annealed(std::size_t lane) const {
  return lane_annealed_[lane] != 0;
}

}  // namespace qsmt::anneal
