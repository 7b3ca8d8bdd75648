// Tests for the batched multi-replica annealing substrate: bit-identity
// against the scalar per-read oracle across replica counts, concurrent
// callers, and sweep paths (AVX2 vs portable scalar), once-per-sweep
// cancellation, and early-exit bookkeeping.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <vector>

#include "anneal/batched_kernel.hpp"
#include "anneal/schedule.hpp"
#include "anneal/simulated_annealer.hpp"
#include "concurrent_callers.hpp"
#include "qubo/adjacency.hpp"
#include "qubo/qubo_model.hpp"
#include "strqubo/builders.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {
namespace {

qubo::QuboModel random_model(std::size_t n, double density, Xoshiro256& rng) {
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i)
    model.add_linear(i, rng.uniform() * 2.0 - 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < density)
        model.add_quadratic(i, j, rng.uniform() * 2.0 - 1.0);
    }
  }
  return model;
}

// The serving workload the substrate was built for: a real string QUBO.
qubo::QuboModel string_model() {
  return strqubo::build(strqubo::Palindrome{6}, {});
}

void expect_same_sample_sets(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].energy, b[k].energy) << "sample " << k;
    EXPECT_EQ(a[k].bits, b[k].bits) << "sample " << k;
    EXPECT_EQ(a[k].num_occurrences, b[k].num_occurrences) << "sample " << k;
  }
}

SampleSet sample_with_mode(const qubo::QuboAdjacency& adjacency,
                           SimulatedAnnealerParams params, SweepMode mode) {
  params.sweep_mode = mode;
  const SimulatedAnnealer annealer(params);
  return annealer.sample(adjacency);
}

// The load-bearing guarantee: for every replica count — below, at, and
// across the 16-lane block boundary — the batched kernel must reproduce the
// scalar per-read path bit for bit, energies and all, on both a random
// dense-ish QUBO and a real string encoding.
TEST(BatchedKernel, BitIdenticalToScalarAcrossReadCounts) {
  Xoshiro256 model_rng(11, 0);
  const std::vector<qubo::QuboModel> models = {random_model(48, 0.25, model_rng),
                                               string_model()};
  for (std::size_t m = 0; m < models.size(); ++m) {
    const qubo::QuboAdjacency adjacency(models[m]);
    for (const std::size_t reads : {1u, 2u, 5u, 8u, 16u, 17u, 32u}) {
      SimulatedAnnealerParams params;
      params.num_reads = reads;
      params.num_sweeps = 64;
      params.seed = 90 + reads;
      const SampleSet scalar =
          sample_with_mode(adjacency, params, SweepMode::kScalar);
      const SampleSet batched =
          sample_with_mode(adjacency, params, SweepMode::kBatched);
      SCOPED_TRACE("model " + std::to_string(m) + " reads " +
                   std::to_string(reads));
      expect_same_sample_sets(scalar, batched);
    }
  }
}

// kAuto routes multi-read runs onto the batched kernel; the dispatch must
// be invisible in the output.
TEST(BatchedKernel, AutoModeMatchesScalarOracle) {
  Xoshiro256 model_rng(12, 0);
  const qubo::QuboModel model = random_model(40, 0.2, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  SimulatedAnnealerParams params;
  params.num_reads = 24;
  params.num_sweeps = 96;
  params.seed = 7;
  expect_same_sample_sets(
      sample_with_mode(adjacency, params, SweepMode::kScalar),
      sample_with_mode(adjacency, params, SweepMode::kAuto));
}

// Early exit disabled must also agree (full-length reads exercise the whole
// schedule instead of settling, a different flip history).
TEST(BatchedKernel, BitIdenticalWithEarlyExitDisabled) {
  Xoshiro256 model_rng(13, 0);
  const qubo::QuboModel model = random_model(32, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  SimulatedAnnealerParams params;
  params.num_reads = 12;
  params.num_sweeps = 48;
  params.seed = 3;
  params.early_exit = false;
  expect_same_sample_sets(
      sample_with_mode(adjacency, params, SweepMode::kScalar),
      sample_with_mode(adjacency, params, SweepMode::kBatched));
}

// Blocks run in order on the calling thread out of its AnnealContext, so
// four threads running the kernel at once must each match a lone run.
TEST(BatchedKernel, ThreadCountDoesNotChangeResults) {
  Xoshiro256 model_rng(14, 0);
  const qubo::QuboModel model = random_model(36, 0.25, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  SimulatedAnnealerParams params;
  params.num_reads = 33;  // Three blocks, the last one partial.
  params.num_sweeps = 64;
  params.seed = 21;
  const SampleSet lone =
      sample_with_mode(adjacency, params, SweepMode::kBatched);
  for (const SampleSet& set : run_concurrently([&] {
         return sample_with_mode(adjacency, params, SweepMode::kBatched);
       })) {
    expect_same_sample_sets(lone, set);
  }
}

// The AVX2 sweep path and the portable scalar path must agree lane for
// lane on bits, fields, and flip counters (force_scalar pins the portable
// path; the other kernel takes whatever the runtime dispatch picks, so on
// non-AVX2 hosts this degenerates to scalar-vs-scalar and still holds).
TEST(BatchedKernel, Avx2AndScalarSweepPathsAgree) {
  Xoshiro256 model_rng(15, 0);
  const qubo::QuboModel model = random_model(44, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas =
      make_schedule(range.hot, range.cold, 80, Interpolation::kGeometric);

  // 21 replicas: one full 16-lane block plus a partial second block.
  BatchedSweepKernel dispatched(adjacency, /*seed=*/5, /*num_replicas=*/21);
  dispatched.run(betas, /*allow_early_exit=*/true, /*force_scalar=*/false);
  BatchedSweepKernel scalar(adjacency, /*seed=*/5, /*num_replicas=*/21);
  scalar.run(betas, /*allow_early_exit=*/true, /*force_scalar=*/true);

  EXPECT_FALSE(scalar.used_avx2());
  EXPECT_EQ(dispatched.used_avx2(), batched_avx2_enabled());
  ASSERT_EQ(dispatched.num_lanes(), scalar.num_lanes());
  for (std::size_t lane = 0; lane < dispatched.num_lanes(); ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    const auto a = dispatched.lane_bits(lane);
    const auto b = scalar.lane_bits(lane);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    const auto fa = dispatched.lane_field(lane);
    const auto fb = scalar.lane_field(lane);
    for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
    const ReadStats sa = dispatched.lane_stats(lane);
    const ReadStats sb = scalar.lane_stats(lane);
    EXPECT_EQ(sa.flips, sb.flips);
    EXPECT_EQ(sa.sweeps_executed, sb.sweeps_executed);
    EXPECT_EQ(sa.early_exit, sb.early_exit);
  }
}

// A cancel that lands mid-run stops every lane at the same sweep boundary:
// all 16 replicas share one block and one token, which is polled once per
// sweep, so an expired deadline takes them out together, far short of the
// schedule.
TEST(BatchedKernel, MidBatchCancelStopsAllGroupsWithinOneSweep) {
  Xoshiro256 model_rng(17, 0);
  const qubo::QuboModel model = random_model(96, 0.2, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::size_t scheduled = 2000000;
  const std::vector<double> betas =
      make_schedule(0.1, 3.0, scheduled, Interpolation::kGeometric);

  CancelSource source;
  source.set_deadline_after(std::chrono::milliseconds(30));
  BatchedSweepKernel kernel(adjacency, /*seed=*/0, /*num_replicas=*/16,
                            source.token());
  // Early exit off: nothing but the cancel may shorten the run.
  kernel.run(betas, /*allow_early_exit=*/false);

  const bool annealed = kernel.lane_annealed(0);
  const std::size_t stopped_at = kernel.lane_stats(0).sweeps_executed;
  EXPECT_LT(stopped_at, scheduled);
  for (std::size_t lane = 0; lane < kernel.num_lanes(); ++lane) {
    EXPECT_EQ(kernel.lane_annealed(lane), annealed) << "lane " << lane;
    EXPECT_EQ(kernel.lane_stats(lane).sweeps_executed, stopped_at)
        << "lane " << lane;
  }
}

// A token cancelled before the run starts executes zero sweeps and its
// lanes keep their initial random states unannealed, exactly like the
// scalar path's cancelled-before-read bookkeeping; the same kernel with a
// live token anneals.
TEST(BatchedKernel, PreCancelledGroupRunsZeroSweeps) {
  Xoshiro256 model_rng(18, 0);
  const qubo::QuboModel model = random_model(24, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::vector<double> betas =
      make_schedule(0.2, 4.0, 32, Interpolation::kGeometric);

  CancelSource source;
  source.cancel();
  BatchedSweepKernel cancelled(adjacency, /*seed=*/1, /*num_replicas=*/4,
                               source.token());
  cancelled.run(betas);
  BatchedSweepKernel live(adjacency, /*seed=*/1, /*num_replicas=*/4);
  live.run(betas);

  for (std::size_t lane = 0; lane < 4; ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    EXPECT_FALSE(cancelled.lane_annealed(lane));
    EXPECT_EQ(cancelled.lane_stats(lane).sweeps_executed, 0u);
    EXPECT_EQ(cancelled.lane_stats(lane).flips, 0u);
    EXPECT_TRUE(live.lane_annealed(lane));
    EXPECT_GT(live.lane_stats(lane).sweeps_executed, 0u);
  }
}

// The per-lane zero-flip exit must surface in the lane stats the same way
// the scalar kernel's ReadStats do.
TEST(BatchedKernel, EarlyExitIsRecordedInGroupStats) {
  // Strong uniform linear fields: every replica settles to all-zeros almost
  // immediately, so with a long monotone schedule every lane exits early.
  qubo::QuboModel model(16);
  for (std::size_t i = 0; i < 16; ++i) model.add_linear(i, 5.0);
  const qubo::QuboAdjacency adjacency(model);

  SimulatedAnnealerParams params;
  params.num_reads = 8;
  params.num_sweeps = 512;
  params.seed = 4;
  params.beta_hot = 2.0;
  params.beta_cold = 10.0;
  const std::vector<double> betas =
      make_schedule(*params.beta_hot, *params.beta_cold, params.num_sweeps,
                    Interpolation::kGeometric);
  BatchedSweepKernel kernel(adjacency, params.seed, params.num_reads);
  kernel.run(betas);

  ASSERT_EQ(kernel.num_lanes(), 8u);
  std::size_t early_exited = 0;
  for (std::size_t lane = 0; lane < kernel.num_lanes(); ++lane) {
    const ReadStats stats = kernel.lane_stats(lane);
    early_exited += stats.early_exit ? 1 : 0;
    EXPECT_LT(stats.sweeps_executed, params.num_sweeps) << "lane " << lane;
  }
  EXPECT_GT(early_exited, 0u);
  // And the scalar oracle agrees wholesale.
  expect_same_sample_sets(
      sample_with_mode(adjacency, params, SweepMode::kScalar),
      sample_with_mode(adjacency, params, SweepMode::kBatched));
}

}  // namespace
}  // namespace qsmt::anneal
