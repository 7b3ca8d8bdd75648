// Tests for the batched multi-replica annealing substrate: bit-identity
// against the scalar per-read oracle across replica counts, concurrent
// callers, and sweep paths (AVX2 vs portable scalar), multi-group fusion vs solo
// runs, once-per-sweep group cancellation, and early-exit bookkeeping.
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

  std::vector<BatchedGroup> groups(2);
  groups[0].seed = 5;
  groups[0].num_replicas = 9;
  groups[1].seed = 6;
  groups[1].num_replicas = 12;

  BatchedSweepKernel dispatched(adjacency, groups);
  dispatched.run(betas, /*allow_early_exit=*/true, /*force_scalar=*/false);
  BatchedSweepKernel scalar(adjacency, groups);
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

// Fusing many groups into one kernel invocation must be invisible per
// group: each group's SampleSet equals a solo scalar sample() run with that
// group's seed.
TEST(BatchedKernel, FusedGroupsMatchSoloRuns) {
  Xoshiro256 model_rng(16, 0);
  const qubo::QuboModel model = random_model(30, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  SimulatedAnnealerParams params;
  params.num_sweeps = 64;

  const std::vector<std::uint64_t> seeds = {101, 202, 303};
  const std::vector<std::size_t> replicas = {4, 8, 3};
  std::vector<BatchedGroup> groups(seeds.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].seed = seeds[g];
    groups[g].num_replicas = replicas[g];
  }
  params.num_reads = 1;  // Overridden per group below.
  const std::vector<SampleSet> fused =
      sample_batched(adjacency, params, groups);
  ASSERT_EQ(fused.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SimulatedAnnealerParams solo = params;
    solo.num_reads = replicas[g];
    solo.seed = seeds[g];
    SCOPED_TRACE("group " + std::to_string(g));
    expect_same_sample_sets(
        sample_with_mode(adjacency, solo, SweepMode::kScalar), fused[g]);
  }
}

// Satellite: a cancel that lands mid-batch stops every fused group within
// one sweep. All four groups fit one 16-lane block, so their once-per-sweep
// polls happen in the same sweep loop; an expired deadline must take every
// group out at (at most) adjacent sweep boundaries, far short of the
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
  std::vector<BatchedGroup> groups(4);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].seed = g;
    groups[g].num_replicas = 4;
    groups[g].cancel = source.token();
  }
  BatchedSweepKernel kernel(adjacency, groups);
  // Early exit off: nothing but the cancel may shorten the run.
  kernel.run(betas, /*allow_early_exit=*/false);

  std::size_t lo = scheduled, hi = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const BatchedGroupStats stats = kernel.group_stats(g);
    EXPECT_TRUE(stats.cancelled) << "group " << g;
    EXPECT_LT(stats.sweeps_executed, scheduled) << "group " << g;
    lo = std::min(lo, stats.sweeps_executed);
    hi = std::max(hi, stats.sweeps_executed);
  }
  EXPECT_LE(hi - lo, 1u);
}

// A group cancelled before the run starts executes zero sweeps and its
// lanes keep their initial random states unannealed, exactly like the
// scalar path's cancelled-before-read bookkeeping; sibling groups are
// unaffected.
TEST(BatchedKernel, PreCancelledGroupRunsZeroSweeps) {
  Xoshiro256 model_rng(18, 0);
  const qubo::QuboModel model = random_model(24, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::vector<double> betas =
      make_schedule(0.2, 4.0, 32, Interpolation::kGeometric);

  CancelSource source;
  source.cancel();
  std::vector<BatchedGroup> groups(2);
  groups[0].seed = 1;
  groups[0].num_replicas = 4;
  groups[0].cancel = source.token();
  groups[1].seed = 2;
  groups[1].num_replicas = 4;
  BatchedSweepKernel kernel(adjacency, groups);
  kernel.run(betas);

  const BatchedGroupStats cancelled = kernel.group_stats(0);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.sweeps_executed, 0u);
  EXPECT_EQ(cancelled.total_flips, 0u);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    EXPECT_FALSE(kernel.lane_annealed(lane)) << "lane " << lane;
  }
  const BatchedGroupStats live = kernel.group_stats(1);
  EXPECT_FALSE(live.cancelled);
  EXPECT_GT(live.sweeps_executed, 0u);
  for (std::size_t lane = 4; lane < 8; ++lane) {
    EXPECT_TRUE(kernel.lane_annealed(lane)) << "lane " << lane;
  }
}

// The per-lane zero-flip exit must surface in the group aggregates the
// same way the scalar kernel's ReadStats do.
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
  std::vector<BatchedGroup> groups(1);
  groups[0].seed = params.seed;
  groups[0].num_replicas = params.num_reads;
  const BetaRange range{*params.beta_hot, *params.beta_cold};
  const std::vector<double> betas = make_schedule(
      range.hot, range.cold, params.num_sweeps, Interpolation::kGeometric);
  BatchedSweepKernel kernel(adjacency, groups);
  kernel.run(betas);

  const BatchedGroupStats stats = kernel.group_stats(0);
  EXPECT_EQ(stats.replicas, 8u);
  EXPECT_FALSE(stats.cancelled);
  EXPECT_GT(stats.replicas_early_exited, 0u);
  EXPECT_LT(stats.sweeps_executed, params.num_sweeps);
  // And the scalar oracle agrees wholesale.
  expect_same_sample_sets(
      sample_with_mode(adjacency, params, SweepMode::kScalar),
      sample_with_mode(adjacency, params, SweepMode::kBatched));
}

}  // namespace
}  // namespace qsmt::anneal
