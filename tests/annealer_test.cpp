#include <gtest/gtest.h>

#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "concurrent_callers.hpp"
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

SimulatedAnnealerParams fast_params(std::uint64_t seed) {
  SimulatedAnnealerParams p;
  p.num_reads = 32;
  p.num_sweeps = 128;
  p.seed = seed;
  return p;
}

TEST(SimulatedAnnealer, RejectsInvalidParams) {
  SimulatedAnnealerParams p;
  p.num_reads = 0;
  EXPECT_THROW(SimulatedAnnealer{p}, std::invalid_argument);
  p.num_reads = 1;
  p.num_sweeps = 0;
  EXPECT_THROW(SimulatedAnnealer{p}, std::invalid_argument);
}

TEST(SimulatedAnnealer, SolvesDiagonalModelExactly) {
  // Diagonal models (the paper's equality encoding) have independent bits;
  // every read should land on the unique ground state.
  qubo::QuboModel model(20);
  for (std::size_t i = 0; i < 20; ++i) {
    model.add_linear(i, i % 2 == 0 ? -1.0 : 1.0);
  }
  const SimulatedAnnealer annealer(fast_params(1));
  const SampleSet samples = annealer.sample(model);
  const Sample& best = samples.best();
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(best.bits[i], i % 2 == 0 ? 1 : 0);
  }
  EXPECT_DOUBLE_EQ(best.energy, -10.0);
  EXPECT_DOUBLE_EQ(samples.success_fraction(-10.0), 1.0);
}

class AnnealerVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnnealerVsExact, FindsGroundStateOfRandomModels) {
  Xoshiro256 rng(GetParam());
  const auto model = random_model(14, 0.4, rng);
  const ExactSolver exact;
  const double ground = exact.ground_energy(model);

  const SimulatedAnnealer annealer(fast_params(GetParam() * 7 + 1));
  const SampleSet samples = annealer.sample(model);
  EXPECT_NEAR(samples.lowest_energy(), ground, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealerVsExact,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(SimulatedAnnealer, DeterministicForFixedSeed) {
  Xoshiro256 rng(77);
  const auto model = random_model(16, 0.3, rng);
  const SimulatedAnnealer annealer(fast_params(123));
  const SampleSet a = annealer.sample(model);
  const SampleSet b = annealer.sample(model);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bits, b[i].bits);
    EXPECT_DOUBLE_EQ(a[i].energy, b[i].energy);
    EXPECT_EQ(a[i].num_occurrences, b[i].num_occurrences);
  }
}

// Four callers sampling at once, each after a warm-up on a larger model,
// must reproduce a lone call exactly: no state leaks between calls through
// the thread-local AnnealContext, whatever the number of calling threads.
TEST(SimulatedAnnealer, ResultIndependentOfThreadCount) {
  Xoshiro256 rng(88);
  const auto model = random_model(12, 0.5, rng);
  const auto warmup = random_model(20, 0.3, rng);
  const SimulatedAnnealer annealer(fast_params(9));

  const SampleSet lone = annealer.sample(model);
  const auto concurrent = run_concurrently([&] {
    annealer.sample(warmup);
    return annealer.sample(model);
  });

  for (const SampleSet& set : concurrent) {
    ASSERT_EQ(lone.size(), set.size());
    for (std::size_t i = 0; i < lone.size(); ++i) {
      EXPECT_EQ(lone[i].bits, set[i].bits);
      EXPECT_EQ(lone[i].energy, set[i].energy);
      EXPECT_EQ(lone[i].num_occurrences, set[i].num_occurrences);
    }
  }
}

TEST(SimulatedAnnealer, ReportsRequestedNumberOfReads) {
  qubo::QuboModel model(4);
  model.add_linear(0, -1.0);
  SimulatedAnnealerParams p = fast_params(3);
  p.num_reads = 17;
  const SimulatedAnnealer annealer(p);
  EXPECT_EQ(annealer.sample(model).total_reads(), 17u);
}

TEST(SimulatedAnnealer, GreedyPolishNeverWorsensBest) {
  Xoshiro256 rng(5);
  const auto model = random_model(12, 0.5, rng);

  SimulatedAnnealerParams with = fast_params(11);
  SimulatedAnnealerParams without = fast_params(11);
  without.polish_with_greedy = false;

  const double best_with = SimulatedAnnealer(with).sample(model).lowest_energy();
  const double best_without =
      SimulatedAnnealer(without).sample(model).lowest_energy();
  EXPECT_LE(best_with, best_without + 1e-12);
}

TEST(SimulatedAnnealer, ExplicitBetaRangeIsHonoured) {
  // With a frozen (very cold) schedule and no greedy polish the sampler
  // cannot escape its random initialisation — a smoke check that the beta
  // overrides are actually wired through.
  qubo::QuboModel model(8);
  for (std::size_t i = 0; i < 8; ++i) model.add_linear(i, -1.0);

  SimulatedAnnealerParams hot = fast_params(4);
  hot.beta_hot = 1e-6;
  hot.beta_cold = 1e-6;
  hot.num_sweeps = 4;
  hot.polish_with_greedy = false;
  const SampleSet samples = SimulatedAnnealer(hot).sample(model);
  // At essentially infinite temperature acceptance is ~50/50, so the chance
  // that all 32 reads all land on all-ones is astronomically small.
  EXPECT_LT(samples.success_fraction(-8.0), 1.0);
}

TEST(SimulatedAnnealer, EmptyModelYieldsEmptyBits) {
  qubo::QuboModel model;
  const SimulatedAnnealer annealer(fast_params(0));
  const SampleSet samples = annealer.sample(model);
  ASSERT_FALSE(samples.empty());
  EXPECT_TRUE(samples.best().bits.empty());
  EXPECT_DOUBLE_EQ(samples.best().energy, 0.0);
}

TEST(SimulatedAnnealer, NameIsStable) {
  EXPECT_EQ(SimulatedAnnealer(fast_params(0)).name(), "simulated-annealing");
}

}  // namespace
}  // namespace qsmt::anneal
