// Tests for the coefficient-noise model and the reverse annealer.
#include <gtest/gtest.h>

#include <cmath>

#include "anneal/exact.hpp"
#include "anneal/noise.hpp"
#include "anneal/reverse.hpp"
#include "anneal/simulated_annealer.hpp"
#include "strqubo/builders.hpp"
#include "util/rng.hpp"

namespace qsmt::anneal {
namespace {

qubo::QuboModel random_model(std::size_t n, Xoshiro256& rng) {
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i)
    model.add_linear(i, rng.uniform() * 2.0 - 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.4)
        model.add_quadratic(i, j, rng.uniform() * 2.0 - 1.0);
    }
  }
  return model;
}

// --- perturb_coefficients ----------------------------------------------------

TEST(PerturbCoefficients, ZeroSigmaIsIdentity) {
  Xoshiro256 rng(1);
  const auto model = random_model(8, rng);
  EXPECT_TRUE(perturb_coefficients(model, 0.0, 42) == model);
}

TEST(PerturbCoefficients, DeterministicInSeed) {
  Xoshiro256 rng(2);
  const auto model = random_model(8, rng);
  const auto a = perturb_coefficients(model, 0.05, 7);
  const auto b = perturb_coefficients(model, 0.05, 7);
  EXPECT_TRUE(a == b);
  const auto c = perturb_coefficients(model, 0.05, 8);
  EXPECT_FALSE(a == c);
}

TEST(PerturbCoefficients, PreservesSparsityPattern) {
  qubo::QuboModel model(4);
  model.add_linear(0, 1.0);
  model.add_quadratic(1, 2, -1.0);
  const auto noisy = perturb_coefficients(model, 0.1, 3);
  // Zero coefficients stay exactly zero (hardware has no coupler there).
  EXPECT_DOUBLE_EQ(noisy.linear(3), 0.0);
  EXPECT_DOUBLE_EQ(noisy.quadratic(0, 3), 0.0);
  EXPECT_NE(noisy.linear(0), 1.0);
  EXPECT_NE(noisy.quadratic(1, 2), -1.0);
}

TEST(PerturbCoefficients, NoiseScaleTracksSigma) {
  Xoshiro256 rng(4);
  const auto model = random_model(20, rng);
  const double max_coeff = model.max_abs_coefficient();
  for (double sigma : {0.01, 0.1}) {
    const auto noisy = perturb_coefficients(model, sigma, 9);
    double sum_sq = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      const double v = model.linear_terms()[i];
      if (v == 0.0) continue;
      const double d = noisy.linear(i) - v;
      sum_sq += d * d;
      ++count;
    }
    const double rms = std::sqrt(sum_sq / static_cast<double>(count));
    EXPECT_NEAR(rms, sigma * max_coeff, sigma * max_coeff)  // Within 2x.
        << "sigma " << sigma;
  }
}

TEST(PerturbCoefficients, NegativeSigmaThrows) {
  qubo::QuboModel model(2);
  EXPECT_THROW(perturb_coefficients(model, -0.1, 0), std::invalid_argument);
}

// --- NoisySampler --------------------------------------------------------------

TEST(NoisySampler, ReportsEnergiesAgainstTrueModel) {
  Xoshiro256 rng(5);
  const auto model = random_model(10, rng);
  SimulatedAnnealerParams p;
  p.num_reads = 16;
  p.num_sweeps = 64;
  p.seed = 1;
  const SimulatedAnnealer inner(p);
  NoisySamplerParams noise;
  noise.sigma = 0.2;
  const NoisySampler sampler(inner, noise);
  const SampleSet samples = sampler.sample(model);
  for (const Sample& s : samples) {
    EXPECT_NEAR(model.energy(s.bits), s.energy, 1e-9);
  }
}

TEST(NoisySampler, ZeroNoiseMatchesInner) {
  Xoshiro256 rng(6);
  const auto model = random_model(10, rng);
  SimulatedAnnealerParams p;
  p.seed = 3;
  const SimulatedAnnealer inner(p);
  NoisySamplerParams noise;
  noise.sigma = 0.0;
  const NoisySampler sampler(inner, noise);
  EXPECT_DOUBLE_EQ(sampler.sample(model).lowest_energy(),
                   inner.sample(model).lowest_energy());
}

TEST(NoisySampler, NameMentionsInner) {
  const SimulatedAnnealer inner{SimulatedAnnealerParams{}};
  const NoisySampler sampler(inner, {});
  EXPECT_EQ(sampler.name(), "noisy+simulated-annealing");
}

TEST(NoisySampler, LargeNoiseDegradesQuality) {
  // With sigma far beyond the coefficient scale the inner sampler optimises
  // an unrelated model; best-found true energy should (usually) be worse.
  const auto model = strqubo::build_equality("hello world");
  SimulatedAnnealerParams p;
  p.num_reads = 8;
  p.num_sweeps = 64;
  p.seed = 4;
  p.polish_with_greedy = false;
  const SimulatedAnnealer inner(p);
  NoisySamplerParams noise;
  noise.sigma = 10.0;
  const NoisySampler noisy(inner, noise);
  EXPECT_GT(noisy.sample(model).lowest_energy(),
            inner.sample(model).lowest_energy());
}

// --- ReverseAnnealer -------------------------------------------------------------

TEST(ReverseSchedule, VShape) {
  const auto schedule = make_reverse_schedule(10.0, 2.0, 8);
  ASSERT_EQ(schedule.size(), 8u);
  EXPECT_DOUBLE_EQ(schedule.front(), 10.0);
  EXPECT_DOUBLE_EQ(schedule.back(), 10.0);
  const double dip = *std::min_element(schedule.begin(), schedule.end());
  EXPECT_DOUBLE_EQ(dip, 2.0);
  // Monotone down then monotone up.
  const auto dip_at = static_cast<std::size_t>(
      std::min_element(schedule.begin(), schedule.end()) - schedule.begin());
  for (std::size_t i = 1; i <= dip_at; ++i)
    EXPECT_LE(schedule[i], schedule[i - 1] + 1e-12);
  for (std::size_t i = dip_at + 1; i < schedule.size(); ++i)
    EXPECT_GE(schedule[i], schedule[i - 1] - 1e-12);
}

TEST(ReverseSchedule, Validation) {
  EXPECT_THROW(make_reverse_schedule(1.0, 2.0, 8), std::invalid_argument);
  EXPECT_THROW(make_reverse_schedule(1.0, 0.5, 1), std::invalid_argument);
}

TEST(ReverseAnnealer, ValidatesParams) {
  ReverseAnnealerParams p;
  p.reheat_fraction = 0.0;
  EXPECT_THROW(ReverseAnnealer({0}, p), std::invalid_argument);
  p = {};
  p.num_reads = 0;
  EXPECT_THROW(ReverseAnnealer({0}, p), std::invalid_argument);
}

TEST(ReverseAnnealer, RejectsMismatchedInitialState) {
  qubo::QuboModel model(4);
  const ReverseAnnealer sampler(std::vector<std::uint8_t>{0, 1}, {});
  EXPECT_THROW(sampler.sample(model), std::invalid_argument);
}

TEST(ReverseAnnealer, RefinesNearMissToGround) {
  // Start one flipped bit away from the ground state of an equality model;
  // a mild reheat must recover it.
  const auto model = strqubo::build_equality("refine");
  std::vector<std::uint8_t> start(model.num_variables());
  for (std::size_t i = 0; i < start.size(); ++i) {
    start[i] = model.linear_terms()[i] < 0 ? 1 : 0;
  }
  start[3] ^= 1;  // Corrupt one bit.
  ReverseAnnealerParams p;
  p.num_reads = 8;
  p.num_sweeps = 64;
  p.seed = 11;
  const ReverseAnnealer sampler(start, p);
  const SampleSet samples = sampler.sample(model);
  // Diagonal model ground = sum of negative terms.
  double expected = 0.0;
  for (double v : model.linear_terms()) expected += std::min(0.0, v);
  EXPECT_DOUBLE_EQ(samples.lowest_energy(), expected);
}

TEST(ReverseAnnealer, MildReheatStaysNearStart) {
  // On a flat model (no coefficients), a mild reverse anneal with even
  // sweep count returns states correlated with the start, not uniform.
  qubo::QuboModel model(16);
  model.add_linear(0, 1e-9);  // Avoid the all-flat degenerate beta range.
  std::vector<std::uint8_t> start(16, 1);
  ReverseAnnealerParams p;
  p.num_reads = 4;
  p.num_sweeps = 16;
  p.reheat_fraction = 1.0;  // No reheat at all: stays cold.
  p.seed = 2;
  p.polish_with_greedy = false;
  const ReverseAnnealer sampler(start, p);
  const SampleSet samples = sampler.sample(model);
  // With zero fields every flip has delta 0 and is always accepted; after
  // an even number of sweeps the state returns to the start.
  for (const Sample& s : samples) {
    std::size_t agree = 0;
    for (std::size_t i = 1; i < 16; ++i) agree += s.bits[i] == 1;
    EXPECT_EQ(agree, 15u);
  }
}

TEST(ReverseAnnealer, DeterministicInSeed) {
  Xoshiro256 rng(7);
  const auto model = random_model(10, rng);
  std::vector<std::uint8_t> start(10, 0);
  ReverseAnnealerParams p;
  p.seed = 5;
  const ReverseAnnealer sampler(start, p);
  const auto a = sampler.sample(model);
  const auto b = sampler.sample(model);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].bits, b[i].bits);
}

TEST(ReverseAnnealer, SampleUntilRunsTheReadsSampleKeeps) {
  // Visiting every read and aggregating reproduces sample() exactly: both
  // run the same read loop.
  Xoshiro256 rng(9);
  const auto model = random_model(12, rng);
  const qubo::QuboAdjacency adjacency(model);
  std::vector<std::uint8_t> start(12, 0);
  start[2] = start[7] = 1;
  ReverseAnnealerParams p;
  p.num_reads = 6;
  p.num_sweeps = 32;
  p.seed = 13;
  const ReverseAnnealer sampler(start, p);
  SampleSet visited;
  const std::size_t reads = sampler.sample_until(
      adjacency, [&](std::span<const std::uint8_t> bits, double energy) {
        EXPECT_DOUBLE_EQ(energy, adjacency.energy(bits));
        visited.add(std::vector<std::uint8_t>(bits.begin(), bits.end()),
                    energy);
        return false;
      });
  EXPECT_EQ(reads, p.num_reads);
  EXPECT_EQ(visited.size(), p.num_reads);
  visited.aggregate();
  const SampleSet sampled = sampler.sample(adjacency);
  ASSERT_EQ(visited.size(), sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_EQ(visited[i].bits, sampled[i].bits);
    EXPECT_EQ(visited[i].energy, sampled[i].energy);
    EXPECT_EQ(visited[i].num_occurrences, sampled[i].num_occurrences);
  }
}

TEST(ReverseAnnealer, SampleUntilStopsAfterTheAcceptedRead) {
  Xoshiro256 rng(10);
  const auto model = random_model(10, rng);
  const qubo::QuboAdjacency adjacency(model);
  ReverseAnnealerParams p;
  p.num_reads = 8;
  p.seed = 3;
  const ReverseAnnealer sampler(std::vector<std::uint8_t>(10, 1), p);
  std::size_t visits = 0;
  EXPECT_EQ(sampler.sample_until(adjacency,
                                 [&](std::span<const std::uint8_t>, double) {
                                   return ++visits == 3;
                                 }),
            3u);
  EXPECT_EQ(visits, 3u);
}

TEST(ReverseAnnealer, NameIsStable) {
  EXPECT_EQ(ReverseAnnealer({}, {}).name(), "reverse-annealing");
}

}  // namespace
}  // namespace qsmt::anneal
