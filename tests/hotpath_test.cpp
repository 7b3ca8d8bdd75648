// Tests for the annealing hot-path overhaul: the screened exp-free
// Metropolis accept, the bulk-uniform sweep kernel, determinism under
// concurrent callers, and the adjacency sampling overloads.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/metropolis.hpp"
#include "anneal/reverse.hpp"
#include "anneal/schedule.hpp"
#include "anneal/simulated_annealer.hpp"
#include "concurrent_callers.hpp"
#include "qubo/adjacency.hpp"
#include "qubo/qubo_model.hpp"
#include "strqubo/builders.hpp"
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

bool same_sample_sets(const SampleSet& a, const SampleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].energy != b[k].energy) return false;
    if (a[k].bits != b[k].bits) return false;
    if (a[k].num_occurrences != b[k].num_occurrences) return false;
  }
  return true;
}

// The screened compare must reproduce u < exp(-x) EXACTLY — the bounds only
// ever screen; they never decide a case where they disagree with std::exp.
TEST(MetropolisAccept, MatchesExactExpOnPinnedStream) {
  Xoshiro256 rng(2024, 0);
  for (int k = 0; k < 200000; ++k) {
    // Mix magnitudes: dense around the ambiguity band (x near 0..4) plus
    // heavy tails, and exercise the x <= 0 always-accept branch.
    const double scale = k % 3 == 0 ? 0.5 : (k % 3 == 1 ? 4.0 : 50.0);
    const double x = (rng.uniform() * 2.0 - 0.5) * scale;
    const double u = rng.uniform();
    const bool exact = x <= 0.0 || u < std::exp(-x);
    ASSERT_EQ(detail::metropolis_accept(x, u), exact)
        << "x=" << x << " u=" << u;
  }
}

TEST(MetropolisAccept, EdgeCases) {
  EXPECT_TRUE(detail::metropolis_accept(0.0, 0.999999));   // exp(0) = 1 > u
  EXPECT_TRUE(detail::metropolis_accept(-3.0, 0.999999));  // downhill
  EXPECT_TRUE(detail::metropolis_accept(700.0, 0.0));      // u = 0 < exp(-x)
  EXPECT_FALSE(detail::metropolis_accept(1e6, 1e-300));    // exp underflows
}

// The sweep kernel's accepted-flip decisions must match an oracle kernel
// that consumes the identical uniform stream but decides every move with
// the textbook u < exp(-beta * delta) test.
TEST(SweepKernel, MatchesExpOracleDecisions) {
  Xoshiro256 model_rng(7, 0);
  const qubo::QuboModel model = random_model(24, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::size_t n = adjacency.num_variables();
  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas =
      make_schedule(range.hot, range.cold, 64, Interpolation::kGeometric);

  for (std::uint64_t read = 0; read < 8; ++read) {
    // Kernel under test.
    AnnealContext ctx;
    ctx.prepare(n);
    Xoshiro256 rng(99, read);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;
    detail::anneal_read(adjacency, betas, rng, ctx);

    // Oracle: same uniform stream, same early-exit rule, per-move exp.
    Xoshiro256 oracle_rng(99, read);
    std::vector<std::uint8_t> bits(n);
    for (auto& b : bits) b = oracle_rng.coin() ? 1 : 0;
    std::vector<double> field(n);
    std::vector<double> uniforms(n);
    for (std::size_t i = 0; i < n; ++i)
      field[i] = adjacency.local_field(bits, i);
    for (std::size_t s = 0; s < betas.size(); ++s) {
      for (std::size_t i = 0; i < n; ++i) uniforms[i] = oracle_rng.uniform();
      std::size_t flips = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = bits[i] ? -field[i] : field[i];
        if (delta <= 0.0 || uniforms[i] < std::exp(-betas[s] * delta)) {
          const double step = bits[i] ? -1.0 : 1.0;
          bits[i] ^= 1u;
          ++flips;
          for (const auto& nb : adjacency.neighbors(i)) {
            field[nb.index] += nb.coefficient * step;
          }
        }
      }
      if (flips == 0) break;
    }

    ASSERT_EQ(std::vector<std::uint8_t>(ctx.bits.begin(), ctx.bits.end()),
              bits)
        << "trajectory diverged on read " << read;
  }
}

// Oracle identical to the kernel's acceptance rule but with no early exit
// anywhere: every sweep of `betas` executes. Consumes one uniform per
// variable per sweep, like the kernel.
std::vector<std::uint8_t> full_length_oracle(
    const qubo::QuboAdjacency& adjacency, std::span<const double> betas,
    Xoshiro256& rng, std::vector<std::uint8_t> bits) {
  const std::size_t n = adjacency.num_variables();
  std::vector<double> field(n);
  std::vector<double> uniforms(n);
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);
  for (const double beta : betas) {
    for (std::size_t i = 0; i < n; ++i) uniforms[i] = rng.uniform();
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      if (delta <= 0.0 || uniforms[i] < std::exp(-beta * delta)) {
        const double step = bits[i] ? -1.0 : 1.0;
        bits[i] ^= 1u;
        for (const auto& nb : adjacency.neighbors(i)) {
          field[nb.index] += nb.coefficient * step;
        }
      }
    }
  }
  return bits;
}

// Regression for the reverse-annealing degeneration: a read seeded with a
// polished local minimum under a V-shaped (cold → hot → cold) schedule used
// to hit a zero-flip sweep on the cold opening leg and return the initial
// state without ever reheating. The early exit must stay disarmed until the
// schedule's non-decreasing suffix, so the kernel's trajectory must match a
// no-early-exit oracle on the same uniform stream.
TEST(SweepKernel, ReverseScheduleRunsThroughTheReheatDip) {
  Xoshiro256 model_rng(11, 0);
  const qubo::QuboModel model = random_model(24, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::size_t n = adjacency.num_variables();

  // Deeply cold endpoints: the opening sweeps accept essentially nothing,
  // which is exactly the zero-flip condition that used to abort the read.
  const std::vector<double> betas = make_reverse_schedule(50.0, 0.05, 64);

  std::size_t total_flips = 0;
  for (std::uint64_t read = 0; read < 8; ++read) {
    // A polished local-minimum start, as ReverseAnnealer provides.
    std::vector<std::uint8_t> start(n);
    Xoshiro256 seed_rng(123, read);
    for (auto& b : start) b = seed_rng.coin() ? 1 : 0;
    detail::greedy_descend(adjacency, start);

    AnnealContext ctx;
    ctx.prepare(n);
    Xoshiro256 rng(17, read);
    std::copy(start.begin(), start.end(), ctx.bits.begin());
    total_flips += detail::anneal_read(adjacency, betas, rng, ctx);

    Xoshiro256 oracle_rng(17, read);
    ASSERT_EQ(std::vector<std::uint8_t>(ctx.bits.begin(), ctx.bits.end()),
              full_length_oracle(adjacency, betas, oracle_rng, start))
        << "trajectory diverged on read " << read;
  }
  // The reheat dip must actually have moved the state: a kernel that
  // returned the initial local minima untouched would report zero flips.
  EXPECT_GT(total_flips, 0u);
}

// With the early exit disarmed, every sweep of a monotone schedule must
// execute even after the state freezes — distribution-sampling callers get
// full-length reads.
TEST(SweepKernel, EarlyExitDisabledRunsFullSchedule) {
  Xoshiro256 model_rng(7, 0);
  const qubo::QuboModel model = random_model(24, 0.3, model_rng);
  const qubo::QuboAdjacency adjacency(model);
  const std::size_t n = adjacency.num_variables();
  const BetaRange range = default_beta_range(adjacency);
  const std::vector<double> betas =
      make_schedule(range.hot, range.cold * 100.0, 96,
                    Interpolation::kGeometric);

  for (std::uint64_t read = 0; read < 4; ++read) {
    AnnealContext ctx;
    ctx.prepare(n);
    Xoshiro256 rng(41, read);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;
    std::vector<std::uint8_t> start(ctx.bits.begin(), ctx.bits.end());
    detail::anneal_read(adjacency, betas, rng, ctx,
                        /*allow_early_exit=*/false);

    // Replay the identical stream: the seeding coin flips line up because
    // the oracle start state is regenerated the same way.
    Xoshiro256 oracle_rng(41, read);
    std::vector<std::uint8_t> oracle_start(n);
    for (auto& b : oracle_start) b = oracle_rng.coin() ? 1 : 0;
    ASSERT_EQ(oracle_start, start);
    ASSERT_EQ(std::vector<std::uint8_t>(ctx.bits.begin(), ctx.bits.end()),
              full_length_oracle(adjacency, betas, oracle_rng, oracle_start))
        << "trajectory diverged on read " << read;
  }
}

// Fixed-seed sampling must be bit-identical no matter how many threads
// sample at once: reads own counter-seeded streams, and each thread's
// AnnealContext carries no state from one call into the next.
TEST(SimulatedAnnealerDeterminism, IdenticalAcrossThreadCounts) {
  Xoshiro256 model_rng(13, 0);
  const qubo::QuboModel model = random_model(40, 0.2, model_rng);

  SimulatedAnnealerParams p;
  p.num_reads = 16;
  p.num_sweeps = 96;
  p.seed = 5;
  const SimulatedAnnealer annealer(p);

  const SampleSet lone = annealer.sample(model);
  for (const SampleSet& set :
       run_concurrently([&] { return annealer.sample(model); })) {
    EXPECT_TRUE(same_sample_sets(lone, set));
  }
}

// The prebuilt-adjacency overload must produce exactly the samples the
// model overload does — it is the same computation minus the CSR rebuild.
TEST(SimulatedAnnealerDeterminism, AdjacencyOverloadMatchesModelOverload) {
  const qubo::QuboModel model = strqubo::build_palindrome(6);
  const qubo::QuboAdjacency adjacency(model);

  SimulatedAnnealerParams p;
  p.num_reads = 12;
  p.num_sweeps = 64;
  p.seed = 21;
  const SimulatedAnnealer annealer(p);

  EXPECT_TRUE(
      same_sample_sets(annealer.sample(model), annealer.sample(adjacency)));
}

// Thread-local context reuse must not leak state between models of
// different sizes: sampling A, then a larger B, then A again must
// reproduce the first result exactly.
TEST(SimulatedAnnealerDeterminism, ContextReuseAcrossModelsIsClean) {
  Xoshiro256 rng_a(3, 0);
  Xoshiro256 rng_b(4, 0);
  const qubo::QuboModel small = random_model(10, 0.4, rng_a);
  const qubo::QuboModel large = random_model(64, 0.1, rng_b);

  SimulatedAnnealerParams p;
  p.num_reads = 8;
  p.num_sweeps = 64;
  p.seed = 9;
  const SimulatedAnnealer annealer(p);

  const SampleSet first = annealer.sample(small);
  annealer.sample(large);
  const SampleSet again = annealer.sample(small);
  EXPECT_TRUE(same_sample_sets(first, again));
}

// The quench schedule's head must match the plain schedule (the
// exploration segment is untouched) and its tail must keep cooling
// monotonically past beta_cold.
TEST(QuenchSchedule, HeadMatchesPlainTailCoolsFurther) {
  const std::size_t sweeps = 100;
  const auto quench = make_quench_schedule(0.2, 4.0, sweeps,
                                           Interpolation::kGeometric);
  ASSERT_EQ(quench.size(), sweeps);
  const std::size_t head = 40;  // default split = 0.4
  const auto plain =
      make_schedule(0.2, 4.0, head, Interpolation::kGeometric);
  for (std::size_t s = 0; s < head; ++s) {
    EXPECT_DOUBLE_EQ(quench[s], plain[s]);
  }
  EXPECT_DOUBLE_EQ(quench[head], 4.0);
  for (std::size_t s = head + 1; s < sweeps; ++s) {
    EXPECT_GT(quench[s], quench[s - 1]);
  }
  EXPECT_DOUBLE_EQ(quench.back(), 4.0 * 32.0);

  // Degenerate sizes fall back to the plain schedule.
  EXPECT_EQ(
      make_quench_schedule(0.2, 4.0, 1, Interpolation::kGeometric).size(),
      std::size_t{1});
  EXPECT_EQ(
      make_quench_schedule(0.2, 4.0, 2, Interpolation::kGeometric),
      make_schedule(0.2, 4.0, 2, Interpolation::kGeometric));
}

}  // namespace
}  // namespace qsmt::anneal
