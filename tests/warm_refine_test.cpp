// Tests for the warm refine stage (strqubo::warm_refine).
//
// The stage runs the reverse-anneal reads of strqubo::kWarmRefine one at a
// time and stops at the first read that verifies. Its reference is the
// full pass: ReverseAnnealer::sample over all reads (same budget, same
// seed), then decode_and_verify over the whole sample set. Over seeded
// (conjunction, witness, seed) cases — the families the exact presolve
// declines (tests/presolve_declined.hpp) and conjunctions of the
// soft-biased builders — the stage must agree with that reference on the
// verdict, return only verified witnesses, return the reference's witness
// whenever the verified reads share one energy, and run exactly the reads
// up to its first verified one.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anneal/reverse.hpp"
#include "presolve_declined.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace qsmt::strqubo {
namespace {

struct WarmCase {
  std::vector<Constraint> conjuncts;
  BuildOptions options;
  std::string witness;
  std::uint64_t seed = 0;
};

std::string describe_case(const WarmCase& c) {
  std::string out;
  for (const Constraint& constraint : c.conjuncts) {
    out += describe(constraint) + "; ";
  }
  std::string shown;
  for (const char ch : c.witness) shown += ch == '\0' ? '.' : ch;
  return out + "witness '" + shown + "', seed " + std::to_string(c.seed);
}

anneal::ReverseAnnealer warm_annealer(const PreparedConstraint& prepared,
                                      const std::string& witness,
                                      std::uint64_t seed,
                                      std::size_t num_reads) {
  std::vector<std::uint8_t> initial = strenc::encode_string(witness);
  initial.resize(prepared.model.num_variables(), 0);
  anneal::ReverseAnnealerParams params = kWarmRefine;
  params.seed = seed;
  params.num_reads = num_reads;
  return anneal::ReverseAnnealer(std::move(initial), params);
}

bool verifies(const PreparedConstraint& prepared,
              const std::vector<std::uint8_t>& bits) {
  return verify_conjunction(
      prepared.conjuncts,
      strenc::decode_string(std::span(bits).subspan(0, prepared.string_bits)),
      {});
}

bool any_verifies(const PreparedConstraint& prepared,
                  const anneal::SampleSet& samples) {
  for (const anneal::Sample& sample : samples) {
    if (verifies(prepared, sample.bits)) return true;
  }
  return false;
}

/// The full pass the stage replaces, and what it implies for the stage.
struct Reference {
  SolveResult verdict;
  /// Index of the first read whose decoding verifies (num_reads if none):
  /// reads 0..r run under one seed, so sample() with r + 1 reads holds
  /// exactly those reads.
  std::size_t first_verified = kWarmRefine.num_reads;
  /// Every verified sample of the full pass has the same energy.
  bool verified_share_energy = true;
};

Reference reference(const PreparedConstraint& prepared,
                    const std::string& witness, std::uint64_t seed) {
  Reference ref;
  const anneal::SampleSet all =
      warm_annealer(prepared, witness, seed, kWarmRefine.num_reads)
          .sample(prepared.adjacency);
  ref.verdict = decode_and_verify(prepared.conjuncts, all);
  std::optional<double> verified_energy;
  for (const anneal::Sample& sample : all) {
    if (!verifies(prepared, sample.bits)) continue;
    if (verified_energy && *verified_energy != sample.energy) {
      ref.verified_share_energy = false;
    }
    verified_energy = sample.energy;
  }
  for (std::size_t reads = 1; reads <= kWarmRefine.num_reads; ++reads) {
    if (any_verifies(prepared, warm_annealer(prepared, witness, seed, reads)
                                   .sample(prepared.adjacency))) {
      ref.first_verified = reads - 1;
      break;
    }
  }
  return ref;
}

std::uint64_t reads_counted() {
  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const telemetry::CounterStat* reads = snapshot.counter("anneal.reads");
  return reads == nullptr ? 0 : reads->value;
}

/// A lowercase string of `length` over `alphabet`.
std::string random_text(Xoshiro256& rng, std::size_t length,
                        const std::string& alphabet) {
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += alphabet[rng.below(alphabet.size())];
  }
  return out;
}

std::vector<WarmCase> make_cases() {
  Xoshiro256 rng(2028);
  BuildOptions one_hot;
  one_hot.regex_encoding = RegexClassEncoding::kOneHotSelectors;
  std::vector<WarmCase> cases;
  const auto add = [&](std::vector<Constraint> conjuncts, BuildOptions options,
                       std::string witness) {
    for (int s = 0; s < 3; ++s) {
      cases.push_back({conjuncts, options, witness, rng()});
    }
  };
  for (int round = 0; round < 4; ++round) {
    // Families the presolve declines.
    const std::size_t n = 3 + round;
    add({test::declined(NotContains{n, "zz"})}, {},
        random_text(rng, n, "az"));
    const std::size_t content = rng.below(n + 1);
    add({test::declined(BoundedLength{n, 1, n - 1})}, {},
        random_text(rng, content, "abc") + std::string(n - content, '\0'));
    add({test::declined(RegexMatch{"[abcdef]b", 2}, one_hot)}, one_hot,
        random_text(rng, 2, "abcdefgh"));
    add({test::declined(RegexMatch{"[abcdefg]+", n}, one_hot)}, one_hot,
        random_text(rng, n, "aeghz"));
    // Soft-biased conjunctions: the previous check's answer with one
    // conjunct moved, the way a session's warm start sees it.
    const std::size_t length = 4 + round % 2;
    const std::size_t at = rng.below(length - 1);
    const char ch = static_cast<char>('c' + rng.below(3));
    std::string previous = random_text(rng, length, "cdeqr");
    previous.replace(at, 2, "ab");
    const std::size_t pin = (at + 2) % length;
    add({CharAt{length, pin, ch}, IndexOf{length, "ab", at},
         test::declined(NotContains{length, "zz"})},
        {}, previous);
    add({CharAt{length, pin, ch}, IndexOf{length, "ab", at}}, {}, previous);
    add({CharAt{length, pin, ch},
         test::declined(NotContains{length, "ab"})},
        {}, previous);
  }
  return cases;
}

class WarmRefine : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_mode(telemetry::Mode::kSummary);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::set_mode(telemetry::Mode::kOff);
  }
};

TEST_F(WarmRefine, AgreesWithTheFullReverseAnneal) {
  std::size_t satisfied = 0;
  std::size_t unsatisfied = 0;
  std::size_t stopped_at_read0 = 0;
  std::size_t same_witness_required = 0;
  std::uint64_t total_reads = 0;
  const std::vector<WarmCase> cases = make_cases();
  for (const WarmCase& c : cases) {
    SCOPED_TRACE(describe_case(c));
    const PreparedConstraint prepared = prepare(c.conjuncts, c.options);
    const Reference ref = reference(prepared, c.witness, c.seed);

    const std::uint64_t before = reads_counted();
    const std::optional<SolveResult> got =
        warm_refine(prepared, c.witness, c.seed);
    const std::uint64_t reads = reads_counted() - before;
    total_reads += reads;
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->satisfied, ref.verdict.satisfied);
    ASSERT_TRUE(got->text.has_value());
    EXPECT_TRUE(got->samples.empty());

    if (got->satisfied) {
      ++satisfied;
      EXPECT_TRUE(verify_conjunction(c.conjuncts, *got->text, {}));
      EXPECT_EQ(reads, ref.first_verified + 1);
      if (ref.first_verified == 0) ++stopped_at_read0;
      if (ref.verified_share_energy) {
        ++same_witness_required;
        EXPECT_EQ(*got->text, *ref.verdict.text);
        EXPECT_EQ(got->energy, ref.verdict.energy);
      }
    } else {
      ++unsatisfied;
      EXPECT_EQ(reads, kWarmRefine.num_reads);
    }
  }
  // The cases exercise every branch above. From a fitting witness the
  // reads of one pass land on the same minimum almost always, so a pass
  // either verifies at read 0 or not at all; FirstVerifiedReadEndsThePass
  // covers a stop after read 0.
  EXPECT_GT(satisfied, 0u);
  EXPECT_GT(stopped_at_read0, 0u);
  EXPECT_GT(unsatisfied, 0u);
  EXPECT_GT(same_witness_required, 0u);
  // The per-pass histogram sees the same reads.
  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const telemetry::HistogramStat* per_pass =
      snapshot.histogram("strqubo.warm_refine.reads");
  ASSERT_NE(per_pass, nullptr);
  EXPECT_EQ(per_pass->count, cases.size());
  EXPECT_EQ(per_pass->sum, static_cast<double>(total_reads));
}

TEST_F(WarmRefine, VerifiedWitnessStopsAfterOneRead) {
  // A witness that already satisfies the conjunction is a ground state
  // the cold reverse-anneal legs return to: read 0 verifies and ends the
  // pass.
  const PreparedConstraint prepared =
      prepare(std::vector<Constraint>{test::declined(NotContains{4, "zz"}),
                                      CharAt{4, 1, 'b'}});
  ASSERT_TRUE(verify_conjunction(prepared.conjuncts, "abcd", {}));
  const Reference ref = reference(prepared, "abcd", 11);
  ASSERT_EQ(ref.first_verified, 0u);
  const std::uint64_t before = reads_counted();
  const std::optional<SolveResult> got = warm_refine(prepared, "abcd", 11);
  EXPECT_EQ(reads_counted() - before, 1u);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->satisfied);
  EXPECT_EQ(got->text, ref.verdict.text);
}

TEST_F(WarmRefine, FirstVerifiedReadEndsThePass) {
  // The filter turns down the first three decodings that pass every
  // conjunct, so reads 0-2 fail verification and read 3 ends the pass.
  const PreparedConstraint prepared =
      prepare(std::vector<Constraint>{test::declined(NotContains{4, "zz"}),
                                      CharAt{4, 1, 'b'}});
  std::size_t offered = 0;
  const std::uint64_t before = reads_counted();
  const std::optional<SolveResult> got =
      warm_refine(prepared, "abcd", 11,
                  [&](const std::string&) { return ++offered > 3; });
  EXPECT_EQ(reads_counted() - before, 4u);
  EXPECT_EQ(offered, 4u);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->satisfied);
  EXPECT_TRUE(verify_conjunction(prepared.conjuncts, *got->text, {}));
}

TEST_F(WarmRefine, FilterRejectingEveryWitnessRunsAllReads) {
  const PreparedConstraint prepared =
      prepare(std::vector<Constraint>{test::declined(NotContains{4, "zz"})});
  const std::uint64_t before = reads_counted();
  const std::optional<SolveResult> got = warm_refine(
      prepared, "azzb", 5, [](const std::string&) { return false; });
  EXPECT_EQ(reads_counted() - before, kWarmRefine.num_reads);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->satisfied);
}

TEST_F(WarmRefine, WitnessThatDoesNotFitRunsNothing) {
  const PreparedConstraint prepared =
      prepare(std::vector<Constraint>{test::declined(NotContains{4, "zz"})});
  const std::uint64_t before = reads_counted();
  EXPECT_FALSE(warm_refine(prepared, "abc", 1).has_value());  // Too short.
  EXPECT_FALSE(warm_refine(prepared, "ab\x80z", 1).has_value());  // Not ASCII.
  EXPECT_EQ(reads_counted() - before, 0u);
}

}  // namespace
}  // namespace qsmt::strqubo
