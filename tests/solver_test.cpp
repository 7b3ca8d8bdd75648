#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/solver.hpp"
#include "strqubo/verify.hpp"

namespace qsmt::strqubo {

namespace {

// gtest prints each parameter into the test listing, and CMake's test
// discovery builds the ctest name from that printout. gtest prints a
// std::variant itself (its alternative's type name and index, then the
// alternative) and never calls a PrintTo for it, so each case wraps its
// Constraint. PrintTo names the case by describe(), with every run of
// characters other than letters and digits spelled '_', e.g.
// Operations/SolveEachOperation.AnnealerSatisfiesConstraint/reverse_hello.
struct Operation {
  Constraint constraint;
};

void PrintTo(const Operation& operation, std::ostream* os) {
  bool separate = false;
  for (const char ch : describe(operation.constraint)) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      separate = true;
      continue;
    }
    if (separate) *os << '_';
    separate = false;
    *os << ch;
  }
}

anneal::SimulatedAnnealer fast_annealer(std::uint64_t seed) {
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 48;
  p.num_sweeps = 192;
  p.seed = seed;
  return anneal::SimulatedAnnealer(p);
}

TEST(DecodeIncludesPosition, FirstSetBitWins) {
  EXPECT_EQ(decode_includes_position(std::vector<std::uint8_t>{0, 0, 1}), 2u);
  EXPECT_EQ(decode_includes_position(std::vector<std::uint8_t>{1, 0, 1}), 0u);
  EXPECT_EQ(decode_includes_position(std::vector<std::uint8_t>{0, 0, 0}),
            std::nullopt);
  EXPECT_EQ(decode_includes_position(std::vector<std::uint8_t>{}),
            std::nullopt);
}

class SolveEachOperation : public ::testing::TestWithParam<Operation> {};

TEST_P(SolveEachOperation, AnnealerSatisfiesConstraint) {
  const Constraint& constraint = GetParam().constraint;
  const auto annealer = fast_annealer(11);
  const StringConstraintSolver solver(annealer);
  const SolveResult result = solver.solve(constraint);
  EXPECT_TRUE(result.satisfied) << describe(constraint);
  if (produces_string(constraint)) {
    ASSERT_TRUE(result.text.has_value());
  } else {
    ASSERT_TRUE(result.position.has_value());
  }
  EXPECT_GT(result.num_variables, 0u);
  EXPECT_FALSE(result.samples.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Operations, SolveEachOperation,
    ::testing::Values(Operation{Equality{"hello"}},
                      Operation{Concat{"hello", " world"}},
                      Operation{SubstringMatch{6, "hi"}},
                      Operation{Includes{"hello world", "world"}},
                      Operation{IndexOf{6, "hi", 2}},
                      Operation{Length{3, 2}},
                      Operation{ReplaceAll{"hello world", 'l', 'x'}},
                      Operation{Replace{"hello", 'e', 'a'}},
                      Operation{Reverse{"hello"}},
                      Operation{Palindrome{6}},
                      Operation{RegexMatch{"a[bc]+", 5}}));

TEST(StringConstraintSolver, EqualityDecodesExactTarget) {
  const auto annealer = fast_annealer(1);
  const StringConstraintSolver solver(annealer);
  const SolveResult result = solver.solve(Equality{"hello"});
  EXPECT_EQ(result.text, "hello");
  EXPECT_DOUBLE_EQ(result.energy, expected_ground_energy(Equality{"hello"}));
}

TEST(StringConstraintSolver, IncludesReportsFirstOccurrence) {
  const auto annealer = fast_annealer(2);
  const StringConstraintSolver solver(annealer);
  const SolveResult result = solver.solve(Includes{"say hi hi", "hi"});
  EXPECT_EQ(result.position, 4u);
  EXPECT_TRUE(result.satisfied);
}

TEST(StringConstraintSolver, IncludesNoOccurrence) {
  const auto annealer = fast_annealer(3);
  const StringConstraintSolver solver(annealer);
  const SolveResult result = solver.solve(Includes{"zzzz", "ab"});
  EXPECT_EQ(result.position, std::nullopt);
  EXPECT_TRUE(result.satisfied);
}

TEST(StringConstraintSolver, OneHotRegexDecoderIgnoresSelectors) {
  BuildOptions options;
  options.regex_encoding = RegexClassEncoding::kOneHotSelectors;
  const auto annealer = fast_annealer(4);
  const StringConstraintSolver solver(annealer, options);
  const SolveResult result = solver.solve(RegexMatch{"a[bd]+", 4});
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(result.text->size(), 4u);
  EXPECT_TRUE(result.satisfied);
}

TEST(StringConstraintSolver, ExactSamplerGivesDeterministicModel) {
  const anneal::ExactSolver exact;
  const StringConstraintSolver solver(exact);
  const SolveResult a = solver.solve(Equality{"ab"});
  const SolveResult b = solver.solve(Equality{"ab"});
  EXPECT_EQ(a.text, b.text);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(StringConstraintSolver, ReportsModelStatistics) {
  const auto annealer = fast_annealer(5);
  const StringConstraintSolver solver(annealer);
  const SolveResult result = solver.solve(Palindrome{4});
  EXPECT_EQ(result.num_variables, 28u);
  EXPECT_EQ(result.num_interactions, 14u);
  EXPECT_GE(result.build_seconds, 0.0);
  EXPECT_GE(result.sample_seconds, 0.0);
}

TEST(StringConstraintSolver, BuildModelMatchesFreeFunction) {
  const auto annealer = fast_annealer(6);
  BuildOptions options;
  options.strength = 2.0;
  const StringConstraintSolver solver(annealer, options);
  EXPECT_TRUE(solver.build_model(Equality{"ab"}) ==
              build(Equality{"ab"}, options));
}

TEST(DecodeAndVerify, ConjunctionAgreesWithPerConjunctVerifyString) {
  // A short, hot anneal of a merged conjunction leaves a seeded mix of
  // satisfying and failing samples. The conjunction verify stage must keep
  // exactly the first sample, in energy order, that every conjunct's
  // verify_string accepts — and fall through further when a filter
  // rejects that one.
  const std::vector<Constraint> conjuncts{
      CharAt{4, 0, 'm'}, NotContains{4, "mm"}, Palindrome{4}};
  const PreparedConstraint prepared = prepare(conjuncts);
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 64;
  p.num_sweeps = 8;
  p.polish_with_greedy = false;
  p.seed = 5;
  const anneal::SampleSet samples =
      anneal::SimulatedAnnealer(p).sample(prepared.adjacency);

  std::vector<std::size_t> satisfying;
  std::vector<std::string> texts;
  for (const anneal::Sample& sample : samples) {
    texts.push_back(strenc::decode_string(
        std::span(sample.bits).subspan(0, prepared.string_bits)));
    bool all = true;
    for (const Constraint& constraint : conjuncts) {
      all = all && verify_string(constraint, texts.back());
    }
    if (all) satisfying.push_back(texts.size() - 1);
  }
  ASSERT_GE(satisfying.size(), 2u);
  ASSERT_LT(satisfying.size(), samples.size());

  const SolveResult first = decode_and_verify(conjuncts, samples);
  ASSERT_TRUE(first.satisfied);
  EXPECT_EQ(first.text, texts[satisfying[0]]);
  EXPECT_EQ(first.energy, samples[satisfying[0]].energy);

  const std::string rejected = texts[satisfying[0]];
  const SolveResult filtered = decode_and_verify(
      conjuncts, samples,
      [&](const std::string& text) { return text != rejected; });
  std::size_t next = 0;
  for (std::size_t s : satisfying) {
    if (texts[s] != rejected) {
      next = s;
      break;
    }
  }
  ASSERT_NE(next, 0u);
  ASSERT_TRUE(filtered.satisfied);
  EXPECT_EQ(filtered.text, texts[next]);
  EXPECT_EQ(filtered.energy, samples[next].energy);

  // Nothing verifies: the best sample's decoding is reported unsatisfied.
  const SolveResult none = decode_and_verify(
      conjuncts, samples, [](const std::string&) { return false; });
  EXPECT_FALSE(none.satisfied);
  EXPECT_EQ(none.text, texts[0]);
  EXPECT_EQ(none.energy, samples[0].energy);
}

TEST(StringConstraintSolver, UnsatisfiableVerificationIsReported) {
  // A frozen (hot, zero-sweep-budget) annealer rarely hits "hello"; the
  // solver must report satisfied = false rather than lie.
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 1;
  p.num_sweeps = 1;
  p.beta_hot = 1e-9;
  p.beta_cold = 1e-9;
  p.polish_with_greedy = false;
  p.seed = 99;
  const anneal::SimulatedAnnealer weak(p);
  const StringConstraintSolver solver(weak);
  const SolveResult result = solver.solve(Equality{"hello world, long"});
  ASSERT_TRUE(result.text.has_value());
  // With one unpolished read at infinite temperature the odds of decoding
  // the exact 119-bit target are negligible.
  EXPECT_FALSE(result.satisfied);
}

}  // namespace
}  // namespace qsmt::strqubo
