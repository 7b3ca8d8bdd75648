// Focused tests for corners the per-module suites don't reach.
#include <gtest/gtest.h>

#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "engine/engine.hpp"
#include "smtlib/compiler.hpp"
#include "smtlib/parser.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/pipeline.hpp"
#include "strqubo/solver.hpp"
#include "strqubo/verify.hpp"

namespace qsmt {
namespace {

anneal::SimulatedAnnealer fast_annealer(std::uint64_t seed) {
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 48;
  p.num_sweeps = 256;
  p.seed = seed;
  return anneal::SimulatedAnnealer(p);
}

TEST(LengthPrintable, SolvesToLetterPrefixWithNulTail) {
  const auto model = strqubo::build_length_printable(5, 3);
  const auto annealer = fast_annealer(1);
  const auto samples = annealer.sample(model);
  const std::string decoded = strenc::decode_string(samples.best().bits);
  ASSERT_EQ(decoded.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(decoded[i], '\0') << i;
  }
  EXPECT_EQ(decoded[3], '\0');
  EXPECT_EQ(decoded[4], '\0');
}

TEST(PaperLengthForm, SolvesToExpectedBitPrefix) {
  const auto annealer = fast_annealer(2);
  const strqubo::StringConstraintSolver solver(annealer);
  const auto result = solver.solve(strqubo::Length{3, 2});
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(*result.text, std::string("\x7f\x7f\0", 3));
}

TEST(EvaluateGround, PrefixSuffixStayNonGroundOverVariables) {
  const auto exprs = smtlib::parse_sexprs("(str.prefixof \"a\" x)");
  const auto term = smtlib::parse_term(exprs[0]);
  EXPECT_FALSE(smtlib::evaluate_ground(term).has_value());
}

TEST(GetValue, MultipleNamesMixKnownAndUnknown) {
  const auto annealer = fast_annealer(3);
  smtlib::SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "gv"))
    (check-sat)
    (get-value (x missing))
  )");
  EXPECT_NE(out.find("(x \"gv\")"), std::string::npos);
  EXPECT_NE(out.find("(missing (error \"unknown constant\"))"),
            std::string::npos);
}

TEST(Engine, TranscriptIncludesGetModelOutput) {
  const auto annealer = fast_annealer(4);
  const auto result = engine::solve_script(
      "(declare-const x String)(assert (= x \"tr\"))(check-sat)(get-model)",
      annealer);
  EXPECT_NE(result.transcript.find("(model (define-fun x () String \"tr\"))"),
            std::string::npos);
}

TEST(Solver, TieRescueScanFindsVerifiedSample) {
  // The averaged [bd] class has a 4-way tied ground manifold per position;
  // with enough reads the solver's scan must find a verified decoding even
  // though the single best sample is usually an artifact.
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 128;
  p.num_sweeps = 128;
  p.seed = 5;
  const anneal::SimulatedAnnealer annealer(p);
  const strqubo::StringConstraintSolver solver(annealer);
  const auto result = solver.solve(strqubo::RegexMatch{"[bd]+", 2});
  EXPECT_TRUE(result.satisfied) << *result.text;
}

TEST(Pipeline, BoundedLengthOutputFeedsTransforms) {
  // A generated padded buffer can seed a pipeline; reversal keeps the
  // buffer's character multiset, so verification is on the reversed string.
  const auto annealer = fast_annealer(6);
  const strqubo::StringConstraintSolver solver(annealer);
  strqubo::Pipeline pipeline{strqubo::BoundedLength{4, 4, 4}};
  pipeline.then(strqubo::ThenReverse{});
  const auto result = pipeline.run(solver);
  EXPECT_TRUE(result.all_satisfied);
  EXPECT_EQ(result.final_value.size(), 4u);
}

TEST(ConstraintMeta, NewOperationsCovered) {
  EXPECT_EQ(strqubo::constraint_name(strqubo::BoundedLength{4, 1, 2}),
            "bounded-length");
  EXPECT_NE(strqubo::describe(strqubo::BoundedLength{4, 1, 2}).find("[1, 2]"),
            std::string::npos);
  EXPECT_TRUE(strqubo::produces_string(strqubo::BoundedLength{4, 1, 2}));
  EXPECT_NE(strqubo::describe(strqubo::NotContains{3, "q"}).find("'q'"),
            std::string::npos);
}

TEST(ExactSolver, SampleBitsizesMatchModelWithAncillas) {
  // Models with appended auxiliary variables still round-trip through the
  // exact solver with full-width samples.
  const auto model = strqubo::build_not_contains(1, "a");
  const auto samples = anneal::ExactSolver().sample(model);
  for (const auto& s : samples) {
    EXPECT_EQ(s.bits.size(), model.num_variables());
  }
}

TEST(VerifyPosition, EmptyishEdges) {
  // Substring equal to the text: position 0 is the only answer.
  EXPECT_TRUE(strqubo::verify_position(strqubo::Includes{"abc", "abc"}, 0));
  EXPECT_FALSE(
      strqubo::verify_position(strqubo::Includes{"abc", "abc"}, std::nullopt));
}

TEST(CheckSatAssuming, AssumptionsAreScopedToOneCheck) {
  const auto annealer = fast_annealer(7);
  smtlib::SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "base"))
    (check-sat-assuming ((= x "other")))
    (check-sat)
  )");
  // With the conflicting assumption the lengths disagree, which the baseline
  // certifier refutes exactly; afterwards the assumption is gone and the base
  // assertion holds.
  EXPECT_EQ(out, "unsat\nsat\n");
  EXPECT_EQ(driver.history().back().model_value, "base");
}

TEST(CheckSatAssuming, SatisfiableAssumptions) {
  const auto annealer = fast_annealer(8);
  smtlib::SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 4))
    (check-sat-assuming ((str.contains x "zz")))
  )");
  EXPECT_EQ(out, "sat\n");
  EXPECT_NE(driver.history().back().model_value.find("zz"),
            std::string::npos);
}

TEST(CheckSatAssuming, RoutesBooleanAssumptionsToDpllT) {
  const auto annealer = fast_annealer(9);
  const auto result = engine::solve_script(R"(
    (declare-const x String)
    (check-sat-assuming ((or (= x "aa") (= x "bb"))))
  )",
                                           annealer);
  EXPECT_EQ(result.engine, engine::EngineKind::kDpllT);
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  EXPECT_TRUE(result.model_value == "aa" || result.model_value == "bb");
}

TEST(CompileAssertions, AndOfLengthAndCharAt) {
  const auto exprs = smtlib::parse_sexprs(
      "(and (= (str.len x) 3) (= (str.at x 1) \"z\"))");
  const std::vector<smtlib::TermPtr> assertions{
      smtlib::parse_term(exprs[0])};
  const auto query = smtlib::compile_assertions(
      assertions, {{"x", smtlib::Sort::kString}});
  EXPECT_TRUE(query.unsupported.empty());
  ASSERT_EQ(query.constraints.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<strqubo::CharAt>(query.constraints[0]));
}

}  // namespace
}  // namespace qsmt
