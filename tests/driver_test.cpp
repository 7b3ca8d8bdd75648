#include <gtest/gtest.h>

#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "smtlib/driver.hpp"
#include "smtlib/parser.hpp"

namespace qsmt::smtlib {
namespace {

anneal::SimulatedAnnealer fast_annealer(std::uint64_t seed) {
  anneal::SimulatedAnnealerParams p;
  p.num_reads = 48;
  p.num_sweeps = 192;
  p.seed = seed;
  return anneal::SimulatedAnnealer(p);
}

TEST(SmtDriver, SatOnSimpleEquality) {
  const auto annealer = fast_annealer(1);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (set-logic QF_S)
    (declare-const x String)
    (assert (= x "hello"))
    (check-sat)
    (get-model)
  )");
  EXPECT_NE(out.find("sat\n"), std::string::npos);
  EXPECT_NE(out.find("(define-fun x () String \"hello\")"),
            std::string::npos);
  ASSERT_EQ(driver.history().size(), 1u);
  EXPECT_EQ(driver.history()[0].status, CheckSatStatus::kSat);
  EXPECT_EQ(driver.history()[0].model_value, "hello");
}

TEST(SmtDriver, SatOnContainsWithLength) {
  const auto annealer = fast_annealer(2);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 6))
    (assert (str.contains x "hi"))
    (check-sat)
  )");
  EXPECT_EQ(out, "sat\n");
  const auto& record = driver.history().back();
  EXPECT_EQ(record.model_value.size(), 6u);
  EXPECT_NE(record.model_value.find("hi"), std::string::npos);
}

TEST(SmtDriver, MergedConjunctionSolvesJointly) {
  // Palindrome AND contains: merged QUBO must satisfy both at once.
  const auto annealer = fast_annealer(3);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 4))
    (assert (qsmt.is_palindrome x))
    (assert (str.contains x "bb"))
    (check-sat)
  )");
  EXPECT_EQ(out, "sat\n");
  const auto& record = driver.history().back();
  EXPECT_EQ(record.num_constraints, 2u);
  const std::string& v = record.model_value;
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], v[3]);
  EXPECT_EQ(v[1], v[2]);
  EXPECT_NE(v.find("bb"), std::string::npos);
}

TEST(SmtDriver, NotContainsAndCharAtConjunction) {
  const auto annealer = fast_annealer(20);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 4))
    (assert (not (str.contains x "zz")))
    (assert (= (str.at x 0) "k"))
    (check-sat)
  )");
  EXPECT_EQ(out, "sat\n");
  const std::string& v = driver.history().back().model_value;
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 'k');
  EXPECT_EQ(v.find("zz"), std::string::npos);
}

TEST(SmtDriver, RegexStarAndOptional) {
  const auto annealer = fast_annealer(27);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 3))
    (assert (str.in_re x (re.++ (re.* (str.to_re "a"))
                                (str.to_re "b")
                                (re.opt (str.to_re "c")))))
    (check-sat)
  )");
  EXPECT_EQ(out, "sat\n");
  const std::string& v = driver.history().back().model_value;
  // Length 3 matches of a*bc? are "aab" or "abc".
  EXPECT_TRUE(v == "aab" || v == "abc") << v;
}

TEST(SmtDriver, UnsatOnFalseGroundFact) {
  const auto annealer = fast_annealer(4);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (assert (= "a" "b"))
    (check-sat)
  )");
  EXPECT_EQ(out, "unsat\n");
}

TEST(SmtDriver, SatOnTrueGroundScript) {
  const auto annealer = fast_annealer(5);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (assert (str.contains "hello" "ell"))
    (assert (= (str.len "abc") 3))
    (check-sat)
    (get-model)
  )");
  EXPECT_NE(out.find("sat\n"), std::string::npos);
  EXPECT_NE(out.find("(model)"), std::string::npos);
}

TEST(SmtDriver, UnknownOnOutOfFragmentAtoms) {
  const auto annealer = fast_annealer(6);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (or (= x "a") (= x "b")))
    (check-sat)
  )");
  EXPECT_EQ(out, "unknown\n");
  EXPECT_FALSE(driver.history().back().notes.empty());
}

TEST(SmtDriver, UnsatWhenLengthsDisagree) {
  const auto annealer = fast_annealer(7);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "ab"))
    (assert (= x "abc"))
    (check-sat)
  )");
  // Every conjunct pins the generated string's length exactly, so a length
  // disagreement is a certified refutation, not an unknown.
  EXPECT_EQ(out, "unsat\n");
  ASSERT_FALSE(driver.history().back().notes.empty());
  EXPECT_NE(driver.history().back().notes.back().find("certified"),
            std::string::npos);
}

TEST(SmtDriver, UnsatOnContradictorySameLengthEqualities) {
  const auto annealer = fast_annealer(16);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "ab"))
    (assert (= x "cd"))
    (check-sat)
  )");
  // The pinned-witness route: "ab" is the unique satisfier of the first
  // conjunct and violates the second.
  EXPECT_EQ(out, "unsat\n");
}

TEST(SmtDriver, UnsatByExhaustiveSearch) {
  const auto annealer = fast_annealer(17);
  SmtDriver driver(annealer);
  // A palindrome of length 2 whose two halves are forced to differ: no
  // unique-witness conjunct exists, so only the exhaustive route proves it.
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 2))
    (assert (qsmt.is_palindrome x))
    (assert (= (str.at x 0) "a"))
    (assert (= (str.at x 1) "b"))
    (check-sat)
  )");
  EXPECT_EQ(out, "unsat\n");
  ASSERT_FALSE(driver.history().back().notes.empty());
  EXPECT_NE(driver.history().back().notes.back().find("exhaustive"),
            std::string::npos);
}

TEST(SmtDriver, UnsatOnImpossibleRegexLength) {
  const auto annealer = fast_annealer(18);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 1))
    (assert (str.in_re x (re.++ (str.to_re "a") (str.to_re "b"))))
    (check-sat)
  )");
  EXPECT_EQ(out, "unsat\n");
}

TEST(SmtDriver, GetModelWithoutSatIsError) {
  const auto annealer = fast_annealer(8);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script("(get-model)");
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST(SmtDriver, EchoAndExit) {
  const auto annealer = fast_annealer(9);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (echo "before")
    (exit)
    (echo "after")
  )");
  EXPECT_EQ(out, "before\n");
}

TEST(SmtDriver, DuplicateDeclarationThrows) {
  const auto annealer = fast_annealer(10);
  SmtDriver driver(annealer);
  EXPECT_THROW(
      driver.run_script("(declare-const x String)(declare-const x Int)"),
      std::invalid_argument);
}

TEST(SmtDriver, ResetClearsState) {
  const auto annealer = fast_annealer(11);
  SmtDriver driver(annealer);
  driver.run_script("(declare-const x String)(assert (= x \"a\"))");
  driver.reset();
  // Redeclaration is fine after reset, and old assertions are gone.
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "zz"))
    (check-sat)
  )");
  EXPECT_EQ(out, "sat\n");
  EXPECT_EQ(driver.history().back().model_value, "zz");
}

TEST(SmtDriver, ModelQuotesEmbeddedQuotes) {
  const auto annealer = fast_annealer(12);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "a""b"))
    (check-sat)
    (get-model)
  )");
  EXPECT_NE(out.find("sat\n"), std::string::npos);
  EXPECT_NE(out.find("\"a\"\"b\""), std::string::npos);
}

TEST(SmtDriver, PushPopRestoresAssertions) {
  const auto annealer = fast_annealer(21);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "base"))
    (push)
    (assert (= x "different"))
    (check-sat)
    (pop)
    (check-sat)
  )");
  // Inside the push the two equalities pin different lengths -> certified
  // unsat; after the pop only the base assertion remains.
  EXPECT_EQ(out, "unsat\nsat\n");
  EXPECT_EQ(driver.history().back().model_value, "base");
}

TEST(SmtDriver, PushPopRestoresDeclarations) {
  const auto annealer = fast_annealer(22);
  SmtDriver driver(annealer);
  std::string out;
  for (const Command& command : parse_script(R"(
        (push)
        (declare-const y String)
        (pop)
        (declare-const y Int)
      )")) {
    driver.execute(command, out);  // Must not throw a duplicate error.
  }
  EXPECT_EQ(driver.scope_depth(), 0u);
}

TEST(SmtDriver, PopBelowBottomRepliesErrorAndSurvives) {
  const auto annealer = fast_annealer(23);
  SmtDriver driver(annealer);
  // z3-style: (pop) below depth 0 is an (error ...) reply, not an
  // exception — the stack is untouched and the session keeps working.
  std::string out = driver.run_script("(pop)");
  EXPECT_EQ(out, "(error \"pop below the bottom of the assertion stack\")\n");
  EXPECT_EQ(driver.scope_depth(), 0u);
  out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "ok"))
    (check-sat)
    (pop 2)
    (check-sat)
  )");
  EXPECT_EQ(out,
            "sat\n(error \"pop below the bottom of the assertion stack\")\n"
            "sat\n");
}

TEST(SmtDriver, CheckSatAssumingUndeclaredSymbolRepliesError) {
  const auto annealer = fast_annealer(27);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "ab"))
    (check-sat-assuming ((= (str.len y) 2)))
  )");
  EXPECT_EQ(out, "(error \"check-sat-assuming: undeclared symbol 'y'\")\n");
  // The failed check left no verdict behind.
  EXPECT_TRUE(driver.history().empty());
  EXPECT_EQ(driver.run_script("(check-sat)"), "sat\n");
  EXPECT_EQ(driver.history().size(), 1u);
}

TEST(SmtDriver, SessionWithoutResetKeepsOnlyTheLastRecord) {
  // A long-lived session (a daemon connection that never sends (reset))
  // must not grow with the check-sats it has served.
  const auto annealer = fast_annealer(28);
  SmtDriver driver(annealer);
  driver.run_script(R"(
    (declare-const x String)
    (assert (= (str.len x) 2))
  )");
  for (int i = 0; i < 300; ++i) {
    const std::string value{static_cast<char>('a' + i % 26),
                            static_cast<char>('a' + i / 26 % 26)};
    const std::string out = driver.run_script(
        "(check-sat-assuming ((= x \"" + value + "\")))(get-model)");
    ASSERT_EQ(out,
              "sat\n(model (define-fun x () String \"" + value + "\"))\n");
    ASSERT_EQ(driver.history().size(), 1u);
    EXPECT_EQ(driver.history().back().model_value, value);
  }
  driver.run_script("(reset)");
  EXPECT_TRUE(driver.history().empty());
}

TEST(SmtDriver, PushPopWithLevels) {
  const auto annealer = fast_annealer(24);
  SmtDriver driver(annealer);
  std::string out;
  for (const Command& command : parse_script("(push 3)(pop 2)")) {
    driver.execute(command, out);
  }
  EXPECT_EQ(driver.scope_depth(), 1u);
}

TEST(SmtDriver, GetValueReportsModelConstant) {
  const auto annealer = fast_annealer(25);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script(R"(
    (declare-const x String)
    (assert (= x "val"))
    (check-sat)
    (get-value (x))
  )");
  EXPECT_NE(out.find("((x \"val\"))"), std::string::npos);
}

TEST(SmtDriver, GetValueWithoutModelIsError) {
  const auto annealer = fast_annealer(26);
  SmtDriver driver(annealer);
  const std::string out = driver.run_script("(get-value (x))");
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST(SolveConjunction, EmptyIsTriviallySolved) {
  const auto annealer = fast_annealer(13);
  const ConjunctionResult result = solve_conjunction({}, annealer, {});
  EXPECT_TRUE(result.solved);
  EXPECT_TRUE(result.value.empty());
}

TEST(SolveConjunction, SingleConstraintUsesSolverPath) {
  const anneal::ExactSolver exact;
  const ConjunctionResult result =
      solve_conjunction({strqubo::Equality{"ab"}}, exact, {});
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.value, "ab");
  EXPECT_EQ(result.num_qubo_variables, 14u);
}

TEST(SolveConjunction, RejectsIncludesConjuncts) {
  const auto annealer = fast_annealer(14);
  const ConjunctionResult result = solve_conjunction(
      {strqubo::Equality{"ab"}, strqubo::Includes{"ab", "a"}}, annealer, {});
  EXPECT_FALSE(result.solved);
  EXPECT_FALSE(result.note.empty());
}

TEST(SolveConjunction, ContradictoryConjunctsFailVerification) {
  const auto annealer = fast_annealer(15);
  const ConjunctionResult result = solve_conjunction(
      {strqubo::Equality{"ab"}, strqubo::Equality{"cd"}}, annealer, {});
  EXPECT_FALSE(result.solved);
  EXPECT_FALSE(result.note.empty());
}

TEST(SolveConjunction, OneHotRegexConjunctsRemapSelectorBlocks) {
  // Two one-hot regex models over the same 4-character string each append
  // their own selector block; the merge must give each block a fresh range
  // (colliding selectors would corrupt both one-hot gadgets).
  const auto annealer = fast_annealer(30);
  strqubo::BuildOptions options;
  options.regex_encoding = strqubo::RegexClassEncoding::kOneHotSelectors;
  const std::vector<strqubo::Constraint> conjuncts{
      strqubo::RegexMatch{"[bd]+", 4},   // 4 class positions: 8 selectors.
      strqubo::RegexMatch{"b[bd]+", 4},  // 1 literal + 3 classes: 6.
  };
  const ConjunctionResult result =
      solve_conjunction(conjuncts, annealer, options);
  ASSERT_TRUE(result.solved) << result.note;
  EXPECT_EQ(result.num_qubo_variables, 28u + 8u + 6u);
  EXPECT_EQ(result.value.size(), 4u);
  EXPECT_EQ(result.value[0], 'b');
  for (char c : result.value) {
    EXPECT_TRUE(c == 'b' || c == 'd') << result.value;
  }
}

TEST(SolveConjunction, MixedExtensionConjuncts) {
  // charAt + notContains + palindrome over one 4-character string.
  const auto annealer = fast_annealer(31);
  const std::vector<strqubo::Constraint> conjuncts{
      strqubo::CharAt{4, 0, 'm'},
      strqubo::NotContains{4, "mm"},
      strqubo::Palindrome{4},
  };
  const ConjunctionResult result = solve_conjunction(conjuncts, annealer, {});
  ASSERT_TRUE(result.solved) << result.note;
  EXPECT_EQ(result.value[0], 'm');
  EXPECT_EQ(result.value[3], 'm');
  EXPECT_EQ(result.value[1], result.value[2]);
  EXPECT_EQ(result.value.find("mm"), std::string::npos);
}

TEST(StatusName, AllValues) {
  EXPECT_EQ(status_name(CheckSatStatus::kSat), "sat");
  EXPECT_EQ(status_name(CheckSatStatus::kUnsat), "unsat");
  EXPECT_EQ(status_name(CheckSatStatus::kUnknown), "unknown");
}

}  // namespace
}  // namespace qsmt::smtlib
