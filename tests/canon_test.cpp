// Pins for the alpha-equivalence canonicalizer (src/canon/canon.hpp): the
// renaming is deterministic and order-stable, commutative normalization is
// idempotent, alpha-variant scripts collide to one canonical form, and —
// the soundness edge — scripts that differ in anything *beyond* names and
// commutative order (length bounds, targets, BuildOptions) never collide.
#include "canon/canon.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smtlib/parser.hpp"

namespace qsmt::canon {
namespace {

CanonicalScript canon_of(const std::string& script) {
  CanonicalScript result = canonicalize_script(script);
  EXPECT_TRUE(result.cacheable) << result.note;
  return result;
}

TEST(CanonTest, RenamesVariablesToPositionalNormalForm) {
  const CanonicalScript canonical = canon_of(
      "(declare-const hello String)\n"
      "(assert (= hello \"abc\"))\n"
      "(check-sat)\n");
  EXPECT_EQ(canonical.text,
            "(declare-const v0 String)\n"
            "(assert (= \"abc\" v0))\n"
            "(check-sat)\n");
  ASSERT_EQ(canonical.renaming.size(), 1u);
  EXPECT_EQ(canonical.renaming[0].first, "hello");
  EXPECT_EQ(canonical.renaming[0].second, "v0");
  EXPECT_EQ(original_name(canonical, "v0"), "hello");
  EXPECT_EQ(canonical_name(canonical, "hello"), "v0");
  EXPECT_EQ(original_name(canonical, "v7"), "");
  EXPECT_EQ(canonical_name(canonical, "nope"), "");
}

TEST(CanonTest, AlphaVariantScriptsCollide) {
  const CanonicalScript a = canon_of(
      "(declare-const x String)\n"
      "(assert (= x \"ab\"))\n"
      "(assert (str.contains x \"a\"))\n"
      "(check-sat)\n");
  // Different name, different assertion order: same formula.
  const CanonicalScript b = canon_of(
      "(declare-const query_string String)\n"
      "(assert (str.contains query_string \"a\"))\n"
      "(assert (= query_string \"ab\"))\n"
      "(check-sat)\n");
  EXPECT_EQ(a.text, b.text);
  const strqubo::BuildOptions options;
  EXPECT_EQ(script_answer_key(a, options), script_answer_key(b, options));
}

TEST(CanonTest, CommutativeArgumentOrderErased) {
  const CanonicalScript a = canon_of(
      "(declare-const x String)\n"
      "(assert (and (str.contains x \"a\") (= (str.len x) 3)))\n"
      "(check-sat)\n");
  const CanonicalScript b = canon_of(
      "(declare-const x String)\n"
      "(assert (and (= (str.len x) 3) (str.contains x \"a\")))\n"
      "(check-sat)\n");
  EXPECT_EQ(a.text, b.text);
}

TEST(CanonTest, NormalizeTermIsIdempotent) {
  const auto commands = smtlib::parse_script(
      "(declare-const x String)\n"
      "(assert (and (str.contains x \"b\") (and (= x \"ab\") "
      "(str.contains x \"a\"))))\n"
      "(check-sat)\n");
  smtlib::TermPtr term;
  for (const auto& command : commands) {
    if (const auto* assert_cmd = std::get_if<smtlib::AssertCmd>(&command)) {
      term = assert_cmd->term;
    }
  }
  ASSERT_NE(term, nullptr);
  const smtlib::TermPtr once = normalize_term(term);
  const smtlib::TermPtr twice = normalize_term(once);
  EXPECT_EQ(smtlib::to_string(once), smtlib::to_string(twice));
  // Nested same-op `and`s flatten into one argument list.
  EXPECT_EQ(once->args.size(), 3u);
}

TEST(CanonTest, ErasedPrintHidesNamesOnly) {
  const auto commands = smtlib::parse_script(
      "(declare-const longname String)\n"
      "(assert (str.contains longname \"a\"))\n"
      "(check-sat)\n");
  for (const auto& command : commands) {
    if (const auto* assert_cmd = std::get_if<smtlib::AssertCmd>(&command)) {
      EXPECT_EQ(erased_print(assert_cmd->term), "(str.contains ? \"a\")");
    }
  }
}

TEST(CanonTest, DifferentLengthBoundsDoNotCollide) {
  const CanonicalScript three = canon_of(
      "(declare-const x String)\n"
      "(assert (= (str.len x) 3))\n"
      "(assert (str.contains x \"a\"))\n"
      "(check-sat)\n");
  const CanonicalScript four = canon_of(
      "(declare-const x String)\n"
      "(assert (= (str.len x) 4))\n"
      "(assert (str.contains x \"a\"))\n"
      "(check-sat)\n");
  EXPECT_NE(three.text, four.text);
  const strqubo::BuildOptions options;
  EXPECT_NE(script_answer_key(three, options),
            script_answer_key(four, options));
}

TEST(CanonTest, DifferentBuildOptionsDoNotCollide) {
  const CanonicalScript canonical = canon_of(
      "(declare-const x String)\n"
      "(assert (= x \"ab\"))\n"
      "(check-sat)\n");
  strqubo::BuildOptions a;
  strqubo::BuildOptions b;
  b.strength = a.strength * 2.0;
  EXPECT_NE(script_answer_key(canonical, a), script_answer_key(canonical, b));

  const strqubo::Constraint constraint = strqubo::Equality{"ab"};
  EXPECT_NE(constraint_answer_key(constraint, a),
            constraint_answer_key(constraint, b));
}

TEST(CanonTest, FingerprintOverloadsBuildByteIdenticalKeys) {
  const CanonicalScript canonical = canon_of(
      "(declare-const y String)\n"
      "(assert (str.prefixof \"ab\" y))\n"
      "(assert (= (str.len y) 4))\n"
      "(check-sat)\n");
  const CanonicalScript uncacheable = canonicalize_script(
      "(declare-const x String)\n"
      "(push 1)\n"
      "(check-sat)\n");
  ASSERT_FALSE(uncacheable.cacheable);
  const std::vector<strqubo::Constraint> conjuncts = {
      strqubo::Reverse{"abc"}, strqubo::Equality{"cba"}};
  strqubo::BuildOptions tuned;
  tuned.strength = 3.5;
  tuned.includes_selection_cost = 0.25;
  for (const strqubo::BuildOptions& options :
       {strqubo::BuildOptions{}, tuned}) {
    const std::string fingerprint = strqubo::options_fingerprint(options);
    EXPECT_EQ(constraint_answer_key(conjuncts, fingerprint),
              constraint_answer_key(conjuncts, options));
    EXPECT_EQ(constraint_answer_key({conjuncts.front()}, fingerprint),
              constraint_answer_key(conjuncts.front(), options));
    EXPECT_EQ(script_answer_key(canonical, fingerprint),
              script_answer_key(canonical, options));
    EXPECT_EQ(script_answer_key(uncacheable, fingerprint), "");
  }
}

TEST(CanonTest, ConstraintKeyErasesOrderAndMultiplicity) {
  const strqubo::Constraint eq = strqubo::Equality{"ab"};
  const strqubo::Constraint rev = strqubo::Reverse{"ab"};
  const strqubo::BuildOptions options;
  EXPECT_EQ(constraint_answer_key({eq, rev}, options),
            constraint_answer_key({rev, eq, rev}, options));
  EXPECT_NE(constraint_answer_key({eq}, options),
            constraint_answer_key({rev}, options));
  // Structurally different payloads of the same op family stay distinct.
  EXPECT_NE(constraint_answer_key(strqubo::Equality{"ab"}, options),
            constraint_answer_key(strqubo::Equality{"ba"}, options));
  EXPECT_NE(
      constraint_answer_key(strqubo::Palindrome{3}, options),
      constraint_answer_key(strqubo::Palindrome{4}, options));
}

TEST(CanonTest, ConstraintAndScriptKeySpacesAreDisjoint) {
  const strqubo::BuildOptions options;
  const std::string constraint_key =
      constraint_answer_key(strqubo::Equality{"ab"}, options);
  const CanonicalScript canonical = canon_of(
      "(declare-const x String)\n"
      "(assert (= x \"ab\"))\n"
      "(check-sat)\n");
  EXPECT_NE(constraint_key, script_answer_key(canonical, options));
}

TEST(CanonTest, OutsideFragmentIsNotCacheable) {
  const char* rejected[] = {
      // No check-sat.
      "(declare-const x String)\n(assert (= x \"a\"))\n",
      // Two check-sats.
      "(declare-const x String)\n(check-sat)\n(check-sat)\n",
      // Stateful scoping.
      "(declare-const x String)\n(push 1)\n(check-sat)\n",
      // Output-bearing command a cached verdict cannot answer.
      "(declare-const x String)\n(check-sat)\n(get-model)\n",
      // Undeclared variable.
      "(assert (= y \"a\"))\n(check-sat)\n",
      // Assertion after the check-sat.
      "(declare-const x String)\n(check-sat)\n(assert (= x \"a\"))\n",
      // Unparseable.
      "(assert (= x \"a\")",
  };
  for (const char* script : rejected) {
    const CanonicalScript canonical = canonicalize_script(script);
    EXPECT_FALSE(canonical.cacheable) << script;
    EXPECT_FALSE(canonical.note.empty()) << script;
    EXPECT_EQ(script_answer_key(canonical, strqubo::BuildOptions{}), "");
  }
}

TEST(CanonTest, RenamingIsStableAcrossRepeatedCalls) {
  const std::string script =
      "(declare-const b String)\n"
      "(declare-const a String)\n"
      "(assert (str.contains a \"x\"))\n"
      "(assert (str.contains b \"y\"))\n"
      "(check-sat)\n";
  const CanonicalScript first = canon_of(script);
  const CanonicalScript second = canon_of(script);
  EXPECT_EQ(first.text, second.text);
  EXPECT_EQ(first.renaming, second.renaming);
}

TEST(CanonTest, UnusedDeclaredVariablesFollowDeclarationOrder) {
  const CanonicalScript canonical = canon_of(
      "(declare-const unused String)\n"
      "(declare-const used String)\n"
      "(assert (= used \"a\"))\n"
      "(check-sat)\n");
  // First-use over the sorted assertions names `used` v0; the never-used
  // declaration trails in declaration order as v1.
  EXPECT_EQ(canonical_name(canonical, "used"), "v0");
  EXPECT_EQ(canonical_name(canonical, "unused"), "v1");
}

}  // namespace
}  // namespace qsmt::canon
