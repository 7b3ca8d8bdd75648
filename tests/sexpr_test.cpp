#include <gtest/gtest.h>

#include <string>

#include "smtlib/sexpr.hpp"

namespace qsmt::smtlib {
namespace {

TEST(ParseSexprs, Symbols) {
  const auto exprs = parse_sexprs("foo str.len -abc");
  ASSERT_EQ(exprs.size(), 3u);
  EXPECT_TRUE(exprs[0].is_symbol("foo"));
  EXPECT_TRUE(exprs[1].is_symbol("str.len"));
  EXPECT_TRUE(exprs[2].is_symbol("-abc"));
}

TEST(ParseSexprs, Numerals) {
  const auto exprs = parse_sexprs("0 42 -17");
  ASSERT_EQ(exprs.size(), 3u);
  EXPECT_EQ(exprs[0].kind, SExpr::Kind::kNumeral);
  EXPECT_EQ(exprs[0].numeral, 0);
  EXPECT_EQ(exprs[1].numeral, 42);
  EXPECT_EQ(exprs[2].numeral, -17);
}

TEST(ParseSexprs, LoneMinusIsSymbol) {
  const auto exprs = parse_sexprs("-");
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_TRUE(exprs[0].is_symbol("-"));
}

TEST(ParseSexprs, StringLiterals) {
  const auto exprs = parse_sexprs(R"("hello world" "")");
  ASSERT_EQ(exprs.size(), 2u);
  EXPECT_EQ(exprs[0].kind, SExpr::Kind::kString);
  EXPECT_EQ(exprs[0].atom, "hello world");
  EXPECT_EQ(exprs[1].atom, "");
}

TEST(ParseSexprs, DoubledQuoteEscape) {
  // SMT-LIB 2.6: "" inside a string is a literal quote.
  const auto exprs = parse_sexprs(R"("say ""hi""")");
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_EQ(exprs[0].atom, "say \"hi\"");
}

TEST(ParseSexprs, NestedLists) {
  const auto exprs = parse_sexprs("(assert (= x (str.++ \"a\" \"b\")))");
  ASSERT_EQ(exprs.size(), 1u);
  const SExpr& top = exprs[0];
  ASSERT_TRUE(top.is_list());
  ASSERT_EQ(top.list.size(), 2u);
  EXPECT_TRUE(top.list[0].is_symbol("assert"));
  const SExpr& eq = top.list[1];
  ASSERT_EQ(eq.list.size(), 3u);
  EXPECT_TRUE(eq.list[0].is_symbol("="));
  EXPECT_EQ(eq.list[2].list.size(), 3u);
}

TEST(ParseSexprs, EmptyList) {
  const auto exprs = parse_sexprs("()");
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_TRUE(exprs[0].is_list());
  EXPECT_TRUE(exprs[0].list.empty());
}

TEST(ParseSexprs, CommentsIgnored) {
  const auto exprs = parse_sexprs(
      "; leading comment\n(check-sat) ; trailing\n; done");
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_TRUE(exprs[0].is_list());
}

TEST(ParseSexprs, SemicolonInsideStringIsNotComment) {
  const auto exprs = parse_sexprs(R"(" ; not a comment ")");
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_EQ(exprs[0].atom, " ; not a comment ");
}

TEST(ParseSexprs, EmptyInputGivesNothing) {
  EXPECT_TRUE(parse_sexprs("").empty());
  EXPECT_TRUE(parse_sexprs("  \n ; just a comment\n").empty());
}

TEST(ParseSexprs, Errors) {
  EXPECT_THROW(parse_sexprs("("), std::invalid_argument);
  EXPECT_THROW(parse_sexprs(")"), std::invalid_argument);
  EXPECT_THROW(parse_sexprs("(a (b)"), std::invalid_argument);
  EXPECT_THROW(parse_sexprs("\"unterminated"), std::invalid_argument);
}

std::string nested(std::size_t depth) {
  return std::string(depth, '(') + "x" + std::string(depth, ')');
}

TEST(ParseSexprs, NestingAtTheLimitParses) {
  const auto exprs = parse_sexprs(nested(kMaxSexprDepth) + "\n" +
                                  nested(kMaxSexprDepth));
  ASSERT_EQ(exprs.size(), 2u);
  const SExpr* expr = &exprs[0];
  std::size_t depth = 0;
  while (expr->is_list()) {
    ASSERT_EQ(expr->list.size(), 1u);
    expr = &expr->list[0];
    ++depth;
  }
  EXPECT_EQ(depth, kMaxSexprDepth);
  EXPECT_TRUE(expr->is_symbol("x"));
}

TEST(ParseSexprs, NestingPastTheLimitIsAParseError) {
  try {
    parse_sexprs(nested(kMaxSexprDepth + 1));
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nested deeper than 1000"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseSexprs, ErrorMessageCarriesLineNumber) {
  try {
    parse_sexprs("(a)\n(b\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ToString, RoundTripsConcreteSyntax) {
  const char* inputs[] = {"(assert (= x \"hi\"))", "(check-sat)",
                          "(a 1 -2 (b c))"};
  for (const char* input : inputs) {
    const auto exprs = parse_sexprs(input);
    ASSERT_EQ(exprs.size(), 1u);
    EXPECT_EQ(to_string(exprs[0]), input);
  }
}

TEST(ToString, ReescapesQuotes) {
  const auto exprs = parse_sexprs(R"("a""b")");
  EXPECT_EQ(to_string(exprs[0]), R"("a""b")");
}

TEST(SExprFactories, BuildExpectedKinds) {
  EXPECT_TRUE(SExpr::symbol("x").is_symbol("x"));
  EXPECT_EQ(SExpr::number(5).numeral, 5);
  EXPECT_EQ(SExpr::string("s").kind, SExpr::Kind::kString);
  EXPECT_TRUE(SExpr::make_list({SExpr::symbol("a")}).is_list());
}

}  // namespace
}  // namespace qsmt::smtlib
