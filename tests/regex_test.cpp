#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "regex/nfa.hpp"
#include "regex/pattern.hpp"

namespace qsmt::regex {
namespace {

TEST(ParsePattern, Literals) {
  const Pattern p = parse_pattern("abc");
  ASSERT_EQ(p.elements.size(), 3u);
  EXPECT_EQ(p.elements[0].chars, "a");
  EXPECT_FALSE(p.elements[0].is_class);
  EXPECT_FALSE(p.elements[0].plus());
  EXPECT_EQ(p.min_length(), 3u);
  EXPECT_FALSE(p.has_plus());
}

TEST(ParsePattern, CharacterClass) {
  const Pattern p = parse_pattern("[bc]");
  ASSERT_EQ(p.elements.size(), 1u);
  EXPECT_TRUE(p.elements[0].is_class);
  EXPECT_EQ(p.elements[0].chars, "bc");
}

TEST(ParsePattern, ClassDeduplicatesCharacters) {
  const Pattern p = parse_pattern("[aba]");
  EXPECT_EQ(p.elements[0].chars, "ab");
}

TEST(ParsePattern, PaperExample) {
  // §4.11: a[tyz]+b.
  const Pattern p = parse_pattern("a[tyz]+b");
  ASSERT_EQ(p.elements.size(), 3u);
  EXPECT_EQ(p.elements[0].chars, "a");
  EXPECT_TRUE(p.elements[1].is_class);
  EXPECT_EQ(p.elements[1].chars, "tyz");
  EXPECT_TRUE(p.elements[1].plus());
  EXPECT_EQ(p.elements[2].chars, "b");
  EXPECT_TRUE(p.has_plus());
}

TEST(ParsePattern, PlusOnLiteral) {
  const Pattern p = parse_pattern("ab+");
  EXPECT_FALSE(p.elements[0].plus());
  EXPECT_TRUE(p.elements[1].plus());
}

TEST(ParsePattern, Escapes) {
  const Pattern p = parse_pattern(R"(\+\[\]a)");
  ASSERT_EQ(p.elements.size(), 4u);
  EXPECT_EQ(p.elements[0].chars, "+");
  EXPECT_EQ(p.elements[1].chars, "[");
  EXPECT_EQ(p.elements[2].chars, "]");
  EXPECT_EQ(p.elements[3].chars, "a");
}

TEST(ParsePattern, EscapeInsideClass) {
  const Pattern p = parse_pattern(R"([a\]b])");
  EXPECT_EQ(p.elements[0].chars, "a]b");
}

TEST(ParsePattern, Errors) {
  EXPECT_THROW(parse_pattern(""), std::invalid_argument);
  EXPECT_THROW(parse_pattern("+a"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("a++"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("a*?"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("*x"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("[ab"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("[]"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("ab]"), std::invalid_argument);
  EXPECT_THROW(parse_pattern("a\\"), std::invalid_argument);
}

TEST(ParsePattern, StarAndOptionalQuantifiers) {
  const Pattern p = parse_pattern("a*b?c");
  ASSERT_EQ(p.elements.size(), 3u);
  EXPECT_EQ(p.elements[0].quantifier, Quantifier::kStar);
  EXPECT_EQ(p.elements[1].quantifier, Quantifier::kOpt);
  EXPECT_EQ(p.elements[2].quantifier, Quantifier::kOne);
  EXPECT_EQ(p.min_length(), 1u);  // Only 'c' is mandatory.
  EXPECT_TRUE(p.has_plus());      // '*' counts as unbounded.
}

TEST(ParsePattern, EscapedQuantifiersAreLiterals) {
  const Pattern p = parse_pattern(R"(\*\?)");
  ASSERT_EQ(p.elements.size(), 2u);
  EXPECT_EQ(p.elements[0].chars, "*");
  EXPECT_EQ(p.elements[1].chars, "?");
  EXPECT_EQ(p.elements[0].quantifier, Quantifier::kOne);
}

TEST(ExpandToLength, ExactFitWithoutPlus) {
  const auto tokens = expand_to_length(parse_pattern("a[bc]d"), 3);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].chars, "a");
  EXPECT_EQ(tokens[1].chars, "bc");
  EXPECT_TRUE(tokens[1].is_class);
  EXPECT_EQ(tokens[2].chars, "d");
}

TEST(ExpandToLength, PlusAbsorbsExtras) {
  // Paper: "if we have the regex a[bc]+, and we are generating a string of
  // length 3 ... a literal, a character class, and another character class".
  const auto tokens = expand_to_length(parse_pattern("a[bc]+"), 3);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].chars, "a");
  EXPECT_EQ(tokens[1].chars, "bc");
  EXPECT_EQ(tokens[2].chars, "bc");
}

TEST(ExpandToLength, FirstPlusTakesExtras) {
  const auto tokens = expand_to_length(parse_pattern("a+b+"), 5);
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].chars, "a");
  EXPECT_EQ(tokens[1].chars, "a");
  EXPECT_EQ(tokens[2].chars, "a");
  EXPECT_EQ(tokens[3].chars, "a");
  EXPECT_EQ(tokens[4].chars, "b");
}

TEST(ExpandToLength, Errors) {
  EXPECT_THROW(expand_to_length(parse_pattern("abc"), 2),
               std::invalid_argument);
  EXPECT_THROW(expand_to_length(parse_pattern("abc"), 4),
               std::invalid_argument);
  EXPECT_NO_THROW(expand_to_length(parse_pattern("abc"), 3));
  // Optionals bound the maximum reachable length.
  EXPECT_THROW(expand_to_length(parse_pattern("a?b?"), 3),
               std::invalid_argument);
}

TEST(ExpandToLength, StarCanVanish) {
  const auto tokens = expand_to_length(parse_pattern("a*bc"), 2);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].chars, "b");
  EXPECT_EQ(tokens[1].chars, "c");
}

TEST(ExpandToLength, StarAbsorbsExtras) {
  const auto tokens = expand_to_length(parse_pattern("a*b"), 4);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].chars, "a");
  EXPECT_EQ(tokens[2].chars, "a");
  EXPECT_EQ(tokens[3].chars, "b");
}

TEST(ExpandToLength, OptionalsAbsorbOneEach) {
  const auto tokens = expand_to_length(parse_pattern("a?b?c"), 2);
  ASSERT_EQ(tokens.size(), 2u);
  // First optional takes the single extra slot.
  EXPECT_EQ(tokens[0].chars, "a");
  EXPECT_EQ(tokens[1].chars, "c");
}

// --- NFA ---------------------------------------------------------------------

struct MatchCase {
  const char* pattern;
  const char* input;
  bool expected;
};

// gtest prints a parameter into the test listing, and CMake's test
// discovery builds the ctest name from that printout. Without this overload
// gtest dumps the raw bytes of MatchCase, i.e. the load addresses of its
// string literals, so every build would list the cases under new names.
// Regex operators are spelled out to keep the names plain identifiers.
void PrintTo(const MatchCase& c, std::ostream* os) {
  const auto spell = [os](std::string_view text) {
    if (text.empty()) *os << "empty";
    for (const char ch : text) {
      switch (ch) {
        case '[': *os << "Set"; break;
        case ']': *os << "End"; break;
        case '+': *os << "Plus"; break;
        case '*': *os << "Star"; break;
        case '?': *os << "Opt"; break;
        default: *os << ch;
      }
    }
  };
  spell(c.pattern);
  *os << "_vs_";
  spell(c.input);
  *os << (c.expected ? "_match" : "_reject");
}

class NfaMatch : public ::testing::TestWithParam<MatchCase> {};

TEST_P(NfaMatch, FullMatch) {
  const auto& c = GetParam();
  EXPECT_EQ(full_match(c.pattern, c.input), c.expected)
      << c.pattern << " vs " << c.input;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NfaMatch,
    ::testing::Values(
        MatchCase{"abc", "abc", true}, MatchCase{"abc", "abd", false},
        MatchCase{"abc", "ab", false}, MatchCase{"abc", "abcc", false},
        MatchCase{"[bc]", "b", true}, MatchCase{"[bc]", "c", true},
        MatchCase{"[bc]", "d", false},
        // Paper §4.11 examples for a[tyz]+b.
        MatchCase{"a[tyz]+b", "atytyzb", true},
        MatchCase{"a[tyz]+b", "azb", true},
        MatchCase{"a[tyz]+b", "atyzb", true},
        MatchCase{"a[tyz]+b", "ab", false},
        MatchCase{"a[tyz]+b", "aqb", false},
        MatchCase{"a+", "aaaa", true}, MatchCase{"a+", "", false},
        MatchCase{"a+", "ab", false},
        MatchCase{"a[bc]+", "abcbb", true},  // Table 1 output.
        MatchCase{"a[bc]+", "a", false},
        // Star / optional extensions.
        MatchCase{"a*b", "b", true}, MatchCase{"a*b", "aaab", true},
        MatchCase{"a*b", "aaa", false}, MatchCase{"a?b", "b", true},
        MatchCase{"a?b", "ab", true}, MatchCase{"a?b", "aab", false},
        MatchCase{"[xy]*z?", "", true}, MatchCase{"[xy]*z?", "xyxz", true},
        MatchCase{"[xy]*z?", "xzz", false}));

TEST(Nfa, ShortestAcceptedLength) {
  EXPECT_EQ(Nfa::compile(parse_pattern("abc")).shortest_accepted_length(), 3u);
  EXPECT_EQ(Nfa::compile(parse_pattern("a+")).shortest_accepted_length(), 1u);
  EXPECT_EQ(Nfa::compile(parse_pattern("a[bc]+d")).shortest_accepted_length(),
            3u);
}

TEST(Nfa, MatchesEveryExpansionWitness) {
  // Property: a string built by picking any char from each expansion token
  // matches the pattern.
  for (const char* pattern : {"a[bc]+", "x+y", "[ab][cd]e+"}) {
    const Pattern parsed = parse_pattern(pattern);
    for (std::size_t length = parsed.min_length();
         length < parsed.min_length() + 4; ++length) {
      const auto tokens = expand_to_length(parsed, length);
      std::string first;
      std::string last;
      for (const auto& token : tokens) {
        first.push_back(token.chars.front());
        last.push_back(token.chars.back());
      }
      EXPECT_TRUE(full_match(pattern, first)) << pattern << " " << first;
      EXPECT_TRUE(full_match(pattern, last)) << pattern << " " << last;
    }
  }
}

}  // namespace
}  // namespace qsmt::regex
