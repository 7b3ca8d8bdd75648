// S-expression reader for the SMT-LIB v2 concrete syntax (paper §2.1.1:
// "The SMT-LIB format uses a LISP-like prefix notation").
//
// Supports symbols, decimal numerals, SMT-LIB 2.6 string literals
// ("" escapes a quote inside a string), parenthesised lists, and ';'
// line comments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace qsmt::smtlib {

struct SExpr;

using SList = std::vector<SExpr>;

struct SExpr {
  // Exactly one alternative is meaningful, tagged by `kind`.
  enum class Kind { kSymbol, kString, kNumeral, kList };
  Kind kind = Kind::kList;
  std::string atom;      ///< Symbol text or decoded string literal.
  std::int64_t numeral = 0;
  SList list;

  bool is_symbol(std::string_view s) const {
    return kind == Kind::kSymbol && atom == s;
  }
  bool is_list() const { return kind == Kind::kList; }

  static SExpr symbol(std::string s);
  static SExpr string(std::string s);
  static SExpr number(std::int64_t n);
  static SExpr make_list(SList items);
};

/// Deepest list nesting parse_sexprs accepts. The reader and every term
/// walker after it recurse once per level, so an input nested deeper than
/// this is rejected as a parse error instead of exhausting the stack.
inline constexpr std::size_t kMaxSexprDepth = 1000;

/// Parses a whole input into the sequence of top-level s-expressions.
/// Throws std::invalid_argument with a line number on malformed input
/// (unbalanced parens, unterminated string, stray ')', lists nested deeper
/// than kMaxSexprDepth).
std::vector<SExpr> parse_sexprs(std::string_view input);

/// Renders an s-expression back to SMT-LIB concrete syntax.
std::string to_string(const SExpr& expr);

}  // namespace qsmt::smtlib
