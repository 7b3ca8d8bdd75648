#include "smtlib/sexpr.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

namespace qsmt::smtlib {

SExpr SExpr::symbol(std::string s) {
  SExpr e;
  e.kind = Kind::kSymbol;
  e.atom = std::move(s);
  return e;
}

SExpr SExpr::string(std::string s) {
  SExpr e;
  e.kind = Kind::kString;
  e.atom = std::move(s);
  return e;
}

SExpr SExpr::number(std::int64_t n) {
  SExpr e;
  e.kind = Kind::kNumeral;
  e.numeral = n;
  return e;
}

SExpr SExpr::make_list(SList items) {
  SExpr e;
  e.kind = Kind::kList;
  e.list = std::move(items);
  return e;
}

namespace {

class Reader {
 public:
  explicit Reader(std::string_view input) : input_(input) {}

  std::vector<SExpr> read_all() {
    std::vector<SExpr> out;
    skip_space();
    while (!at_end()) {
      out.push_back(read_expr());
      skip_space();
    }
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::ostringstream out;
    out << "smtlib parse error (line " << line_ << "): " << message;
    throw std::invalid_argument(out.str());
  }

  bool at_end() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  char advance() {
    const char c = input_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  void skip_space() {
    while (!at_end()) {
      const char c = peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == ';') {
        while (!at_end() && peek() != '\n') advance();
      } else {
        break;
      }
    }
  }

  SExpr read_expr() {
    const char c = peek();
    if (c == '(') return read_list();
    if (c == ')') fail("unexpected ')'");
    if (c == '"') return read_string();
    return read_atom();
  }

  SExpr read_list() {
    if (depth_ == kMaxSexprDepth) {
      fail("lists nested deeper than " + std::to_string(kMaxSexprDepth));
    }
    advance();  // consume '('
    ++depth_;
    SList items;
    while (true) {
      skip_space();
      if (at_end()) fail("unterminated '('");
      if (peek() == ')') {
        advance();
        --depth_;
        return SExpr::make_list(std::move(items));
      }
      items.push_back(read_expr());
    }
  }

  SExpr read_string() {
    advance();  // consume opening quote
    std::string value;
    while (true) {
      if (at_end()) fail("unterminated string literal");
      const char c = advance();
      if (c == '"') {
        // SMT-LIB 2.6: "" inside a string denotes a single quote.
        if (!at_end() && peek() == '"') {
          advance();
          value.push_back('"');
          continue;
        }
        return SExpr::string(std::move(value));
      }
      value.push_back(c);
    }
  }

  SExpr read_atom() {
    std::string text;
    while (!at_end()) {
      const char c = peek();
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
          c == ')' || c == ';' || c == '"') {
        break;
      }
      text.push_back(advance());
    }
    if (text.empty()) fail("empty atom");
    // Numeral: optional minus then digits only.
    const bool negative = text[0] == '-' && text.size() > 1;
    const std::size_t digits_from = negative ? 1 : 0;
    bool all_digits = text.size() > digits_from;
    for (std::size_t i = digits_from; i < text.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
        all_digits = false;
        break;
      }
    }
    if (all_digits) {
      try {
        return SExpr::number(std::stoll(text));
      } catch (const std::out_of_range&) {
        fail("numeral out of range: " + text);
      }
    }
    return SExpr::symbol(std::move(text));
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t depth_ = 0;  // Lists currently open.
};

void append(std::string& out, const SExpr& expr) {
  switch (expr.kind) {
    case SExpr::Kind::kSymbol:
      out += expr.atom;
      break;
    case SExpr::Kind::kNumeral:
      out += std::to_string(expr.numeral);
      break;
    case SExpr::Kind::kString: {
      out += '"';
      for (char c : expr.atom) {
        out += c;
        if (c == '"') out += '"';
      }
      out += '"';
      break;
    }
    case SExpr::Kind::kList: {
      out += '(';
      for (std::size_t i = 0; i < expr.list.size(); ++i) {
        if (i > 0) out += ' ';
        append(out, expr.list[i]);
      }
      out += ')';
      break;
    }
  }
}

}  // namespace

std::vector<SExpr> parse_sexprs(std::string_view input) {
  return Reader(input).read_all();
}

std::string to_string(const SExpr& expr) {
  std::string out;
  append(out, expr);
  return out;
}

}  // namespace qsmt::smtlib
