// Constraint IR: one value type per string operation the paper's solver
// supports (§4.1-§4.11). The QUBO builders (builders.hpp), the classical
// verifier (verify.hpp), the classical baseline solver (src/baseline) and
// the SMT-LIB compiler (src/smtlib) all speak this IR.
#pragma once

#include <cstddef>
#include <string>
#include <variant>

namespace qsmt::strqubo {

/// §4.1 — generate a string S equal to `target`.
struct Equality {
  std::string target;
};

/// §4.2 — generate the concatenation of `lhs` and `rhs`.
struct Concat {
  std::string lhs;
  std::string rhs;
};

/// §4.3 — generate a string of `length` containing `substring` (encoded at
/// every start position; later encodings overwrite earlier ones).
struct SubstringMatch {
  std::size_t length;
  std::string substring;
};

/// §4.4 — decide where, in `text`, `substring` begins (position variables,
/// not string generation).
struct Includes {
  std::string text;
  std::string substring;
};

/// §4.5 — generate a string of `length` with `substring` at `index`;
/// remaining positions are softly biased toward letters.
struct IndexOf {
  std::size_t length;
  std::string substring;
  std::size_t index;
};

/// §4.6 — the paper's bit-prefix length check over a string of
/// `string_length` characters: first 7*`desired_length` bits 1, rest 0.
struct Length {
  std::size_t string_length;
  std::size_t desired_length;
};

/// §4.7 — generate `input` with every occurrence of `from` replaced by `to`.
struct ReplaceAll {
  std::string input;
  char from;
  char to;
};

/// §4.8 — generate `input` with the first occurrence of `from` replaced.
struct Replace {
  std::string input;
  char from;
  char to;
};

/// §4.9 — generate the reverse of `input`.
struct Reverse {
  std::string input;
};

/// §4.10 — generate a palindrome of `length` (mirrored-bit XNOR gadgets).
struct Palindrome {
  std::size_t length;
};

/// §4.11 — generate a string of `length` matching `pattern` (literals,
/// character classes, '+').
struct RegexMatch {
  std::string pattern;
  std::size_t length;
};

/// Extension (paper §6 future work: "more formulations ... for other string
/// constraints") — generate a string of `length` with `ch` at `index`;
/// remaining positions are softly biased toward letters.
struct CharAt {
  std::size_t length;
  std::size_t index;
  char ch;
};

/// Extension — generate a string of `length` that does NOT contain
/// `substring`. A negative constraint needs higher-order penalties: each
/// window's "spells the substring" indicator is quadratized with ancilla
/// variables (see qubo/quadratization.hpp), making this the one operation
/// whose QUBO grows auxiliary variables beyond the 7n string bits.
struct NotContains {
  std::size_t length;
  std::string substring;
};

/// Extension — generate a NUL-padded buffer of `capacity` characters whose
/// content length (position of the first NUL) lies in
/// [min_length, max_length]. One-hot length-selector variables couple each
/// position to "letter content" below the chosen length and NUL at/above
/// it, so the annealer picks the length and the content together — the
/// production replacement for the paper's bit-prefix Length form (§4.6).
struct BoundedLength {
  std::size_t capacity;
  std::size_t min_length;
  std::size_t max_length;
};

using Constraint =
    std::variant<Equality, Concat, SubstringMatch, Includes, IndexOf, Length,
                 ReplaceAll, Replace, Reverse, Palindrome, RegexMatch, CharAt,
                 NotContains, BoundedLength>;

/// Short operation name ("equality", "includes", ...) for reports.
std::string constraint_name(const Constraint& constraint);

/// One-line human-readable description ("reverse 'hello'", ...).
std::string describe(const Constraint& constraint);

/// Number of QUBO variables the builder will allocate for this constraint.
std::size_t constraint_num_variables(const Constraint& constraint);

/// True when solving yields a generated string (everything except Includes,
/// which yields a position).
bool produces_string(const Constraint& constraint);

/// Exact structural key: enumerates every field of every variant with
/// unambiguous separators, so two constraints share a key iff they build
/// the same QUBO under fixed build options. describe() is for humans and
/// may collide (or change); this is the cache key used by the service's
/// prepared-model cache and the incremental fragment cache.
std::string structure_key(const Constraint& constraint);

}  // namespace qsmt::strqubo
