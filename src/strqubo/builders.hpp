// QUBO builders: one function per string operation in paper §4.1-§4.11.
//
// Every generating formulation follows the paper's conventions: 7 bits per
// ASCII character (strenc::variable_index), penalty strength A = 1 by
// default, and diagonal entries -A where the target bit is 1 / +A where it
// is 0. Operations with structural constraints (includes, palindrome,
// one-hot regex classes) add quadratic penalty gadgets.
#pragma once

#include <optional>

#include "qubo/qubo_model.hpp"
#include "regex/pattern.hpp"
#include "strqubo/constraint.hpp"

namespace qsmt::strqubo {

/// How §4.11 character classes are encoded.
enum class RegexClassEncoding {
  /// Paper-faithful: each class character contributes ±A/|class| per bit.
  /// Bits on which class members disagree end up unbiased, so classes whose
  /// members differ in several bits can decode to characters outside the
  /// class (an artifact the ablation bench E6 measures).
  kPaperAveraged,
  /// Extension: one selector variable per class character with a one-hot
  /// penalty; the selected character's bit pattern is enforced exactly.
  kOneHotSelectors,
};

struct BuildOptions {
  /// Penalty strength A (paper: "we set A to be 1").
  double strength = 1.0;
  /// B — quadratic one-hot penalty for the includes formulation (§4.4).
  double one_hot_penalty = 2.0;
  /// D — increment of the cumulative first-match preference C_i (§4.4).
  double first_match_increment = 0.5;
  /// Uniform per-position selection cost θ added to every includes diagonal.
  /// The paper's objective alone makes selecting a zero-match position free
  /// (ties with "no occurrence") and can prefer pairs of matches over one;
  /// θ = A(m - 1/2), the default when unset, makes the ground state exactly
  /// "first full match, or nothing". Set to 0 for the paper's literal
  /// objective (documented in DESIGN.md).
  std::optional<double> includes_selection_cost;
  /// IndexOf (§4.5): multiplier for the "stronger" constraints at the fixed
  /// substring window (paper suggests 2x).
  double strong_multiplier = 2.0;
  /// IndexOf (§4.5): weight of the "softer" constraints at free positions
  /// (paper suggests 0.1x). Applied as a bias toward the 11xxxxx bit prefix
  /// so free positions decode to letters (ASCII 96-127).
  double soft_weight = 0.1;
  /// Palindrome (§4.10): optional soft bias toward the letter bit-prefix at
  /// every position; 0 is the paper-faithful pure mirror formulation.
  double palindrome_printable_bias = 0.0;
  RegexClassEncoding regex_encoding = RegexClassEncoding::kPaperAveraged;
};

/// §4.1 — diagonal-only 7n x 7n model whose unique ground state encodes
/// `target` (ground energy -A x number of 1-bits in the target encoding).
qubo::QuboModel build_equality(const std::string& target,
                               const BuildOptions& options = {});

/// §4.2 — equality against lhs + rhs.
qubo::QuboModel build_concat(const std::string& lhs, const std::string& rhs,
                             const BuildOptions& options = {});

/// §4.3 — substring encoded at every start position, later overwriting
/// earlier; positions never covered stay unconstrained.
qubo::QuboModel build_substring_match(std::size_t length,
                                      const std::string& substring,
                                      const BuildOptions& options = {});

/// §4.4 — model over n-m+1 position variables; ground state sets x_i = 1 at
/// the first index where substring matches text.
qubo::QuboModel build_includes(const std::string& text,
                               const std::string& substring,
                               const BuildOptions& options = {});

/// §4.5 — strong ±(strong_multiplier * A) at the substring window, soft
/// letter-prefix bias elsewhere.
qubo::QuboModel build_index_of(std::size_t length, const std::string& substring,
                               std::size_t index,
                               const BuildOptions& options = {});

/// §4.6 — paper-faithful bit-prefix length formulation: diagonal -A for the
/// first 7 * desired_length variables, +A for the rest.
qubo::QuboModel build_length(std::size_t string_length,
                             std::size_t desired_length,
                             const BuildOptions& options = {});

/// Extension (documented in DESIGN.md): length L over printable strings —
/// the first L characters are biased toward letters and the tail is pinned
/// to NUL, which composes with other generating constraints.
qubo::QuboModel build_length_printable(std::size_t string_length,
                                       std::size_t desired_length,
                                       const BuildOptions& options = {});

/// §4.7 — encode `input` with all occurrences of `from` replaced by `to`.
qubo::QuboModel build_replace_all(const std::string& input, char from, char to,
                                  const BuildOptions& options = {});

/// §4.8 — encode `input` with only the first occurrence replaced.
qubo::QuboModel build_replace(const std::string& input, char from, char to,
                              const BuildOptions& options = {});

/// §4.9 — encode the reverse of `input`.
qubo::QuboModel build_reverse(const std::string& input,
                              const BuildOptions& options = {});

/// §4.10 — mirrored-bit XNOR gadgets; middle character free for odd length.
qubo::QuboModel build_palindrome(std::size_t length,
                                 const BuildOptions& options = {});

/// §4.11 — literal/class/plus pattern expanded to `length` positions.
/// With kOneHotSelectors the model gains selector variables appended after
/// the 7 * length string bits (layout documented in regex_selector_base()).
qubo::QuboModel build_regex(const std::string& pattern, std::size_t length,
                            const BuildOptions& options = {});

/// First selector variable index for one-hot regex models (== 7 * length).
std::size_t regex_selector_base(std::size_t length);

/// Extension — `ch` pinned at `index` (strong), soft letter bias elsewhere.
/// The SMT-LIB front end maps (= (str.at x k) "c") here.
qubo::QuboModel build_char_at(std::size_t length, std::size_t index, char ch,
                              const BuildOptions& options = {});

/// Extension — negative containment. Every window of |substring| characters
/// gets a quadratized "spells the substring" indicator (ancillas appended
/// after the 7 * length string bits) whose activation costs
/// 2 * strong_multiplier * A; free positions get the soft letter bias so
/// the output decodes to letters. See qubo/quadratization.hpp.
qubo::QuboModel build_not_contains(std::size_t length,
                                   const std::string& substring,
                                   const BuildOptions& options = {});

/// Extension — bounded content length over a NUL-padded buffer. One-hot
/// length selectors s_k (k in [min_length, max_length], appended after the
/// 7 * capacity string bits) couple every position to letter content below
/// k and NUL at/above k; a per-selector neutraliser keeps all lengths at
/// equal ground energy (0), so the annealer picks length and content
/// jointly and uniformly. The production replacement for §4.6.
qubo::QuboModel build_bounded_length(std::size_t capacity,
                                     std::size_t min_length,
                                     std::size_t max_length,
                                     const BuildOptions& options = {});

/// Dispatches on the constraint alternative to the builder above.
qubo::QuboModel build(const Constraint& constraint,
                      const BuildOptions& options = {});

/// Known ground-state energy of a generating formulation where available
/// (diagonal formulations: sum of negative diagonal entries; palindrome/
/// includes: see implementation). Used by benches for success accounting.
double expected_ground_energy(const Constraint& constraint,
                              const BuildOptions& options = {});

/// Deterministic fingerprint of every BuildOptions field that changes a
/// built QUBO ('\x1f'-separated). Shared by the incremental fragment cache
/// (strqubo::fragment_key) and the canonical answer cache (src/canon), so
/// both layers agree on when two solves were configured identically.
std::string options_fingerprint(const BuildOptions& options);

}  // namespace qsmt::strqubo
