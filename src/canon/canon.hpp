// Alpha-equivalence canonicalizer for answer-cache keys.
//
// Millions of users means floods of structurally identical queries whose
// only differences are variable names and the order in which commutative
// arguments were written. The answer cache (answer_cache.hpp) memoizes
// *verdicts*, so its key must erase exactly those differences and nothing
// else:
//
//  * canonicalize_script — parses one SMT-LIB script, normalizes
//    commutative/symmetric argument orders (and/or flattened and sorted,
//    =/distinct/re.union operands sorted) with variables name-erased during
//    comparison, sorts the assertion sequence by its name-erased printed
//    form, then renames every declared variable to a positional normal form
//    (first-use order over the sorted assertion sequence). Two
//    alpha-equivalent scripts — same assertions up to variable names,
//    assertion order, and commutative argument order — produce byte-equal
//    canonical text; the inverse renaming lets a cached witness's variable
//    be reported under the querying script's own name.
//  * constraint_answer_key / script_answer_key — the full cache keys: the
//    canonical form joined with the strqubo::options_fingerprint of the
//    job's BuildOptions (PR 8's fragment-key machinery), because a verdict
//    is only reusable under the solve configuration that produced it. Keys
//    are full canonical strings, not lossy hashes: a key match proves
//    structural identity, so replaying a cached UNSAT is sound.
//
// Scripts outside the single-check-sat assertion fragment (push/pop,
// check-sat-assuming, reset, get-model/get-value, echo, multiple or
// missing check-sats, undeclared variables) are marked not cacheable and
// bypass the answer cache entirely — canonicalization never guesses.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "smtlib/ast.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"

namespace qsmt::canon {

/// Canonical alpha-equivalence form of one SMT-LIB script.
struct CanonicalScript {
  /// False when the script is outside the cacheable fragment; `note` says
  /// why and every other field is unspecified.
  bool cacheable = false;
  std::string note;
  /// Canonical renamed/normalized script text (declare-consts in canonical
  /// name order, assertions in name-erased sorted order, one check-sat).
  std::string text;
  /// original name -> canonical name, one pair per declared variable.
  std::vector<std::pair<std::string, std::string>> renaming;
  /// The script's original declarations and assertions (unrenamed), kept so
  /// a cache hit can be verified against — and a completed solve checked
  /// into the cache from — the querying script itself.
  std::map<std::string, smtlib::Sort> declared;
  std::vector<smtlib::TermPtr> assertions;
};

/// Canonicalizes one SMT-LIB script. Never throws: parse errors come back
/// as cacheable == false.
CanonicalScript canonicalize_script(const std::string& script);

/// Canonical-to-original lookup over `renaming` (empty string when the
/// canonical name is unknown — e.g. an entry written by a script with more
/// variables).
std::string original_name(const CanonicalScript& canonical,
                          const std::string& canonical_name);

/// Original-to-canonical lookup over `renaming` (empty string when
/// unknown).
std::string canonical_name(const CanonicalScript& canonical,
                           const std::string& original_name);

/// Normalizes one term: commutative/symmetric operators (`and`, `or`,
/// `=`, `distinct`, `re.union`) get their arguments flattened (for the
/// associative ones) and stably sorted by name-erased printed form.
/// Deterministic and idempotent; variables are untouched.
smtlib::TermPtr normalize_term(const smtlib::TermPtr& term);

/// Renders `term` with every variable name replaced by "?" — the
/// name-independent ordering key the canonicalizer sorts by.
std::string erased_print(const smtlib::TermPtr& term);

/// Answer key of a constraint set under `options`: sorted, deduplicated
/// structure keys (conjunction satisfaction is set-based, so order and
/// multiplicity are erased) joined with the options fingerprint. Constraint
/// payloads carry no variable names, so alpha-equivalence is free here.
std::string constraint_answer_key(
    const std::vector<strqubo::Constraint>& constraints,
    const strqubo::BuildOptions& options);

/// Single-constraint convenience.
std::string constraint_answer_key(const strqubo::Constraint& constraint,
                                  const strqubo::BuildOptions& options);

/// Answer key of a cacheable canonical script under `options`. Returns ""
/// when `canonical.cacheable` is false.
std::string script_answer_key(const CanonicalScript& canonical,
                              const strqubo::BuildOptions& options);

/// The same keys from a precomputed strqubo::options_fingerprint, byte-
/// identical to the overloads above: a caller that keys many jobs under one
/// BuildOptions (the SolveService) formats the fingerprint once.
std::string constraint_answer_key(
    const std::vector<strqubo::Constraint>& constraints,
    std::string_view fingerprint);
std::string script_answer_key(const CanonicalScript& canonical,
                              std::string_view fingerprint);

}  // namespace qsmt::canon
