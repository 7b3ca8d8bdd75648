#include "canon/canon.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "smtlib/parser.hpp"

namespace qsmt::canon {

namespace {

using smtlib::Term;
using smtlib::TermPtr;

/// Rebuilds `term` with every variable name mapped through `rename`.
/// Shares unchanged subtrees (terms are immutable shared_ptrs).
TermPtr map_variables(
    const TermPtr& term,
    const std::function<std::string(const std::string&)>& rename) {
  if (!term) return term;
  if (term->kind == Term::Kind::kVariable) {
    std::string mapped = rename(term->atom);
    if (mapped == term->atom) return term;
    return Term::variable(std::move(mapped));
  }
  if (term->kind != Term::Kind::kApply) return term;
  bool changed = false;
  std::vector<TermPtr> args;
  args.reserve(term->args.size());
  for (const TermPtr& arg : term->args) {
    TermPtr mapped = map_variables(arg, rename);
    changed |= mapped != arg;
    args.push_back(std::move(mapped));
  }
  if (!changed) return term;
  return Term::apply(term->atom, std::move(args));
}

bool is_commutative(const std::string& op) {
  return op == "and" || op == "or" || op == "=" || op == "distinct" ||
         op == "re.union";
}

/// `and`/`or` are associative as well: nested same-op applications flatten
/// into one argument list before sorting.
bool is_associative(const std::string& op) {
  return op == "and" || op == "or" || op == "re.union";
}

/// Collects every variable name in first-use (depth-first, argument-order)
/// order.
void collect_first_use(const TermPtr& term, std::vector<std::string>& order,
                       std::set<std::string>& seen) {
  if (!term) return;
  if (term->kind == Term::Kind::kVariable) {
    if (seen.insert(term->atom).second) order.push_back(term->atom);
    return;
  }
  for (const TermPtr& arg : term->args) collect_first_use(arg, order, seen);
}

/// True when every variable occurring in `term` is in `declared`.
bool variables_declared(const TermPtr& term,
                        const std::map<std::string, smtlib::Sort>& declared) {
  if (!term) return true;
  if (term->kind == Term::Kind::kVariable) {
    return declared.count(term->atom) != 0;
  }
  for (const TermPtr& arg : term->args) {
    if (!variables_declared(arg, declared)) return false;
  }
  return true;
}

}  // namespace

std::string erased_print(const TermPtr& term) {
  return smtlib::to_string(
      map_variables(term, [](const std::string&) { return "?"; }));
}

TermPtr normalize_term(const TermPtr& term) {
  if (!term || term->kind != Term::Kind::kApply) return term;
  std::vector<TermPtr> args;
  args.reserve(term->args.size());
  for (const TermPtr& arg : term->args) {
    TermPtr normalized = normalize_term(arg);
    if (is_associative(term->atom) && normalized &&
        normalized->is_apply(term->atom)) {
      args.insert(args.end(), normalized->args.begin(),
                  normalized->args.end());
    } else {
      args.push_back(std::move(normalized));
    }
  }
  if (is_commutative(term->atom)) {
    // Stable sort on the name-erased print: alpha-variant scripts present
    // erased-equal arguments in the same positional order, so ties resolve
    // identically for both and the canonical forms still collide.
    std::stable_sort(args.begin(), args.end(),
                     [](const TermPtr& a, const TermPtr& b) {
                       return erased_print(a) < erased_print(b);
                     });
  }
  return Term::apply(term->atom, std::move(args));
}

CanonicalScript canonicalize_script(const std::string& script) {
  CanonicalScript result;
  std::vector<smtlib::Command> commands;
  try {
    commands = smtlib::parse_script(script);
  } catch (const std::exception& error) {
    result.note = std::string("parse error: ") + error.what();
    return result;
  }

  std::size_t check_sats = 0;
  std::vector<std::string> declaration_order;
  for (const smtlib::Command& command : commands) {
    if (const auto* declare = std::get_if<smtlib::DeclareConst>(&command)) {
      if (check_sats > 0) {
        result.note = "declaration after check-sat";
        return result;
      }
      if (!result.declared.emplace(declare->name, declare->sort).second) {
        result.note = "duplicate declaration";
        return result;
      }
      declaration_order.push_back(declare->name);
    } else if (const auto* assert_cmd =
                   std::get_if<smtlib::AssertCmd>(&command)) {
      if (check_sats > 0) {
        result.note = "assertion after check-sat";
        return result;
      }
      result.assertions.push_back(assert_cmd->term);
    } else if (std::holds_alternative<smtlib::CheckSat>(command)) {
      ++check_sats;
    } else if (std::holds_alternative<smtlib::SetLogic>(command) ||
               std::holds_alternative<smtlib::SetOption>(command) ||
               std::holds_alternative<smtlib::SetInfo>(command) ||
               std::holds_alternative<smtlib::ExitCmd>(command)) {
      // Verdict-neutral; erased from the canonical form.
    } else {
      // push/pop, check-sat-assuming, reset, get-model, get-value, echo:
      // stateful or output-bearing commands whose replies a single cached
      // verdict cannot stand in for.
      result.note = "command outside the cacheable fragment";
      return result;
    }
  }
  if (check_sats != 1) {
    result.note = check_sats == 0 ? "no check-sat" : "multiple check-sats";
    return result;
  }
  for (const TermPtr& assertion : result.assertions) {
    if (!variables_declared(assertion, result.declared)) {
      result.note = "undeclared variable";
      return result;
    }
  }

  // Normalize every assertion, then sort the sequence by its name-erased
  // print. The sort is stable, so assertions that erase identically keep
  // their original relative order — which alpha-variant scripts share.
  std::vector<TermPtr> normalized;
  normalized.reserve(result.assertions.size());
  for (const TermPtr& assertion : result.assertions) {
    normalized.push_back(normalize_term(assertion));
  }
  std::stable_sort(normalized.begin(), normalized.end(),
                   [](const TermPtr& a, const TermPtr& b) {
                     return erased_print(a) < erased_print(b);
                   });

  // Canonical names by first use over the sorted sequence; variables never
  // used in an assertion follow in declaration order (positional, so
  // alpha-variants still agree).
  std::vector<std::string> first_use;
  std::set<std::string> seen;
  for (const TermPtr& assertion : normalized) {
    collect_first_use(assertion, first_use, seen);
  }
  for (const std::string& name : declaration_order) {
    if (seen.insert(name).second) first_use.push_back(name);
  }
  std::unordered_map<std::string, std::string> rename;
  result.renaming.reserve(first_use.size());
  for (std::size_t i = 0; i < first_use.size(); ++i) {
    std::string canonical = "v" + std::to_string(i);
    rename.emplace(first_use[i], canonical);
    result.renaming.emplace_back(first_use[i], std::move(canonical));
  }

  std::string text;
  for (std::size_t i = 0; i < first_use.size(); ++i) {
    text += "(declare-const " + result.renaming[i].second + " " +
            smtlib::sort_name(result.declared.at(first_use[i])) + ")\n";
  }
  const auto apply_rename = [&rename](const std::string& name) {
    const auto it = rename.find(name);
    return it == rename.end() ? name : it->second;
  };
  for (const TermPtr& assertion : normalized) {
    text += "(assert " +
            smtlib::to_string(map_variables(assertion, apply_rename)) + ")\n";
  }
  text += "(check-sat)\n";
  result.text = std::move(text);
  result.cacheable = true;
  return result;
}

std::string original_name(const CanonicalScript& canonical,
                          const std::string& canonical_name) {
  for (const auto& [original, renamed] : canonical.renaming) {
    if (renamed == canonical_name) return original;
  }
  return "";
}

std::string canonical_name(const CanonicalScript& canonical,
                           const std::string& original_name) {
  for (const auto& [original, renamed] : canonical.renaming) {
    if (original == original_name) return renamed;
  }
  return "";
}

std::string constraint_answer_key(
    const std::vector<strqubo::Constraint>& constraints,
    std::string_view fingerprint) {
  std::vector<std::string> keys;
  keys.reserve(constraints.size());
  for (const strqubo::Constraint& constraint : constraints) {
    keys.push_back(strqubo::structure_key(constraint));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string out = "qsmt-answer-constraints";
  for (const std::string& key : keys) {
    out += '\x1d';
    out += key;
  }
  out += '\x1e';
  out += fingerprint;
  return out;
}

std::string constraint_answer_key(
    const std::vector<strqubo::Constraint>& constraints,
    const strqubo::BuildOptions& options) {
  return constraint_answer_key(constraints,
                               strqubo::options_fingerprint(options));
}

std::string constraint_answer_key(const strqubo::Constraint& constraint,
                                  const strqubo::BuildOptions& options) {
  return constraint_answer_key(std::vector<strqubo::Constraint>{constraint},
                               options);
}

std::string script_answer_key(const CanonicalScript& canonical,
                              std::string_view fingerprint) {
  if (!canonical.cacheable) return "";
  std::string out = "qsmt-answer-script\x1d";
  out += canonical.text;
  out += '\x1e';
  out += fingerprint;
  return out;
}

std::string script_answer_key(const CanonicalScript& canonical,
                              const strqubo::BuildOptions& options) {
  if (!canonical.cacheable) return "";
  return script_answer_key(canonical, strqubo::options_fingerprint(options));
}

}  // namespace qsmt::canon
