#include "sat/dpllt.hpp"

#include "sat/tseitin.hpp"
#include "strqubo/verify.hpp"

namespace qsmt::sat {

namespace {

using smtlib::CheckSatStatus;

/// Does `atom`, interpreted over `variable`/`length`, hold on `witness`?
/// Returns std::nullopt when the atom cannot be evaluated classically.
std::optional<bool> atom_holds_on(const smtlib::TermPtr& atom,
                                  const std::string& variable,
                                  const std::string& witness) {
  // Ground atom: fold classically.
  if (auto ground = smtlib::evaluate_ground(atom)) {
    if (const bool* b = std::get_if<bool>(&*ground)) return *b;
    return std::nullopt;
  }
  // Length fact.
  if (atom->is_apply("=") && atom->args.size() == 2) {
    for (int flip = 0; flip < 2; ++flip) {
      const auto& lhs = atom->args[flip == 0 ? 0 : 1];
      const auto& rhs = atom->args[flip == 0 ? 1 : 0];
      if (lhs && lhs->is_apply("str.len") && lhs->args.size() == 1 &&
          lhs->args[0]->kind == smtlib::Term::Kind::kVariable &&
          lhs->args[0]->atom == variable &&
          rhs->kind == smtlib::Term::Kind::kIntLit) {
        return static_cast<std::int64_t>(witness.size()) == rhs->int_value;
      }
    }
  }
  std::string error;
  const auto constraint =
      smtlib::compile_atom(atom, variable, witness.size(), error);
  if (!constraint) return std::nullopt;
  return strqubo::verify_string(*constraint, witness);
}

}  // namespace

DpllTSolver::DpllTSolver(const anneal::Sampler& sampler,
                         strqubo::BuildOptions options, Params params)
    : sampler_(&sampler), options_(options), params_(params) {}

DpllTResult DpllTSolver::solve(
    const std::vector<smtlib::TermPtr>& assertions,
    const std::map<std::string, smtlib::Sort>& declared) const {
  return solve(assertions, {}, declared, nullptr);
}

DpllTResult DpllTSolver::solve(
    const std::vector<smtlib::TermPtr>& assertions,
    const std::vector<smtlib::TermPtr>& assumptions,
    const std::map<std::string, smtlib::Sort>& declared,
    smtlib::SolveContext* context) const {
  DpllTResult result;

  CdclSolver sat;
  TseitinEncoder encoder(sat);
  for (const auto& assertion : assertions) encoder.assert_term(assertion);

  // Assumptions are encoded (their defining clauses are valid regardless of
  // the assumed truth value) but NOT asserted: their literals are handed to
  // the CDCL engine as forced first decisions instead.
  std::vector<Literal> assumption_lits;
  assumption_lits.reserve(assumptions.size());
  for (const auto& assumption : assumptions) {
    assumption_lits.push_back(encoder.encode(assumption));
  }

  // Re-add remembered exact lemmas whose atoms all exist in this encoding.
  // Content keying by printed atom form makes this sound across calls even
  // though the SAT variable numbering is fresh each time.
  if (context != nullptr) {
    for (const auto& lemma : context->clause_memory().lemmas()) {
      std::vector<Literal> clause;
      clause.reserve(lemma.literals.size());
      bool all_present = true;
      for (const auto& [printed, positive] : lemma.literals) {
        const std::int32_t v = encoder.find_atom_variable(printed);
        if (v == 0) {
          all_present = false;
          break;
        }
        clause.push_back(positive ? v : -v);
      }
      if (!all_present) continue;
      sat.add_clause(std::move(clause));
      ++result.lemmas_retained;
    }
    context->tallies().clauses_retained.add(result.lemmas_retained);
  }

  // When blocking clauses are only approximations of theory conflicts
  // (annealer gave up), a final boolean UNSAT proves nothing.
  bool all_blocks_exact = true;

  for (std::size_t round = 0; round < params_.max_rounds; ++round) {
    if (sat.solve(assumption_lits) == SolveStatus::kUnsat) {
      result.status = all_blocks_exact ? CheckSatStatus::kUnsat
                                       : CheckSatStatus::kUnknown;
      if (!all_blocks_exact) {
        result.notes.push_back(
            "boolean skeleton exhausted, but some assignments were blocked "
            "heuristically");
      }
      result.sat_stats = sat.stats();
      return result;
    }
    ++result.theory_rounds;

    // Split atoms by their boolean value in this model.
    std::vector<smtlib::TermPtr> true_atoms;
    std::vector<std::size_t> atom_indices_true;
    for (std::size_t a = 0; a < encoder.atoms().size(); ++a) {
      if (sat.value(encoder.atom_variable(a))) {
        true_atoms.push_back(encoder.atoms()[a]);
        atom_indices_true.push_back(a);
      }
    }

    auto block_assignment = [&](bool exact) {
      all_blocks_exact &= exact;
      std::vector<Literal> clause;
      clause.reserve(encoder.atoms().size());
      std::vector<std::pair<std::string, bool>> lemma;
      if (exact && context != nullptr) lemma.reserve(encoder.atoms().size());
      for (std::size_t a = 0; a < encoder.atoms().size(); ++a) {
        const std::int32_t v = encoder.atom_variable(a);
        const bool now_true = sat.value(v);
        clause.push_back(now_true ? -v : v);
        if (exact && context != nullptr) {
          lemma.emplace_back(smtlib::to_string(encoder.atoms()[a]), !now_true);
        }
      }
      // Only exact conflicts are sound in later calls; heuristic blocks
      // (the annealer merely gave up) die with this solve.
      if (exact && context != nullptr) {
        context->clause_memory().remember(context->depth(), std::move(lemma));
      }
      sat.add_clause(std::move(clause));
    };

    const smtlib::CompiledQuery query =
        smtlib::compile_assertions(true_atoms, declared);
    if (!query.falsified_ground.empty()) {
      // Ground conflict: this assignment is genuinely theory-inconsistent.
      block_assignment(/*exact=*/true);
      continue;
    }
    if (!query.unsupported.empty()) {
      for (const auto& note : query.unsupported) result.notes.push_back(note);
      block_assignment(/*exact=*/false);
      continue;
    }

    // Witnesses must also FALSIFY every atom assigned false; feeding that
    // requirement into the sample scan (rather than only post-checking)
    // keeps branches alive when the lowest-energy witness happens to
    // coincide with a negated equality.
    std::vector<smtlib::TermPtr> false_atoms;
    for (std::size_t a = 0; a < encoder.atoms().size(); ++a) {
      if (!sat.value(encoder.atom_variable(a))) {
        false_atoms.push_back(encoder.atoms()[a]);
      }
    }
    const std::string variable = query.variable;
    const auto accept = [&](const std::string& witness) {
      for (const auto& atom : false_atoms) {
        const auto holds = atom_holds_on(atom, variable, witness);
        if (holds.has_value() && *holds) return false;
      }
      return true;
    };

    const smtlib::ConjunctionResult theory = smtlib::solve_conjunction(
        query.constraints, *sampler_, options_, accept);
    if (!theory.solved) {
      result.notes.push_back(theory.note);
      block_assignment(/*exact=*/false);
      continue;
    }

    // The witness must also falsify every atom assigned false.
    bool witness_consistent = true;
    for (std::size_t a = 0; a < encoder.atoms().size(); ++a) {
      if (sat.value(encoder.atom_variable(a))) continue;
      const auto holds =
          atom_holds_on(encoder.atoms()[a], query.variable, theory.value);
      if (!holds.has_value() || *holds) {
        witness_consistent = false;
        break;
      }
    }
    if (!witness_consistent) {
      block_assignment(/*exact=*/false);
      continue;
    }

    result.status = CheckSatStatus::kSat;
    result.variable = query.variable;
    result.model_value = theory.value;
    result.sat_stats = sat.stats();
    return result;
  }

  result.status = CheckSatStatus::kUnknown;
  result.notes.push_back("theory round budget exhausted");
  result.sat_stats = sat.stats();
  return result;
}

}  // namespace qsmt::sat
