#include "engine/engine.hpp"

#include <map>

#include "sat/dpllt.hpp"
#include "smtlib/parser.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt::engine {

bool term_needs_boolean_engine(const smtlib::TermPtr& term) {
  if (!term || term->kind != smtlib::Term::Kind::kApply) return false;
  if (term->atom == "or") return true;
  if (term->atom == "not" &&
      !(term->args.size() == 1 && term->args[0] &&
        term->args[0]->is_apply("str.contains"))) {
    return true;
  }
  for (const auto& arg : term->args) {
    if (term_needs_boolean_engine(arg)) return true;
  }
  return false;
}

bool needs_boolean_engine(const std::vector<smtlib::Command>& commands) {
  for (const auto& command : commands) {
    if (const auto* assert_cmd = std::get_if<smtlib::AssertCmd>(&command)) {
      if (term_needs_boolean_engine(assert_cmd->term)) return true;
    } else if (const auto* check =
                   std::get_if<smtlib::CheckSatAssuming>(&command)) {
      for (const auto& assumption : check->assumptions) {
        if (term_needs_boolean_engine(assumption)) return true;
      }
    }
  }
  return false;
}

namespace {

ScriptResult run_conjunctive(const std::vector<smtlib::Command>& commands,
                             const anneal::Sampler& sampler,
                             const strqubo::BuildOptions& options,
                             smtlib::SolveContext* context) {
  ScriptResult result;
  result.engine = EngineKind::kConjunctive;
  smtlib::SmtDriver driver(sampler, options);
  if (context != nullptr) {
    // Non-owning alias: the caller keeps the context alive across scripts.
    driver.adopt_context(
        std::shared_ptr<smtlib::SolveContext>(std::shared_ptr<void>(),
                                              context));
  }
  for (const auto& command : commands) {
    if (!driver.execute(command, result.transcript)) break;
  }
  if (!driver.history().empty()) {
    const smtlib::CheckSatRecord& record = driver.history().back();
    result.status = record.status;
    result.variable = record.variable;
    result.model_value = record.model_value;
    result.notes = record.notes;
  }
  return result;
}

ScriptResult run_dpllt(const std::vector<smtlib::Command>& commands,
                       const anneal::Sampler& sampler,
                       const strqubo::BuildOptions& options,
                       smtlib::SolveContext* context) {
  ScriptResult result;
  result.engine = EngineKind::kDpllT;

  std::vector<smtlib::TermPtr> assertions;
  std::vector<smtlib::TermPtr> assumptions;
  std::map<std::string, smtlib::Sort> declared;
  for (const auto& command : commands) {
    if (const auto* decl = std::get_if<smtlib::DeclareConst>(&command)) {
      declared.emplace(decl->name, decl->sort);
    } else if (const auto* assert_cmd =
                   std::get_if<smtlib::AssertCmd>(&command)) {
      assertions.push_back(assert_cmd->term);
    } else if (const auto* check =
                   std::get_if<smtlib::CheckSatAssuming>(&command)) {
      // Assumptions stay assumptions: forced first decisions in the CDCL
      // engine, so learned clauses remain valid without them.
      for (const auto& assumption : check->assumptions) {
        assumptions.push_back(assumption);
      }
    }
  }

  const sat::DpllTSolver solver(sampler, options, {});
  const sat::DpllTResult solved =
      solver.solve(assertions, assumptions, declared, context);
  result.status = solved.status;
  result.variable = solved.variable;
  result.model_value = solved.model_value;
  result.notes = solved.notes;

  result.transcript = smtlib::status_name(solved.status) + "\n";
  if (solved.status == smtlib::CheckSatStatus::kSat &&
      !solved.variable.empty()) {
    result.transcript += "(model (define-fun " + solved.variable +
                         " () String \"" + solved.model_value + "\"))\n";
  }
  return result;
}

// Final-status counters let a batch run's sat/unsat/unknown split (and the
// conjunctive/DPLL(T) routing decision) show up in the telemetry summary.
void record_script_result(const ScriptResult& result) {
  static const auto dpllt = telemetry::counter("engine.route.dpllt");
  static const auto conjunctive =
      telemetry::counter("engine.route.conjunctive");
  static const auto sat = telemetry::counter("engine.verdict.sat");
  static const auto unsat = telemetry::counter("engine.verdict.unsat");
  static const auto unknown = telemetry::counter("engine.verdict.unknown");
  (result.engine == EngineKind::kDpllT ? dpllt : conjunctive).add();
  (result.status == smtlib::CheckSatStatus::kSat     ? sat
   : result.status == smtlib::CheckSatStatus::kUnsat ? unsat
                                                     : unknown)
      .add();
}

}  // namespace

ScriptResult solve_script(const std::string& script,
                          const anneal::Sampler& sampler,
                          const strqubo::BuildOptions& options,
                          bool force_dpllt, smtlib::SolveContext* context) {
  telemetry::Span span("engine.solve_script");
  const std::vector<smtlib::Command> commands = smtlib::parse_script(script);
  ScriptResult result =
      (force_dpllt || needs_boolean_engine(commands))
          ? run_dpllt(commands, sampler, options, context)
          : run_conjunctive(commands, sampler, options, context);
  record_script_result(result);
  return result;
}

std::vector<ScriptResult> solve_scripts(const std::vector<std::string>& scripts,
                                        const anneal::Sampler& sampler,
                                        const strqubo::BuildOptions& options,
                                        bool force_dpllt,
                                        smtlib::SolveContext* context) {
  std::vector<ScriptResult> results;
  results.reserve(scripts.size());
  for (const std::string& script : scripts) {
    results.push_back(
        solve_script(script, sampler, options, force_dpllt, context));
  }
  return results;
}

}  // namespace qsmt::engine
