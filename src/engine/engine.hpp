// One-call solving entry point: script text in, verdict out.
//
// Chooses the execution engine the way a production solver front end does:
// plain conjunctive scripts run through the merged-QUBO SmtDriver; scripts
// whose assertions use boolean structure (or / general not) are routed to
// the DPLL(T) engine. Exists so applications (and the smt_cli example) get
// the full solver with a single call, and so the routing logic is library
// code under test rather than example-local.
#pragma once

#include <string>
#include <vector>

#include "anneal/sampler.hpp"
#include "smtlib/ast.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/builders.hpp"

namespace qsmt::engine {

enum class EngineKind {
  kConjunctive,  ///< Merged-QUBO SmtDriver.
  kDpllT,        ///< CDCL case-splitting with the annealer as T-solver.
};

struct ScriptResult {
  smtlib::CheckSatStatus status = smtlib::CheckSatStatus::kUnknown;
  /// Model of the string variable when status == kSat (empty for ground
  /// queries with no free variable).
  std::string variable;
  std::string model_value;
  /// Raw printed output (the z3-style transcript) for CLI display.
  std::string transcript;
  std::vector<std::string> notes;
  EngineKind engine = EngineKind::kConjunctive;
};

/// True when any assertion in the parsed commands needs the boolean engine:
/// an `or` anywhere, or a `not` around anything other than str.contains.
bool needs_boolean_engine(const std::vector<smtlib::Command>& commands);

/// Term-level version of needs_boolean_engine.
bool term_needs_boolean_engine(const smtlib::TermPtr& term);

/// Parses and solves `script`, auto-selecting the engine. `force_dpllt`
/// routes to DPLL(T) regardless. Parse errors propagate as
/// std::invalid_argument.
///
/// `context`, when given, carries incremental state across calls (must
/// outlive them): the conjunctive engine adopts it for fragment reuse,
/// witness reuse, and warm starts; DPLL(T) retains exact theory lemmas in
/// it and treats check-sat-assuming assumptions as true CDCL assumptions
/// instead of flattening them into the assertion set.
ScriptResult solve_script(const std::string& script,
                          const anneal::Sampler& sampler,
                          const strqubo::BuildOptions& options = {},
                          bool force_dpllt = false,
                          smtlib::SolveContext* context = nullptr);

/// Batch entry point: solves every script in order with the same sampler and
/// options, one blocking solve at a time. This is the sequential baseline
/// the concurrent batching layer (qsmt::service::SolveService, and the
/// bench/service_bench throughput comparison) is measured against; callers
/// that want worker-pool parallelism, sampler escalation, deadlines, or
/// cancellation use the service instead.
std::vector<ScriptResult> solve_scripts(const std::vector<std::string>& scripts,
                                        const anneal::Sampler& sampler,
                                        const strqubo::BuildOptions& options = {},
                                        bool force_dpllt = false,
                                        smtlib::SolveContext* context = nullptr);

}  // namespace qsmt::engine
