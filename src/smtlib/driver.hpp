// SMT-LIB script driver: executes a script against the annealing solver.
//
// The interactive surface of the system: feed it a .smt2 script, it answers
// check-sat with `sat` (annealer found a verified model), `unsat` (a ground
// assertion is false, or baseline::certify_unsat produced an exact proof —
// length conflicts, impossible regex lengths, pinned witnesses, bounded
// exhaustive search; the solver never claims unsatisfiability without a
// certificate), or `unknown` (out of fragment, or the annealer's best
// sample failed classical verification).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anneal/sampler.hpp"
#include "smtlib/ast.hpp"
#include "smtlib/compiler.hpp"
#include "smtlib/incremental.hpp"
#include "strqubo/builders.hpp"

namespace qsmt::smtlib {

enum class CheckSatStatus { kSat, kUnsat, kUnknown };

std::string status_name(CheckSatStatus status);

struct CheckSatRecord {
  CheckSatStatus status = CheckSatStatus::kUnknown;
  /// Model value for the string variable when status == kSat.
  std::string model_value;
  std::string variable;
  /// Diagnostics (unsupported atoms, falsified ground facts, ...).
  std::vector<std::string> notes;
  std::size_t num_constraints = 0;
  std::size_t num_qubo_variables = 0;
};

/// Outcome of the deterministic pre-solve decision tree every check-sat
/// runs before touching a sampler: compile, then falsified ground fact ->
/// unsat, unsupported atom -> unknown, no residual constraints -> sat,
/// exact certificate -> unsat. `decided` means `record` carries the final
/// verdict; otherwise `query.constraints` still needs a solver. Shared by
/// SmtDriver::check_sat and the server's service-backed session so both
/// front ends answer the cheap cases identically without a round trip.
struct PresolveResult {
  bool decided = false;
  CheckSatRecord record;
  CompiledQuery query;
};

/// Runs the deterministic pre-solve tree over the current assertion set.
/// Records the smtlib.verdict.* counter when the verdict is decided.
PresolveResult presolve_check_sat(const std::vector<TermPtr>& assertions,
                                  const std::map<std::string, Sort>& declared);

/// Bumps the smtlib.verdict.{sat,unsat,unknown} counter for a verdict
/// reached outside presolve_check_sat (i.e. after an actual solve).
void record_verdict(CheckSatStatus status);

/// Renders the (get-model) reply for the most recent check-sat record
/// (nullptr when no check-sat has run). z3-style: an error when the last
/// verdict was not sat, `(model)` for variable-free sat scripts, otherwise
/// a single define-fun with SMT-LIB quote escaping.
std::string render_model(const CheckSatRecord* last);

/// Renders the (get-value (...)) reply against the most recent check-sat
/// record, mirroring render_model's error behaviour.
std::string render_get_value(const std::vector<std::string>& names,
                             const CheckSatRecord* last);

class SmtDriver {
 public:
  /// `sampler` must outlive the driver. `fragments`, when given, shares a
  /// compiled-fragment cache across drivers (blocks are immutable, so
  /// sharing is tenant-safe); by default the driver owns a private one.
  explicit SmtDriver(const anneal::Sampler& sampler,
                     strqubo::BuildOptions options = {},
                     std::shared_ptr<FragmentCache> fragments = nullptr);

  virtual ~SmtDriver() = default;

  /// Executes a whole script; returns the printed output (one line per
  /// check-sat / echo / get-model, z3-style).
  std::string run_script(const std::string& text);

  /// Executes one parsed command; appends any output to `out`.
  /// Returns false when the command was (exit).
  bool execute(const Command& command, std::string& out);

  /// The retained check-sat records: the most recent one only, or none
  /// before the first check-sat and after (reset). Everything that reads
  /// a verdict back (get-model, get-value, the engine) needs only the
  /// last one, and keeping one bounds a session that never resets.
  std::span<const CheckSatRecord> history() const noexcept {
    return last_check_sat_ ? std::span(&*last_check_sat_, 1)
                           : std::span<const CheckSatRecord>();
  }

  /// Resets declarations, assertions, and the push/pop stack. The last
  /// check-sat record survives; the (reset) command clears it too.
  /// Subclasses holding per-session solve state of their own extend this.
  virtual void reset();

  /// Current push/pop nesting depth.
  std::size_t scope_depth() const noexcept { return frames_.size(); }

  /// The incremental state carried across check-sats: compiled-fragment
  /// cache, witness memory, retained theory lemmas, per-context counters.
  SolveContext& solve_context() noexcept { return *context_; }
  const SolveContext& solve_context() const noexcept { return *context_; }

  /// Replaces the context (engine/bench plumbing: share one context across
  /// several driver instantiations of the same logical session).
  void adopt_context(std::shared_ptr<SolveContext> context);

 protected:
  /// For subclasses that answer check-sat without a local sampler (the
  /// server session dispatches to the service pool instead).
  explicit SmtDriver(strqubo::BuildOptions options);

  /// The check-sat strategy. The base runs presolve + an in-process
  /// solve_conjunction; overrides keep every other command's semantics
  /// (push/pop, get-model, ...) from execute() by construction.
  virtual CheckSatRecord check_sat();

  const std::vector<TermPtr>& assertions() const noexcept {
    return assertions_;
  }
  const std::map<std::string, Sort>& declared() const noexcept {
    return declared_;
  }
  const strqubo::BuildOptions& build_options() const noexcept {
    return options_;
  }

 private:
  /// One (push) scope: everything to restore on the matching (pop).
  struct Frame {
    std::size_t num_assertions;
    std::map<std::string, Sort> declared;
  };

  const anneal::Sampler* sampler_;
  strqubo::BuildOptions options_;
  std::shared_ptr<SolveContext> context_;
  std::map<std::string, Sort> declared_;
  std::vector<TermPtr> assertions_;
  std::vector<Frame> frames_;
  std::optional<CheckSatRecord> last_check_sat_;
};

// ConjunctionResult, solve_conjunction and the incremental variant live in
// smtlib/incremental.hpp (included above); solve_conjunction merges the
// per-constraint QUBO models — an extension over the paper's sequential
// §4.12 combination, see DESIGN.md — samples once, and returns the
// lowest-energy sample whose decoding classically verifies every conjunct.
// `accept` is the DPLL(T) false-atom falsification filter.

}  // namespace qsmt::smtlib
