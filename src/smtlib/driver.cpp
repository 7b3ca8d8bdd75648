#include "smtlib/driver.hpp"

#include "baseline/unsat.hpp"
#include "smtlib/parser.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace qsmt::smtlib {

namespace {

// SMT-LIB string literals double embedded quotes.
void append_quoted(std::string& out, const std::string& value) {
  out += '"';
  for (char c : value) {
    out += c;
    if (c == '"') out += '"';
  }
  out += '"';
}

// SMT-LIB (error "...") reply, same quote-doubling as the server transport
// so driver and daemon transcripts stay byte-compatible.
void append_error(std::string& out, const std::string& message) {
  out += "(error ";
  append_quoted(out, message);
  out += ")\n";
}

// First undeclared free variable in `term`, if any. Operators are kApply
// nodes, so every kVariable leaf is a symbol that must be declared.
const std::string* find_undeclared(const TermPtr& term,
                                   const std::map<std::string, Sort>& declared) {
  if (!term) return nullptr;
  if (term->kind == Term::Kind::kVariable) {
    return declared.contains(term->atom) ? nullptr : &term->atom;
  }
  for (const auto& arg : term->args) {
    if (const std::string* hit = find_undeclared(arg, declared)) return hit;
  }
  return nullptr;
}

}  // namespace

// One counter per verdict so a run's sat/unsat/unknown split shows up in the
// summary table without post-processing.
void record_verdict(CheckSatStatus status) {
  static const auto sat = telemetry::counter("smtlib.verdict.sat");
  static const auto unsat = telemetry::counter("smtlib.verdict.unsat");
  static const auto unknown = telemetry::counter("smtlib.verdict.unknown");
  (status == CheckSatStatus::kSat     ? sat
   : status == CheckSatStatus::kUnsat ? unsat
                                      : unknown)
      .add();
}

std::string status_name(CheckSatStatus status) {
  switch (status) {
    case CheckSatStatus::kSat:
      return "sat";
    case CheckSatStatus::kUnsat:
      return "unsat";
    case CheckSatStatus::kUnknown:
      return "unknown";
  }
  return "unknown";
}

PresolveResult presolve_check_sat(
    const std::vector<TermPtr>& assertions,
    const std::map<std::string, Sort>& declared) {
  PresolveResult result;
  CheckSatRecord& record = result.record;
  telemetry::Span compile_span("smtlib.compile");
  result.query = compile_assertions(assertions, declared);
  compile_span.close();
  const CompiledQuery& query = result.query;
  static const auto calls = telemetry::counter("smtlib.check_sat.calls");
  static const auto constraints =
      telemetry::counter("smtlib.check_sat.constraints");
  calls.add();
  constraints.add(static_cast<std::uint64_t>(query.constraints.size()));
  record.variable = query.variable;
  record.num_constraints = query.constraints.size();
  record.notes = query.unsupported;

  if (!query.falsified_ground.empty()) {
    record.status = CheckSatStatus::kUnsat;
    for (const auto& fact : query.falsified_ground) {
      record.notes.push_back("falsified: " + fact);
    }
    result.decided = true;
    record_verdict(record.status);
    return result;
  }
  if (!query.unsupported.empty()) {
    record.status = CheckSatStatus::kUnknown;
    result.decided = true;
    record_verdict(record.status);
    return result;
  }
  if (query.constraints.empty()) {
    // All assertions were ground and true (or there were none).
    record.status = CheckSatStatus::kSat;
    result.decided = true;
    record_verdict(record.status);
    return result;
  }

  // A cheap exact refutation (length conflicts, impossible regex lengths,
  // pinned witnesses, bounded exhaustive search) upgrades the verdict from
  // the annealer's best-effort `unknown` to a certified `unsat`.
  const baseline::UnsatCertificate certificate =
      baseline::certify_unsat(query.constraints);
  if (certificate.proven) {
    record.status = CheckSatStatus::kUnsat;
    record.notes.push_back("certified: " + certificate.reason);
    static const auto certified =
        telemetry::counter("smtlib.check_sat.certified_unsat");
    certified.add();
    result.decided = true;
    record_verdict(record.status);
    return result;
  }
  return result;
}

std::string render_model(const CheckSatRecord* last) {
  if (last == nullptr || last->status != CheckSatStatus::kSat) {
    return "(error \"no model available\")\n";
  }
  if (last->variable.empty()) return "(model)\n";
  std::string out = "(model (define-fun " + last->variable + " () String ";
  append_quoted(out, last->model_value);
  out += "))\n";
  return out;
}

std::string render_get_value(const std::vector<std::string>& names,
                             const CheckSatRecord* last) {
  if (last == nullptr || last->status != CheckSatStatus::kSat) {
    return "(error \"no model available\")\n";
  }
  std::string out = "(";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ' ';
    out += '(';
    out += names[i];
    out += ' ';
    if (names[i] == last->variable) {
      append_quoted(out, last->model_value);
    } else {
      out += "(error \"unknown constant\")";
    }
    out += ')';
  }
  out += ")\n";
  return out;
}

SmtDriver::SmtDriver(const anneal::Sampler& sampler,
                     strqubo::BuildOptions options,
                     std::shared_ptr<FragmentCache> fragments)
    : sampler_(&sampler),
      options_(options),
      context_(std::make_shared<SolveContext>(std::move(fragments))) {}

SmtDriver::SmtDriver(strqubo::BuildOptions options)
    : sampler_(nullptr),
      options_(options),
      context_(std::make_shared<SolveContext>()) {}

void SmtDriver::adopt_context(std::shared_ptr<SolveContext> context) {
  require(context != nullptr, "smtlib: adopt_context requires a context");
  context_ = std::move(context);
}

void SmtDriver::reset() {
  declared_.clear();
  assertions_.clear();
  frames_.clear();
  context_->clear();
}

CheckSatRecord SmtDriver::check_sat() {
  telemetry::Span span("smtlib.check_sat");
  span.arg("num_assertions", static_cast<double>(assertions_.size()));
  PresolveResult presolved = presolve_check_sat(assertions_, declared_);
  span.arg("num_constraints",
           static_cast<double>(presolved.query.constraints.size()));
  if (presolved.decided) return presolved.record;
  CheckSatRecord record = std::move(presolved.record);
  require(sampler_ != nullptr,
          "smtlib: SmtDriver without a sampler must override check_sat");

  const ConjunctionResult solved = solve_conjunction_incremental(
      presolved.query.constraints, *sampler_, options_, *context_);
  record.num_qubo_variables = solved.num_qubo_variables;
  if (solved.solved) {
    record.status = CheckSatStatus::kSat;
    record.model_value = solved.value;
  } else {
    record.status = CheckSatStatus::kUnknown;
    record.notes.push_back(solved.note);
  }
  record_verdict(record.status);
  return record;
}

bool SmtDriver::execute(const Command& command, std::string& out) {
  return std::visit(
      [&](const auto& cmd) -> bool {
        using T = std::decay_t<decltype(cmd)>;
        if constexpr (std::is_same_v<T, SetLogic> ||
                      std::is_same_v<T, SetOption> ||
                      std::is_same_v<T, SetInfo>) {
          return true;
        } else if constexpr (std::is_same_v<T, DeclareConst>) {
          require(!declared_.contains(cmd.name),
                  "smtlib: duplicate declaration of " + cmd.name);
          declared_.emplace(cmd.name, cmd.sort);
          return true;
        } else if constexpr (std::is_same_v<T, AssertCmd>) {
          assertions_.push_back(cmd.term);
          return true;
        } else if constexpr (std::is_same_v<T, CheckSat>) {
          last_check_sat_ = check_sat();
          out += status_name(last_check_sat_->status);
          out += '\n';
          return true;
        } else if constexpr (std::is_same_v<T, GetModel>) {
          out += render_model(last_check_sat_ ? &*last_check_sat_ : nullptr);
          return true;
        } else if constexpr (std::is_same_v<T, Echo>) {
          out += cmd.message;
          out += '\n';
          return true;
        } else if constexpr (std::is_same_v<T, Push>) {
          for (std::size_t k = 0; k < cmd.levels; ++k) {
            frames_.push_back(Frame{assertions_.size(), declared_});
          }
          context_->push(cmd.levels);
          return true;
        } else if constexpr (std::is_same_v<T, Pop>) {
          if (cmd.levels > frames_.size()) {
            // SMT-LIB error reply, not a thrown exception: the session
            // (and a scripted transcript) survives and the stack is
            // untouched, matching z3's behaviour.
            append_error(out,
                         "pop below the bottom of the assertion stack");
            return true;
          }
          for (std::size_t k = 0; k < cmd.levels; ++k) {
            assertions_.resize(frames_.back().num_assertions);
            declared_ = std::move(frames_.back().declared);
            frames_.pop_back();
          }
          context_->pop(cmd.levels);
          return true;
        } else if constexpr (std::is_same_v<T, CheckSatAssuming>) {
          for (const auto& assumption : cmd.assumptions) {
            if (const std::string* name =
                    find_undeclared(assumption, declared_)) {
              append_error(out, "check-sat-assuming: undeclared symbol '" +
                                    *name + "'");
              return true;
            }
          }
          // Assumptions join the assertion set for this check only.
          const std::size_t restore = assertions_.size();
          for (const auto& assumption : cmd.assumptions) {
            assertions_.push_back(assumption);
          }
          last_check_sat_ = check_sat();
          assertions_.resize(restore);
          out += status_name(last_check_sat_->status);
          out += '\n';
          return true;
        } else if constexpr (std::is_same_v<T, GetValue>) {
          out += render_get_value(
              cmd.names, last_check_sat_ ? &*last_check_sat_ : nullptr);
          return true;
        } else if constexpr (std::is_same_v<T, ResetCmd>) {
          // (reset) erases everything, including the last check-sat record
          // — a subsequent (get-model) reports no model, per SMT-LIB.
          reset();
          last_check_sat_.reset();
          return true;
        } else {
          static_assert(std::is_same_v<T, ExitCmd>);
          return false;
        }
      },
      command);
}

std::string SmtDriver::run_script(const std::string& text) {
  std::string out;
  for (const Command& command : parse_script(text)) {
    if (!execute(command, out)) break;
  }
  return out;
}

}  // namespace qsmt::smtlib
