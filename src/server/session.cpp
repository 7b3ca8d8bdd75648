#include "server/session.hpp"

#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#include "server/admission.hpp"
#include "smtlib/parser.hpp"
#include "strqubo/constraint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace qsmt::server {

namespace {

/// Thrown by the driver when the admission gate turns a check-sat away;
/// the session catches it and replies (error ...) without touching the
/// assertion context, so the client can simply retry.
class OverloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// splitmix64 step: successive check-sats of one session get independent
/// seed streams without a shared RNG.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t ordinal) {
  std::uint64_t z = base + ordinal * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

/// The service-backed check-sat strategy. Everything except check_sat is
/// the stock SmtDriver, so session replies match the in-process driver's
/// byte for byte on every non-solving command.
class Session::Driver final : public smtlib::SmtDriver {
 public:
  explicit Driver(Session& session)
      : smtlib::SmtDriver(strqubo::BuildOptions{}), session_(&session) {}

 protected:
  smtlib::CheckSatRecord check_sat() override {
    Session& session = *session_;
    telemetry::Span span("server.check_sat");
    smtlib::PresolveResult presolved =
        smtlib::presolve_check_sat(assertions(), declared());
    if (presolved.decided) return presolved.record;

    // The solve needs the shared pool: pass admission first. A session
    // whose client vanished while in line abandons its place.
    if (session.gate_ != nullptr) {
      const AdmissionGate::Outcome outcome =
          session.gate_->acquire([&] { return !session.client_alive(); });
      switch (outcome) {
        case AdmissionGate::Outcome::kAdmitted:
          break;
        case AdmissionGate::Outcome::kRejected:
          throw OverloadError(
              "server overloaded: admission queue full, retry later");
        case AdmissionGate::Outcome::kClosed:
          throw OverloadError("server shutting down");
        case AdmissionGate::Outcome::kAbandoned: {
          smtlib::CheckSatRecord record = std::move(presolved.record);
          record.status = smtlib::CheckSatStatus::kUnknown;
          record.notes.push_back("client disconnected while queued");
          return record;
        }
      }
    }

    smtlib::CheckSatRecord record = std::move(presolved.record);
    Stopwatch solve_timer;
    service::JobOptions job;
    job.deadline = session.options_.deadline;
    job.seed = derive_seed(session.options_.seed, ++check_sat_ordinal_);
    job.tag = session.options_.tenant;
    job.cancel = session.install_in_flight();
    // Incremental hot re-solve: this session's previous sat witness seeds
    // the service's warm-start refinement. Session-local state only — the
    // witness never enters the shared prepared-model cache, so tenants
    // cannot observe each other's models; and every warm result is
    // classically verified, so a stale witness can only cost time, never
    // change a verdict.
    job.warm_start = last_model_;
    // Per-tenant adaptive routing: this session's jobs consult and train
    // its own win/loss table, so tenants with divergent workload mixes
    // learn divergent dispatch instead of fighting over one shared table.
    job.router = session.options_.router;

    std::future<service::JobResult> future;
    const auto& constraints = presolved.query.constraints;
    if (constraints.size() == 1 &&
        strqubo::produces_string(constraints.front())) {
      // The constraint-job fast path: structurally identical
      // single-constraint queries from *any* session share the service's
      // prepared-model cache.
      future = session.service_->submit(constraints.front(), job);
    } else {
      future = session.service_->submit_script(render_script(), job);
    }

    // Poll-wait so a client that hangs up mid-solve is noticed: the
    // liveness probe failing cancels the job exactly once, the portfolio
    // aborts within a sweep, and the future resolves promptly.
    for (;;) {
      const std::future_status status =
          future.wait_for(std::chrono::milliseconds(5));
      if (status == std::future_status::ready) break;
      if (!session.client_alive()) session.disconnect();
    }
    const service::JobResult result = future.get();
    if (session.gate_ != nullptr) session.gate_->release();
    session.clear_in_flight();

    record.status = result.status;
    if (result.text) {
      record.model_value = *result.text;
    } else {
      record.model_value = result.model_value;
    }
    if (record.status == smtlib::CheckSatStatus::kSat) {
      last_model_ = record.model_value;
    }
    for (const std::string& note : result.notes) {
      record.notes.push_back(note);
    }
    if (result.timed_out) record.notes.push_back("deadline exceeded");

    const double seconds = solve_timer.elapsed_seconds();
    {
      std::lock_guard<std::mutex> lock(session.mutex_);
      session.stats_.solve_seconds_total += seconds;
      if (result.answer_cache_hit) ++session.stats_.answer_hits;
    }
    if (telemetry::enabled()) {
      telemetry::histogram("server.checksat.seconds",
                           telemetry::Unit::kSeconds)
          .record(seconds);
    }
    return record;
  }

 private:
  /// Renders the current assertion context back to one conjunctive script
  /// for the service's script-job path (multi-constraint queries and
  /// non-string-producing atoms). to_string emits re-parseable SMT-LIB.
  std::string render_script() const {
    std::string script;
    for (const auto& [name, sort] : declared()) {
      script += "(declare-const " + name + " " + smtlib::sort_name(sort) +
                ")\n";
    }
    for (const auto& term : assertions()) {
      script += "(assert " + smtlib::to_string(term) + ")\n";
    }
    script += "(check-sat)\n";
    return script;
  }

  Session* session_;
  std::uint64_t check_sat_ordinal_ = 0;
  /// Last sat witness this session produced (warm-start seed for the next
  /// check-sat). Never shared across sessions.
  std::optional<std::string> last_model_;
};

Session::Session(service::SolveService& service, SessionOptions options)
    : Session(service, nullptr, std::move(options)) {}

Session::Session(service::SolveService& service, AdmissionGate* gate,
                 SessionOptions options)
    : service_(&service),
      gate_(gate),
      options_(std::move(options)),
      driver_(std::make_unique<Driver>(*this)) {}

Session::~Session() = default;

bool Session::client_alive() const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (disconnected_) return false;
  }
  return !options_.alive || options_.alive();
}

CancelSource Session::install_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  in_flight_ = std::make_unique<CancelSource>();
  in_flight_cancelled_ = false;
  if (disconnected_) {
    // The client vanished between commands; cancel the job on arrival so
    // the pool drops it at the pre-cancelled fast path.
    in_flight_->cancel();
    in_flight_cancelled_ = true;
  }
  return *in_flight_;
}

void Session::clear_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  in_flight_.reset();
}

void Session::disconnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  disconnected_ = true;
  exited_ = true;
  if (in_flight_ && !in_flight_cancelled_) {
    // Exactly once per in-flight job, no matter how many of the liveness
    // probe, the reader loop, and the server shutdown get here.
    in_flight_->cancel();
    in_flight_cancelled_ = true;
    ++stats_.disconnect_cancels;
    if (telemetry::enabled()) {
      telemetry::counter("server.disconnect.cancelled").add();
    }
  }
}

bool Session::exited() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exited_;
}

std::string Session::finish() {
  if (exited() || !scanner_.partial()) return "";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
  }
  scanner_.reset();
  return error_reply("malformed input: unterminated command at end of input");
}

Session::Stats Session::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string Session::run_command(const std::string& text) {
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.commands;
  }
  if (telemetry::enabled()) telemetry::counter("server.commands").add();
  try {
    const std::vector<smtlib::Command> commands = smtlib::parse_script(text);
    for (const smtlib::Command& command : commands) {
      const bool is_check =
          std::holds_alternative<smtlib::CheckSat>(command) ||
          std::holds_alternative<smtlib::CheckSatAssuming>(command);
      if (is_check) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.check_sats;
      }
      if (!driver_->execute(command, out)) {
        std::lock_guard<std::mutex> lock(mutex_);
        exited_ = true;
        break;
      }
    }
  } catch (const OverloadError& error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.overload_rejects;
    }
    out += error_reply(error.what());
  } catch (const std::exception& error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
    }
    out += error_reply(error.what());
  }
  return out;
}

std::string Session::consume(std::string_view text) {
  std::string out;
  if (exited()) return out;
  scanner_.feed(text);
  for (;;) {
    std::optional<std::string> command = scanner_.next();
    if (!command) {
      if (scanner_.failed()) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.errors;
        }
        out += error_reply(
            "malformed input: stray ')' or bare atom at the top level");
        scanner_.reset();
      }
      break;
    }
    out += run_command(*command);
    if (exited()) break;
  }
  return out;
}

}  // namespace qsmt::server
