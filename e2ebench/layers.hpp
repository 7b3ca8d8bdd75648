// In-process replays of a workload's check-sats, for the per-layer figures
// no daemon counter exposes.
//
// The traced socket pass reads the daemon's own telemetry histograms and
// service counters. What they do not split out comes from replaying the
// same requests (same seed, same connection assignment) through a layer's
// public surface from the benchmark's own code; the report names these
// figures replay.*:
//
//  * replay_service submits each check-sat straight to a SolveService the
//    way a server session would (same job seeds, tenant tags and warm-start
//    witnesses), closed-loop from one thread per connection, and reads the
//    JobResult fields the service does not total;
//  * replay_sessions feeds each connection's frames to its own in-process
//    server::Session, closed-loop from one thread per connection like the
//    socket pass, and times consume();
//  * replay_layers walks each check-sat through parse, compile, certify,
//    canonicalize, answer-cache lookup, prepare, sample (every portfolio
//    member) or engine::solve_script, verify and insert, with a
//    telemetry::Span around each call (the solver's own spans stay off).
//
// Every replay builds fresh state configured as the daemon is, so its
// caches see the same hit/miss sequence the socket pass saw.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "server/server.hpp"
#include "service/service.hpp"
#include "smtlib/ast.hpp"
#include "workloads.hpp"

namespace qsmt::e2ebench {

/// The declarations and assertions of a script, in script order (other
/// commands are skipped). Throws std::invalid_argument on a parse error.
struct AssertionSet {
  std::map<std::string, smtlib::Sort> declared;
  std::vector<smtlib::TermPtr> assertions;
};

AssertionSet assertion_set(const std::string& script);

/// The answer-cache budget qsmt-server wires by default (--answer-cache-mb).
inline constexpr std::size_t kAnswerCacheBytes = std::size_t{8} << 20;

/// Service configuration of a default `qsmt-server`: default worker count
/// and portfolio, one shared 8 MiB canonical answer cache.
service::ServiceOptions daemon_service_options();

/// The job seed a server session derives for its `ordinal`-th dispatched
/// check-sat (a copy of the session's splitmix step; tenant seeds are the
/// server's base seed 0 plus the tenant id).
std::uint64_t session_job_seed(std::uint64_t tenant, std::uint64_t ordinal);

/// What replays share: which requests, over how many connections, for how
/// long.
struct ReplayInput {
  Workload workload = Workload::kSolveCold;
  std::uint64_t seed = 0;
  std::size_t connections = 1;
  std::unordered_set<std::string> exclude;
  double seconds = 1.0;
};

struct ServiceReplay {
  std::size_t jobs = 0;
  /// Sum of JobResult::attempts.
  std::size_t attempts = 0;
  /// Pool jobs that carried a warm-start witness from before a (reset) and
  /// how many of them the refinement decided ("warm start" note).
  std::size_t reset_warm_starts = 0;
  std::size_t reset_warm_hits = 0;
  /// Jobs answered unsat although the generator planted a witness.
  std::size_t failed = 0;
};

ServiceReplay replay_service(const ReplayInput& input);

struct SessionReplay {
  /// Session::consume seconds of every frame that carried a check-sat.
  std::vector<double> consume_s;
  /// Error and overload replies the sessions counted (Session::stats).
  std::size_t errors = 0;
};

SessionReplay replay_sessions(const ReplayInput& input);

struct LayerReplay {
  std::size_t check_sats = 0;
  double wall_s = 0.0;
  /// QUBO variables of each prepared constraint model, and how many of the
  /// models had no quadratic term at all (separable).
  std::vector<double> qubo_variables;
  std::size_t separable = 0;
  /// Process CPU and wall seconds spent inside sampler calls.
  double sample_cpu_s = 0.0;
  double sample_wall_s = 0.0;
};

/// Replays check-sats until `input.seconds` pass or `max_check_sats` are
/// done, with telemetry off. With `trace` set, every span (one root
/// "e2e.check_sat" per check-sat, each tagged with its request id) lands
/// in the telemetry trace buffer; without it the spans are inert.
LayerReplay replay_layers(const ReplayInput& input,
                          std::size_t max_check_sats, bool trace);

}  // namespace qsmt::e2ebench
