// qsmt::service — the serving layer: concurrent batch solving with an
// escalation ladder of samplers, cancellation, and deadlines.
//
// SolveService owns a fixed-size worker pool. Every submitted job (a
// conjunction of strqubo::Constraints over one string — a single constraint
// is the one-element case — or an SMT-LIB script) is one queued task that
// climbs ServiceOptions::portfolio in order — simulated annealing, parallel
// tempering, path-integral quantum simulation, minor-embedded annealing, or
// any custom anneal::Sampler — until a rung produces a verified verdict:
//
//  * a rung samples up to max_verify_retries + 1 times with reseeded
//    samplers (annealing is stochastic; a fresh RNG stream is often all it
//    takes); the first decoded model that passes classical verification
//    (or, for scripts, the first decisive sat/unsat engine verdict)
//    fulfils the job's future;
//  * only when every attempt of a rung fails does the task go on, in the
//    same worker, to the next rung — a more expensive sampler never runs
//    for a job a cheaper one already decided, and no job ever holds two
//    workers;
//  * per-job deadlines and external cancellation (a client disconnect)
//    ride the job's CancelToken, which the running sampler polls inside its
//    sweep loops: the job resolves to a graceful kUnknown (timed_out set
//    for a deadline) — deadlines never throw and never lose other jobs.
//
// Conjunction jobs run the shared solve stages of strqubo/solver.hpp. The
// exact ones run inside submit(), on the caller's thread: the QUBO model
// and its CSR adjacency are built once per job (one-conjunct models once
// per distinct constraint, through a keyed cache shared across jobs) and
// presolved, and a presolved job resolves there without a worker. Any
// other job is queued with its strqubo::PreparedConstraint; its task
// warm-refines from JobOptions::warm_start and only then re-samples rung by
// rung. With an answer cache configured, a job whose alpha-equivalent twin
// is already queued or running parks behind it instead (single flight, see
// ServiceOptions::answer_cache). A rung's sampler is constructed only when
// that rung samples, and never on the submitting thread. The server's sessions
// submit every sampled check-sat this way. Script jobs reach the same
// stages through engine::solve_script and the in-process driver.
//
// Workers never block waiting on other tasks, so the pool cannot deadlock
// regardless of worker count. Emitted telemetry (docs/telemetry.md): queue
// depth gauge, job latency histograms, winner/timeout/cancellation counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anneal/exact.hpp"
#include "anneal/sampler.hpp"
#include "anneal/simulated_annealer.hpp"
#include "canon/answer_cache.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"
#include "util/cancel.hpp"

namespace qsmt::service {

/// One rung of the escalation ladder: a display name plus a thread-safe
/// factory producing the sampler for a given (seed, cancel token) pair.
/// Factories are invoked per (job, rung, attempt) that actually samples, so
/// retry-with-reseed gets genuinely independent RNG streams.
struct PortfolioMember {
  std::string name;
  std::function<std::unique_ptr<anneal::Sampler>(std::uint64_t seed,
                                                 CancelToken cancel)>
      make;
};

/// Simulated-annealing rung. `base.seed` and `base.cancel` are overwritten
/// per attempt; every other field is honoured.
PortfolioMember simulated_annealing_member(
    std::string name, anneal::SimulatedAnnealerParams base = {});

/// Exhaustive-enumeration rung (anneal::ExactSolver, <= 30 QUBO variables —
/// larger models throw and the ladder moves on to the next rung).
/// Deterministic verdicts for corpus-sized jobs: the server's tests and
/// `qsmt-server --exact` run a single-rung exact portfolio so replies are
/// pinnable.
PortfolioMember exact_member(std::string name,
                             anneal::ExactSolverParams base = {});

/// The default ladder: a fast low-budget annealer (decides easy jobs in
/// fractions of a millisecond), then a deep high-budget one that runs only
/// for jobs the fast rung could not verify. Bian et al.'s portfolio
/// observation for annealing-based SAT — heterogeneous effort levels beat
/// any single configuration — applied in escalation order, so the extra
/// budget is spent only where the cheap one failed.
std::vector<PortfolioMember> default_portfolio();

struct ServiceOptions {
  /// Worker threads. 0 = one per CPU the constructing thread may run on
  /// (its sched_getaffinity mask, so taskset and cpusets are honoured;
  /// hardware concurrency where the mask is unavailable; at least 1).
  /// The pool is the only parallelism: each sampler runs its reads on the
  /// worker that calls it.
  std::size_t num_workers = 0;
  /// QUBO build options shared by every job.
  strqubo::BuildOptions build;
  /// The escalation order: rung 0 samples first, and rung r + 1 runs only
  /// after every attempt of rung r failed to verify. Empty =
  /// default_portfolio().
  std::vector<PortfolioMember> portfolio;
  /// Extra reseeded attempts per rung after a failed verification.
  std::size_t max_verify_retries = 2;
  /// Canonical answer cache (docs/caching.md). When set, every job is
  /// looked up at submission, before any task is queued, under its
  /// alpha-equivalence canonical key (src/canon): a hit whose remapped
  /// witness passes one classical verification resolves the future
  /// immediately with a byte-identical verdict (winner "answer-cache",
  /// zero sampling attempts); a hit that fails verification falls through
  /// to the normal cold solve (Stats::answer_fallbacks), whose fresh
  /// verdict then replaces the entry. Verified completions are inserted
  /// exactly once. Shared by design: one cache may serve many services,
  /// server sessions, and tenants (qsmt-server wires one across every
  /// session) — entries are keyed by canonical structure alone, so a
  /// witness can only be observed by holders of a structurally identical
  /// query. Null disables answer memoization entirely.
  ///
  /// The cache also keys single flight: a conjunction job that misses and
  /// that the exact stages leave undecided parks behind a queued or running
  /// job with the same answer key (its leader) whose deadline is no later
  /// than its own, and takes no worker. When the leader ends sat, each
  /// follower is served through the lookup and its one verification above;
  /// when it exhausts the ladder, followers share its kUnknown with a note;
  /// when its deadline or its client's disconnect cuts it short, the
  /// follower with the earliest deadline is queued and leads the rest.
  std::shared_ptr<canon::AnswerCache> answer_cache;
};

struct JobOptions {
  /// Per-job deadline from submission (0 = none; negative = already
  /// expired, resolves kUnknown/timed_out without sampling).
  std::chrono::nanoseconds deadline{0};
  /// Master seed for this job's sampler streams.
  std::uint64_t seed = 0;
  /// Opaque caller id echoed into JobResult (batch bookkeeping, tests).
  std::uint64_t tag = 0;
  /// External cancellation handle the job adopts when set: cancelling the
  /// source cancels the job's running sampler (the server session uses
  /// this to abort in-flight work when a client disconnects mid-check-sat).
  /// The job's deadline, when any, is armed on this same source.
  std::optional<CancelSource> cancel;
  /// Warm-start seed for conjunction jobs: a previously verified witness
  /// from the same logical session (the server's incremental sessions pass
  /// their last sat model). The job's task runs one cheap reverse-anneal
  /// refinement from this string after the presolve and before rung 0
  /// samples; if the refined sample verifies, the job is decided without a
  /// full-budget solve. A witness whose length differs from the job's
  /// string length is ignored (cold start). Jobs from submit_script ignore
  /// this field.
  std::optional<std::string> warm_start;
};

struct JobResult {
  smtlib::CheckSatStatus status = smtlib::CheckSatStatus::kUnknown;
  /// Conjunction jobs: decoded string (string-producing ops).
  std::optional<std::string> text;
  /// Conjunction jobs: decoded first-occurrence position (a lone Includes).
  std::optional<std::size_t> position;
  /// Script jobs: model variable and value when status == kSat.
  std::string variable;
  std::string model_value;
  /// Rung that produced the decisive verdict ("presolve" for the exact
  /// presolve, rung 0's name for a warm-start hit; empty when none).
  std::string winner;
  std::vector<std::string> notes;
  /// True when the job's deadline actually cut work short (the task was
  /// cancelled while queued, between attempts, or mid-solve) before any
  /// rung won. A job that exhausted every attempt unverified while the
  /// deadline expired concurrently is kUnknown, not a timeout.
  bool timed_out = false;
  /// True when the verdict was served from the canonical answer cache
  /// (ServiceOptions::answer_cache): no rung ran, winner is
  /// "answer-cache", and the witness was confirmed by one classical
  /// verification against this job's own payload.
  bool answer_cache_hit = false;
  /// Attempts started across all rungs by the time the verdict landed (the
  /// build and presolve at submission count as the first one when they
  /// decide the job; otherwise the first one also runs the warm refine).
  std::size_t attempts = 0;
  /// 1 when the job's task stopped because its token fired (deadline or
  /// external cancellation) before a verdict, else 0.
  std::size_t members_cancelled = 0;
  std::uint64_t tag = 0;
  /// Seconds from submission to task pickup (0 for a job decided at
  /// submission) / to the verdict (steady clock).
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  /// Joins the pool. Jobs still queued resolve kUnknown with a
  /// "service stopped" note; nothing hangs and no future is broken.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits one constraint job; the future resolves when the presolve (at
  /// submission, before this returns) or a rung of the ladder decides,
  /// every rung is exhausted, or the deadline expires.
  std::future<JobResult> submit(strqubo::Constraint constraint,
                                JobOptions options = {});

  /// Enqueues one conjunction job: a model satisfying every conjunct, from
  /// one merged QUBO (strqubo::prepare). Several conjuncts must produce
  /// strings of one length; otherwise the job resolves kUnknown with a
  /// "model build failed" note.
  std::future<JobResult> submit(std::vector<strqubo::Constraint> conjuncts,
                                JobOptions options = {});

  /// Enqueues one SMT-LIB script job (parse errors resolve the future with
  /// kUnknown and an explanatory note — they never throw across the pool).
  std::future<JobResult> submit_script(std::string script,
                                       JobOptions options = {});

  /// Batch conveniences: submit everything, then wait; results are in
  /// input order. `options` applies to every job; seeds are offset by the
  /// job index so jobs stay independent.
  std::vector<JobResult> solve_constraints(
      const std::vector<strqubo::Constraint>& constraints,
      JobOptions options = {});
  std::vector<JobResult> solve_scripts(const std::vector<std::string>& scripts,
                                       JobOptions options = {});

  std::size_t num_workers() const noexcept;

  /// Monotonic whole-service counters (tests, monitoring). Each count is
  /// a telemetry::Tally, so the same increment feeds the service.* and
  /// incremental.warm.* counters of docs/telemetry.md.
  struct Stats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_timed_out = 0;
    /// Jobs whose task observed its token fire (deadline or external
    /// cancellation) before a verdict and stopped.
    std::uint64_t members_cancelled = 0;
    /// Rungs whose sampler threw (e.g. embedding failure); the ladder moves
    /// on to the next rung, the job and the service keep running.
    std::uint64_t member_errors = 0;
    /// Reseeded re-attempts after failed verification.
    std::uint64_t verify_retries = 0;
    std::uint64_t model_cache_hits = 0;
    std::uint64_t model_cache_misses = 0;
    /// Always 0. Kept only because e2ebench reads it (service.fused_ratio);
    /// the next benchmark change removes both.
    std::uint64_t jobs_fused = 0;
    /// Warm-start refinements attempted (JobOptions::warm_start present and
    /// of the job's string length) / refinements whose verified sample
    /// decided the job.
    std::uint64_t warm_starts = 0;
    std::uint64_t warm_hits = 0;
    /// Answer-cache dispositions (ServiceOptions::answer_cache), counted
    /// once per lookup: jobs served straight from a verified cache hit /
    /// jobs whose canonical key missed / hits whose witness failed its
    /// confirmation and fell through to a cold solve. The cache's own
    /// lookup counters relate as answer_cache.hits == answer_hits +
    /// answer_fallbacks (every lookup hit either serves or falls back).
    std::uint64_t answer_hits = 0;
    std::uint64_t answer_misses = 0;
    std::uint64_t answer_fallbacks = 0;
    /// Jobs that missed, were left undecided by the exact stages and parked
    /// behind an in-flight job with the same answer key (single flight)
    /// instead of taking a worker. When its leader ends sat, a parked job
    /// looks the key up again, so one job may count a miss and then a hit
    /// or a fallback.
    std::uint64_t answer_coalesced = 0;
    /// Prepared-model LRU occupancy, also published as the
    /// service.model_cache.{entries,bytes} gauges.
    std::uint64_t model_cache_entries = 0;
    std::uint64_t model_cache_bytes = 0;
  };
  Stats stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qsmt::service
