// qsmt::service — the serving layer: concurrent batch solving with
// portfolio racing, cancellation, and deadlines.
//
// SolveService owns a fixed-size worker pool. Every submitted job (an
// SMT-LIB script or a strqubo::Constraint) is raced by a configurable
// portfolio of samplers — simulated annealing, parallel tempering,
// path-integral quantum simulation, minor-embedded annealing, or any
// custom anneal::Sampler — with first-verified-SAT-wins semantics:
//
//  * the first portfolio member whose decoded model passes classical
//    verification (or, for scripts, whose engine verdict is decisively
//    sat/unsat) fulfils the job's future and cancels the job's
//    CancelSource;
//  * losing members observe the shared CancelToken inside their sweep
//    loops (the same per-sweep plumbing as the annealer's zero-flip early
//    exit) and stop within one sweep, returning their cycles to the pool;
//  * per-job deadlines ride the same token: an expired deadline cancels
//    in-flight members and the job resolves to a graceful kUnknown with
//    timed_out set — deadlines never throw and never lose other jobs;
//  * a member whose decoded model fails verification retries with a
//    reseeded sampler up to ServiceOptions::max_verify_retries times
//    (annealing is stochastic; a fresh RNG stream is often all it takes).
//
// Constraint jobs run the prebuilt-adjacency hot path: the QUBO model and
// its CSR adjacency are built once per distinct constraint (keyed cache,
// shared across jobs and portfolio members) and re-sampled at every
// attempt — see strqubo::PreparedConstraint.
//
// The unit of queued work is one (job, member) pair, so workers never
// block waiting on other tasks and the pool cannot deadlock regardless of
// worker count. Emitted telemetry (docs/telemetry.md): queue depth gauge,
// job latency histograms, portfolio-winner/timeout/cancellation counters.
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
#include "anneal/pimc.hpp"
#include "canon/answer_cache.hpp"
#include "anneal/sampler.hpp"
#include "anneal/simulated_annealer.hpp"
#include "anneal/tempering.hpp"
#include "graph/embedded_sampler.hpp"
#include "route/router.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"
#include "util/cancel.hpp"

namespace qsmt::service {

/// One lane of the portfolio race: a display name plus a thread-safe
/// factory producing the sampler for a given (seed, cancel token) pair.
/// Factories are invoked per (job, member, attempt), so retry-with-reseed
/// gets genuinely independent RNG streams.
struct PortfolioMember {
  std::string name;
  std::function<std::unique_ptr<anneal::Sampler>(std::uint64_t seed,
                                                 CancelToken cancel)>
      make;
};

/// Simulated-annealing lane. `base.seed` and `base.cancel` are overwritten
/// per attempt; every other field is honoured.
PortfolioMember simulated_annealing_member(
    std::string name, anneal::SimulatedAnnealerParams base = {});

/// Parallel-tempering (replica exchange) lane.
PortfolioMember parallel_tempering_member(
    std::string name, anneal::ParallelTemperingParams base = {});

/// Path-integral (simulated quantum annealing) lane.
PortfolioMember path_integral_member(std::string name,
                                     anneal::PathIntegralParams base = {});

/// Minor-embedded hardware-simulation lane. `target` must outlive the
/// service; the cancel token threads through the inner annealer.
PortfolioMember embedded_member(std::string name, const graph::Graph& target,
                                graph::EmbeddedSamplerParams base = {});

/// Exhaustive-enumeration lane (anneal::ExactSolver, <= 30 QUBO variables —
/// larger models throw and the member drops out of its race). Deterministic
/// verdicts for corpus-sized jobs: the server's tests and `qsmt-server
/// --exact` run a single-member exact portfolio so replies are pinnable.
PortfolioMember exact_member(std::string name,
                             anneal::ExactSolverParams base = {});

/// The default race: a fast low-budget annealer (wins easy jobs in
/// milliseconds) against a deep high-budget one (catches what the fast
/// lane misses). Bian et al.'s portfolio observation for annealing-based
/// SAT: heterogeneous effort levels beat any single configuration.
std::vector<PortfolioMember> default_portfolio();

/// A quantum-inclusive race: sa-fast plus a light path-integral lane and a
/// minor-embedded lane onto `target` (which must outlive the service). The
/// embedded lane shares one structure-keyed embedding cache across all of
/// its attempts, so batches of same-shaped string QUBOs embed once and then
/// race warm — the workload Abel et al. describe for annealer model building.
std::vector<PortfolioMember> quantum_portfolio(const graph::Graph& target);

struct ServiceOptions {
  /// Worker threads. 0 = one per CPU the constructing thread may run on
  /// (its sched_getaffinity mask, so taskset and cpusets are honoured;
  /// hardware concurrency where the mask is unavailable; at least 1).
  /// The pool is the only parallelism: each sampler runs its reads on the
  /// worker that calls it.
  std::size_t num_workers = 0;
  /// QUBO build options shared by every job.
  strqubo::BuildOptions build;
  /// The race lanes. Empty = default_portfolio().
  std::vector<PortfolioMember> portfolio;
  /// Extra reseeded attempts per member after a failed verification.
  std::size_t max_verify_retries = 2;
  /// Deadline applied to jobs that do not set their own (0 = none).
  std::chrono::nanoseconds default_deadline{0};
  /// Upper bound on distinct prepared constraints kept in the model cache
  /// (an unbounded cache would grow with the stream of distinct jobs).
  std::size_t model_cache_capacity = 256;
  /// Adaptive portfolio router (docs/routing.md). When set, constraint jobs
  /// consult it before enqueueing: a confident decision dispatches ONLY the
  /// historically-best member (seeds preserved, so the routed run is
  /// bit-identical to that member's leg of the full race); low-confidence
  /// and periodic-explore decisions race the whole portfolio and train the
  /// table. A routed member that fails to decide falls back to racing the
  /// remaining members. Ignored when the router's member list does not
  /// match this portfolio's size, when the portfolio has fewer than two
  /// members, and for script jobs (no structural features). Shared: one
  /// router may serve many services, or many tenants may each pass their
  /// own per-job via JobOptions::router.
  std::shared_ptr<route::Router> router;
  /// Canonical answer cache (docs/caching.md). When set, every job is
  /// looked up at submission — ahead of the router — under its
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
  std::shared_ptr<canon::AnswerCache> answer_cache;
};

struct JobOptions {
  /// Per-job deadline from submission (0 = service default; negative =
  /// already expired, resolves kUnknown/timed_out without sampling).
  std::chrono::nanoseconds deadline{0};
  /// Master seed for this job's sampler streams.
  std::uint64_t seed = 0;
  /// Opaque caller id echoed into JobResult (batch bookkeeping, tests).
  std::uint64_t tag = 0;
  /// External cancellation handle the job adopts when set: cancelling the
  /// source cancels the job's whole portfolio race (the server session uses
  /// this to abort in-flight work when a client disconnects mid-check-sat).
  /// The job's deadline, when any, is armed on this same source.
  std::optional<CancelSource> cancel;
  /// Warm-start seed for constraint jobs: a previously verified witness
  /// from the same logical session (the server's incremental sessions pass
  /// their last sat model). The first member to pick the job up runs one
  /// cheap reverse-anneal refinement from this string before its cold
  /// attempt; if the refined sample verifies, the job is decided without a
  /// full-budget solve. A witness whose length no longer matches the job's
  /// constraint is ignored (cold start). Script jobs ignore this field.
  std::optional<std::string> warm_start;
  /// Per-job router override (the server passes each tenant's own learned
  /// table here). Takes precedence over ServiceOptions::router; the same
  /// member-count and constraint-job-only gating applies.
  std::shared_ptr<route::Router> router;
};

struct JobResult {
  smtlib::CheckSatStatus status = smtlib::CheckSatStatus::kUnknown;
  /// Constraint jobs: decoded string (string-producing ops).
  std::optional<std::string> text;
  /// Constraint jobs: decoded first-occurrence position (Includes).
  std::optional<std::size_t> position;
  /// Script jobs: model variable and value when status == kSat.
  std::string variable;
  std::string model_value;
  /// Portfolio member that produced the decisive verdict (empty when none).
  std::string winner;
  /// Router disposition for this job: "" when no router was consulted,
  /// "routed" (single-member dispatch held), "routed+fallback" (routed
  /// member failed to decide; the rest of the portfolio raced),
  /// "race:low_confidence" or "race:explore" (router chose a full race).
  std::string route;
  std::vector<std::string> notes;
  /// True when the job's deadline actually cut work short (a member was
  /// cancelled while queued, between attempts, or mid-solve) before any
  /// member won. A job whose members exhausted every attempt unverified
  /// while the deadline expired concurrently is kUnknown, not a timeout.
  bool timed_out = false;
  /// True when the verdict was served from the canonical answer cache
  /// (ServiceOptions::answer_cache): no portfolio member ran, winner is
  /// "answer-cache", and the witness was confirmed by one classical
  /// verification against this job's own payload.
  bool answer_cache_hit = false;
  /// Sampling attempts across all members at the time the verdict landed.
  std::size_t attempts = 0;
  /// Losing members that had observed their cancel token by verdict time.
  std::size_t members_cancelled = 0;
  std::uint64_t tag = 0;
  /// Seconds from submission to first member pickup / to the verdict
  /// (steady clock).
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Solution-chained multi-constraint pipeline (the paper's §5 sequential
/// workload as a first-class scheduling object): stage N+1 is submitted when
/// stage N completes, warm-started (reverse-annealed, PR 8 plumbing) from
/// stage N's verified witness instead of starting cold. Stages that fail to
/// produce a witness chain nothing — the next stage runs cold — and the
/// pipeline always runs every stage. `options` applies to every stage;
/// stage i's seed is mix_seed(options.seed, i), so a pipeline's stages stay
/// independent streams. An explicit per-stage warm_start in `options`
/// applies to stage 0 only.
struct PipelineJob {
  std::vector<strqubo::Constraint> stages;
  JobOptions options;
};

struct PipelineResult {
  /// One JobResult per stage, pipeline order.
  std::vector<JobResult> stages;
  /// Every stage decided kSat.
  bool all_sat = false;
  /// Stages whose submission carried the previous stage's witness as a
  /// warm start (route.chain.warm_starts counts the same events).
  std::size_t chained_warm_starts = 0;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  /// Joins the pool. Jobs still queued resolve kUnknown with a
  /// "service stopped" note; nothing hangs and no future is broken.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueues one constraint job; the future resolves when the portfolio
  /// race decides (or the deadline expires).
  std::future<JobResult> submit(strqubo::Constraint constraint,
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

  /// Enqueues a solution-chained pipeline: stage N+1 is submitted from
  /// stage N's completion, warm-started from its witness when one exists.
  /// The future resolves when the last stage does. An empty pipeline
  /// resolves immediately (all_sat vacuously true).
  std::future<PipelineResult> submit_pipeline(PipelineJob pipeline);

  std::size_t num_workers() const noexcept;
  std::size_t portfolio_size() const noexcept;
  /// Member names in portfolio-index order — the list a route::Router for
  /// this service must be constructed over.
  std::vector<std::string> portfolio_names() const;

  /// Monotonic whole-service counters (tests, monitoring).
  struct Stats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_timed_out = 0;
    /// Losing members that observed their token and aborted.
    std::uint64_t members_cancelled = 0;
    /// Members whose sampler threw (e.g. embedding failure); the member
    /// drops out of its race, the job and the service keep running.
    std::uint64_t member_errors = 0;
    /// Reseeded re-attempts after failed verification.
    std::uint64_t verify_retries = 0;
    std::uint64_t model_cache_hits = 0;
    std::uint64_t model_cache_misses = 0;
    /// Always 0. Kept only because e2ebench reads it (service.fused_ratio);
    /// the next benchmark change removes both.
    std::uint64_t jobs_fused = 0;
    /// Warm-start refinements attempted (JobOptions::warm_start present and
    /// the witness type-checked against the prepared model) / refinements
    /// whose verified sample decided the job.
    std::uint64_t warm_starts = 0;
    std::uint64_t warm_hits = 0;
    /// Jobs dispatched to a single routed member (router said kRoute).
    std::uint64_t jobs_routed = 0;
    /// Routed jobs whose member failed to decide and fell back to racing
    /// the remaining portfolio.
    std::uint64_t route_fallbacks = 0;
    /// Pipelines submitted via submit_pipeline.
    std::uint64_t pipelines = 0;
    /// Pipeline stages submitted with the previous stage's witness chained
    /// in as a warm start (one per hop whose upstream produced a witness).
    std::uint64_t chain_warm_starts = 0;
    /// Answer-cache dispositions (ServiceOptions::answer_cache), counted
    /// exactly once per job: jobs served straight from a verified cache
    /// hit / jobs whose canonical key missed / hits whose witness failed
    /// its confirmation and fell through to a cold solve. The cache's own
    /// lookup counters relate as answer_cache.hits == answer_hits +
    /// answer_fallbacks (every lookup hit either serves or falls back).
    std::uint64_t answer_hits = 0;
    std::uint64_t answer_misses = 0;
    std::uint64_t answer_fallbacks = 0;
    /// Prepared-model LRU occupancy (mirrors the
    /// service.model_cache.{entries,bytes} gauges).
    std::uint64_t model_cache_entries = 0;
    std::uint64_t model_cache_bytes = 0;
  };
  Stats stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qsmt::service
