#include "service/service.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "anneal/reverse.hpp"
#include "canon/canon.hpp"
#include "engine/engine.hpp"
#include "route/features.hpp"
#include "smtlib/compiler.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/solver.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace qsmt::service {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Default pool size: the CPUs this thread may run on, which honours
// taskset and cpuset limits that hardware_concurrency() ignores.
std::size_t default_worker_count() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0 && CPU_COUNT(&cpus) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&cpus));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// Exact structural key for the prepared-model cache (now the shared
// strqubo::structure_key, which the incremental fragment cache keys by
// too, so both layers agree on what "structurally identical" means).
std::string cache_key(const strqubo::Constraint& constraint) {
  return strqubo::structure_key(constraint);
}

// Retained-footprint estimate of one prepared-model cache entry (key +
// QUBO linear/quadratic terms, doubled for the CSR adjacency mirror) —
// feeds the service.model_cache.bytes gauge.
std::size_t prepared_bytes(const std::string& key,
                           const strqubo::PreparedConstraint& prepared) {
  return key.size() + prepared.model.num_variables() * sizeof(double) +
         prepared.model.num_interactions() *
             (sizeof(std::uint64_t) + sizeof(double)) * 2 +
         64;
}

// Round-trips a script-unsat verdict's notes through one CachedAnswer
// field: joined on store, split back on serve, so a warmed unsat reply
// carries the cold path's explanation verbatim.
std::string join_notes(const std::vector<std::string>& notes) {
  std::string joined;
  for (const std::string& note : notes) {
    if (!joined.empty()) joined += '\n';
    joined += note;
  }
  return joined;
}

void split_notes(const std::string& joined, std::vector<std::string>& out) {
  std::size_t begin = 0;
  while (begin <= joined.size() && !joined.empty()) {
    const std::size_t end = joined.find('\n', begin);
    if (end == std::string::npos) {
      out.push_back(joined.substr(begin));
      break;
    }
    out.push_back(joined.substr(begin, end - begin));
    begin = end + 1;
  }
}

}  // namespace

PortfolioMember simulated_annealing_member(
    std::string name, anneal::SimulatedAnnealerParams base) {
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base](std::uint64_t seed,
                       CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    anneal::SimulatedAnnealerParams params = base;
    params.seed = seed;
    params.cancel = std::move(cancel);
    return std::make_unique<anneal::SimulatedAnnealer>(params);
  };
  return member;
}

PortfolioMember parallel_tempering_member(std::string name,
                                          anneal::ParallelTemperingParams base) {
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base](std::uint64_t seed,
                       CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    anneal::ParallelTemperingParams params = base;
    params.seed = seed;
    params.cancel = std::move(cancel);
    return std::make_unique<anneal::ParallelTempering>(params);
  };
  return member;
}

PortfolioMember path_integral_member(std::string name,
                                     anneal::PathIntegralParams base) {
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base](std::uint64_t seed,
                       CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    anneal::PathIntegralParams params = base;
    params.seed = seed;
    params.cancel = std::move(cancel);
    return std::make_unique<anneal::PathIntegralAnnealer>(params);
  };
  return member;
}

PortfolioMember embedded_member(std::string name, const graph::Graph& target,
                                graph::EmbeddedSamplerParams base) {
  // One embedding cache for every sampler this lane ever constructs:
  // attempts get fresh samplers (independent RNG streams), but the first
  // solve of each graph shape pays for the embedding search exactly once —
  // warm solves of structurally-identical QUBOs skip find_embedding.
  if (!base.embedding_cache) {
    base.embedding_cache = std::make_shared<graph::EmbeddingCache>();
  }
  PortfolioMember member;
  member.name = std::move(name);
  member.make = [base, &target](
                    std::uint64_t seed,
                    CancelToken cancel) -> std::unique_ptr<anneal::Sampler> {
    graph::EmbeddedSamplerParams params = base;
    params.anneal.seed = seed;
    params.anneal.cancel = std::move(cancel);
    return std::make_unique<graph::EmbeddedSampler>(target, params);
  };
  return member;
}

PortfolioMember exact_member(std::string name,
                             anneal::ExactSolverParams base) {
  PortfolioMember member;
  member.name = std::move(name);
  // Enumeration is deterministic and fast at corpus scale, so the seed is
  // irrelevant and cancellation lands between jobs, not mid-enumeration.
  member.make = [base](std::uint64_t /*seed*/, CancelToken /*cancel*/)
      -> std::unique_ptr<anneal::Sampler> {
    return std::make_unique<anneal::ExactSolver>(base);
  };
  return member;
}

std::vector<PortfolioMember> default_portfolio() {
  anneal::SimulatedAnnealerParams fast;
  fast.num_reads = 16;
  fast.num_sweeps = 64;
  anneal::SimulatedAnnealerParams deep;
  deep.num_reads = 64;
  deep.num_sweeps = 512;
  std::vector<PortfolioMember> portfolio;
  portfolio.push_back(simulated_annealing_member("sa-fast", fast));
  portfolio.push_back(simulated_annealing_member("sa-deep", deep));
  return portfolio;
}

std::vector<PortfolioMember> quantum_portfolio(const graph::Graph& target) {
  anneal::SimulatedAnnealerParams fast;
  fast.num_reads = 16;
  fast.num_sweeps = 64;
  // Light PIMC lane: with the incremental-field kernel a low-budget
  // transverse-field schedule is competitive with sa-fast on quantum-friendly
  // (frustrated / degenerate) workloads instead of losing every race.
  anneal::PathIntegralParams pimc;
  pimc.num_reads = 4;
  pimc.num_sweeps = 48;
  pimc.num_slices = 8;
  // Embedded lane: the shared embedding cache inside embedded_member means
  // only the first job of each graph shape pays the minor-embedding search.
  graph::EmbeddedSamplerParams embedded;
  embedded.anneal.num_reads = 16;
  embedded.anneal.num_sweeps = 96;
  std::vector<PortfolioMember> portfolio;
  portfolio.push_back(simulated_annealing_member("sa-fast", fast));
  portfolio.push_back(path_integral_member("pimc-light", pimc));
  portfolio.push_back(embedded_member("embedded", target, embedded));
  return portfolio;
}

struct SolveService::Impl {
  // Sentinel for "no member won" in Job::winner_member (build failures,
  // parse errors, exhausted races, shutdown resolutions).
  static constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

  struct Job : std::enable_shared_from_this<Job> {
    std::variant<strqubo::Constraint, std::string> payload;
    /// cache_key() of a constraint payload, computed once at submission
    /// (empty for script jobs): the prepared-model cache key.
    std::string structure_key;
    /// Canonical answer-cache key (empty = not cacheable or no cache
    /// configured) and, for script jobs, the canonical form whose renaming
    /// remaps cached witness variables and whose original assertions the
    /// hit confirmation compiles. Both fixed at submission.
    std::string answer_key;
    std::shared_ptr<const canon::CanonicalScript> canonical;
    /// Served from the answer cache: complete() must not re-insert.
    bool answer_cache_hit = false;
    JobOptions options;
    SteadyClock::time_point enqueued;
    bool has_deadline = false;
    CancelSource cancel;
    std::promise<JobResult> promise;
    /// Owner election: the member (or shutdown path) that flips this from
    /// false fills the result and fulfils the promise — nobody else touches
    /// either afterwards.
    std::atomic<bool> decided{false};
    /// First member to pick the job up records the queue latency. Atomic:
    /// a sibling that wins fast reads it in complete() concurrently.
    std::atomic<bool> started{false};
    std::atomic<double> queue_seconds{0.0};
    /// Countdown to the last loser, which must emit the kUnknown verdict.
    std::atomic<std::size_t> members_left{0};
    std::atomic<std::size_t> attempts{0};
    std::atomic<std::size_t> cancelled_members{0};
    /// Set when a member's work was actually interrupted by the deadline
    /// (cancelled while queued, between attempts, or mid-solve) — as
    /// opposed to every member exhausting its attempts unverified while
    /// the deadline happened to expire concurrently. Only the former is a
    /// timeout.
    std::atomic<bool> deadline_cut_short{false};
    /// Diagnostics from members whose sampler/solve threw (e.g. an
    /// embedding failure); attached to the verdict when no member wins.
    std::mutex error_notes_mutex;
    std::vector<std::string> error_notes;
    /// The warm-start refinement (JobOptions::warm_start) runs at most once
    /// per job, from whichever member reaches the prepared model first.
    std::atomic<bool> warm_tried{false};
    /// Built once per job (all members share it) under build_once; on
    /// failure build_error carries the message instead.
    std::once_flag build_once;
    std::shared_ptr<const strqubo::PreparedConstraint> prepared;
    std::string build_error;
    /// Adaptive routing (docs/routing.md). `router` is the resolved table
    /// this job consults and trains (JobOptions::router, else
    /// ServiceOptions::router; null when gating rejected it or the decision
    /// raced); bucket/disposition are fixed at submission.
    std::shared_ptr<route::Router> router;
    std::string route_bucket;
    /// "" | "routed" | "routed+fallback" | "race:low_confidence" |
    /// "race:explore" — mirrored into JobResult::route.
    const char* route_disposition = "";
    /// True when the router dispatched a single member for this job.
    bool routed = false;
    std::size_t routed_member = 0;
    /// Set by the one finisher that converts a failed routed dispatch into
    /// a fallback race (guards against double re-enqueue).
    std::atomic<bool> fell_back{false};
    /// Member index that claimed the verdict (kNoWinner otherwise); feeds
    /// the router's win/loss ledger in complete().
    std::atomic<std::size_t> winner_member{kNoWinner};
    /// The verdict came from the warm-start refinement, which is
    /// member-independent — complete() must not credit the claiming member
    /// with a routing win for it.
    std::atomic<bool> warm_won{false};
    /// Every raced member genuinely ran out of attempts undecided (the
    /// finish_if_last kUnknown, not a build failure or shutdown) — the one
    /// no-winner outcome that legitimately debits the whole portfolio in
    /// the router's ledger.
    std::atomic<bool> exhausted{false};
    /// Caller adopted an external CancelSource (claim_and_finish must
    /// always cancel so the caller's other handles observe the verdict).
    bool external_cancel = false;
    /// Invoked (worker thread) in complete() after the result is filled,
    /// just before the promise resolves — the pipeline-chaining hook.
    std::function<void(const JobResult&)> on_complete;
  };

  struct Task {
    std::shared_ptr<Job> job;
    std::size_t member = 0;
  };

  explicit Impl(ServiceOptions opts) : options(std::move(opts)) {
    if (options.portfolio.empty()) options.portfolio = default_portfolio();
    for (const PortfolioMember& member : options.portfolio) {
      if (!member.make) {
        throw std::invalid_argument(
            "SolveService: portfolio member '" + member.name +
            "' has no sampler factory");
      }
    }
    if (options.num_workers == 0) options.num_workers = default_worker_count();
    if (options.model_cache_capacity == 0) options.model_cache_capacity = 1;
    workers.reserve(options.num_workers);
    for (std::size_t i = 0; i < options.num_workers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      stopping = true;
    }
    queue_cv.notify_all();
    for (std::thread& worker : workers) worker.join();
    // Whatever is still queued can no longer run; resolve every pending
    // promise exactly once so no caller blocks on a dead service.
    for (Task& task : queue) {
      resolve_unrun(*task.job, "service stopped before solve");
    }
    queue.clear();
  }

  /// Routing gate + decision for one job at submission. Fills the job's
  /// router fields and returns how many member tasks to enqueue (the
  /// routed member alone, or the whole portfolio).
  void decide_route(Job& job) {
    const auto* constraint = std::get_if<strqubo::Constraint>(&job.payload);
    if (constraint == nullptr) return;  // Scripts have no features.
    std::shared_ptr<route::Router> router =
        job.options.router ? job.options.router : options.router;
    // A router learned over a different portfolio (or a portfolio with no
    // race to prune) is ignored rather than mis-applied.
    if (!router || router->num_members() != options.portfolio.size() ||
        options.portfolio.size() < 2) {
      return;
    }
    const route::RouteDecision decision =
        router->decide(route::extract_features(*constraint));
    job.router = std::move(router);
    job.route_bucket = decision.bucket;
    if (decision.action == route::RouteAction::kRoute) {
      job.routed = true;
      job.routed_member = decision.member;
      job.route_disposition = "routed";
      stats_routed.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::counter("service.jobs.routed").add();
      }
    } else {
      job.route_disposition =
          decision.reason == route::RaceReason::kExplore
              ? "race:explore"
              : "race:low_confidence";
    }
  }

  std::future<JobResult> enqueue(
      std::variant<strqubo::Constraint, std::string> payload,
      JobOptions job_options,
      std::function<void(const JobResult&)> on_complete = {}) {
    auto job = std::make_shared<Job>();
    job->on_complete = std::move(on_complete);
    job->payload = std::move(payload);
    if (const auto* constraint =
            std::get_if<strqubo::Constraint>(&job->payload)) {
      job->structure_key = cache_key(*constraint);
    }
    job->options = std::move(job_options);
    job->enqueued = SteadyClock::now();
    std::future<JobResult> future = job->promise.get_future();

    // Canonical answer cache: look the job up ahead of the router. A
    // verified hit resolves the future right here — no member task is ever
    // queued — and a failed confirmation falls through to the cold path
    // below. Jobs whose deadline is already expired (negative) or whose
    // external cancel already fired skip the lookup so their cold
    // timeout/cancellation semantics are untouched.
    if (options.answer_cache) {
      if (const auto* constraint =
              std::get_if<strqubo::Constraint>(&job->payload)) {
        job->answer_key =
            canon::constraint_answer_key(*constraint, options.build);
      } else {
        auto canonical = std::make_shared<const canon::CanonicalScript>(
            canon::canonicalize_script(std::get<std::string>(job->payload)));
        if (canonical->cacheable) {
          job->answer_key = canon::script_answer_key(*canonical, options.build);
          job->canonical = std::move(canonical);
        }
      }
      std::chrono::nanoseconds effective = job->options.deadline;
      if (effective.count() == 0) effective = options.default_deadline;
      const bool already_cancelled =
          job->options.cancel && job->options.cancel->token().cancelled();
      if (!job->answer_key.empty() && effective.count() >= 0 &&
          !already_cancelled) {
        if (std::optional<canon::CachedAnswer> cached =
                options.answer_cache->lookup(job->answer_key)) {
          if (serve_cached(*job, *cached)) return future;
          stats_answer_fallbacks.fetch_add(1, std::memory_order_relaxed);
          if (telemetry::enabled()) {
            telemetry::counter("service.answer.fallbacks").add();
          }
        } else {
          stats_answer_misses.fetch_add(1, std::memory_order_relaxed);
          if (telemetry::enabled()) {
            telemetry::counter("service.answer.misses").add();
          }
        }
      }
    }

    decide_route(*job);
    job->members_left.store(job->routed ? 1 : options.portfolio.size(),
                            std::memory_order_relaxed);
    // Adopt an external cancellation handle before arming the deadline so
    // both signals share one state: the caller's cancel() and the deadline
    // race to the same token every member polls.
    if (job->options.cancel) {
      job->cancel = *job->options.cancel;
      job->external_cancel = true;
    }
    std::chrono::nanoseconds deadline = job->options.deadline;
    if (deadline.count() == 0) deadline = options.default_deadline;
    if (deadline.count() != 0) {
      job->has_deadline = true;
      job->cancel.set_deadline_after(deadline);
    }
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (stopping) {
        rejected = true;
      } else if (job->routed) {
        // Routed dispatch: one member task, everyone else stays home. The
        // seed stream is the same mix the race would hand this member, so
        // the routed run is bit-identical to its race leg.
        queue.push_back(Task{job, job->routed_member});
      } else {
        // All member tasks adjacent: the portfolio race for one job starts
        // as soon as workers free up, instead of interleaving with later
        // jobs' members.
        for (std::size_t m = 0; m < options.portfolio.size(); ++m) {
          queue.push_back(Task{job, m});
        }
      }
      if (!rejected) publish_queue_depth_locked();
    }
    if (rejected) {
      // Outside the queue lock: resolving runs the job's on_complete hook,
      // and a pipeline's hook re-enters enqueue() for the next stage.
      resolve_unrun(*job, "service stopped before solve");
      return future;
    }
    queue_cv.notify_all();
    stats_submitted.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.jobs.submitted").add();
    }
    return future;
  }

  /// In-flight state of one solution-chained pipeline. Stages run strictly
  /// sequentially (stage N+1 is submitted from stage N's on_complete hook),
  /// so the mutable fields are touched by one thread at a time with
  /// happens-before through the queue mutex.
  struct PipelineState {
    std::vector<strqubo::Constraint> stages;
    JobOptions base;
    std::promise<PipelineResult> promise;
    PipelineResult result;
  };

  std::future<PipelineResult> submit_pipeline(PipelineJob pipeline) {
    auto state = std::make_shared<PipelineState>();
    state->stages = std::move(pipeline.stages);
    state->base = std::move(pipeline.options);
    state->result.stages.reserve(state->stages.size());
    std::future<PipelineResult> future = state->promise.get_future();
    stats_pipelines.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("route.chain.pipelines").add();
    }
    if (state->stages.empty()) {
      state->result.all_sat = true;
      state->promise.set_value(std::move(state->result));
      return future;
    }
    submit_stage(state, 0, state->base.warm_start);
    return future;
  }

  /// Submits pipeline stage `index`. `warm` is the previous stage's
  /// verified witness (or the caller's own warm_start for stage 0); it
  /// rides the ordinary JobOptions::warm_start reverse-anneal plumbing, so
  /// chaining changes where a stage starts, never what it can answer.
  void submit_stage(const std::shared_ptr<PipelineState>& state,
                    std::size_t index, std::optional<std::string> warm) {
    JobOptions stage_options = state->base;
    stage_options.seed = mix_seed(state->base.seed, index);
    stage_options.warm_start = std::move(warm);
    if (index > 0 && stage_options.warm_start.has_value()) {
      // Exactly one bump per chained hop — tests pin this against the
      // stage count (tests/router_test.cpp).
      ++state->result.chained_warm_starts;
      stats_chain_warm_starts.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::counter("route.chain.warm_starts").add();
      }
    }
    if (telemetry::enabled()) {
      telemetry::counter("route.chain.stages").add();
    }
    // The stage's own future is intentionally dropped: its result arrives
    // through the on_complete hook below (exactly once, even when the
    // service is stopping — enqueue resolves rejected jobs inline).
    enqueue(state->stages[index], std::move(stage_options),
            [this, state, index](const JobResult& result) {
              state->result.stages.push_back(result);
              const std::size_t next = index + 1;
              if (next < state->stages.size()) {
                std::optional<std::string> chained;
                if (result.status == smtlib::CheckSatStatus::kSat &&
                    result.text.has_value()) {
                  chained = result.text;
                }
                submit_stage(state, next, std::move(chained));
                return;
              }
              bool all_sat = true;
              for (const JobResult& stage : state->result.stages) {
                all_sat &= stage.status == smtlib::CheckSatStatus::kSat;
              }
              state->result.all_sat = all_sat;
              state->promise.set_value(std::move(state->result));
            });
  }

  void worker_loop() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (stopping) return;
        task = std::move(queue.front());
        queue.pop_front();
        publish_queue_depth_locked();
      }
      run_member(*task.job, task.member);
    }
  }

  /// Records queue latency the first time any member picks the job up.
  void mark_started(Job& job) {
    if (!job.started.exchange(true, std::memory_order_acq_rel)) {
      const double waited =
          std::chrono::duration<double>(SteadyClock::now() - job.enqueued)
              .count();
      job.queue_seconds.store(waited, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::histogram("service.job.wait_seconds",
                             telemetry::Unit::kSeconds)
            .record(waited);
      }
    }
  }

  /// One cheap reverse-anneal refinement seeded from the caller's previous
  /// witness (JobOptions::warm_start), run at most once per job by
  /// whichever member reaches the prepared model first. A refined sample
  /// that passes classical verification decides the job before anyone pays
  /// a full-budget solve; any miss (witness no longer type-checks against
  /// the model, refinement unverified, refiner threw) silently falls back
  /// to the cold path. Returns true when this call claimed the verdict
  /// (member bookkeeping fully settled via claim_and_finish).
  bool try_warm_start(Job& job, const PortfolioMember& member,
                      const strqubo::PreparedConstraint& prepared) {
    if (!job.options.warm_start.has_value()) return false;
    if (job.warm_tried.exchange(true, std::memory_order_acq_rel)) {
      return false;
    }
    const std::string& witness = *job.options.warm_start;
    if (!strenc::is_ascii7(witness)) return false;
    std::vector<std::uint8_t> initial = strenc::encode_string(witness);
    if (initial.size() > prepared.model.num_variables()) return false;
    initial.resize(prepared.model.num_variables(), 0);

    stats_warm_starts.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("incremental.warm.starts").add();
    }
    try {
      anneal::ReverseAnnealerParams params;
      params.num_reads = 8;
      params.num_sweeps = 64;
      params.reheat_fraction = 0.35;
      params.seed = mix_seed(job.options.seed, 0x77a7);
      const anneal::ReverseAnnealer refiner(std::move(initial), params);
      const anneal::SampleSet samples = refiner.sample(prepared.adjacency);
      const strqubo::SolveResult solved = strqubo::decode_and_verify(
          std::get<strqubo::Constraint>(job.payload), samples);
      if (!solved.satisfied) return false;
      if (claim_and_finish(job, kNoWinner, [&](JobResult& result) {
            result.status = smtlib::CheckSatStatus::kSat;
            result.text = solved.text;
            result.position = solved.position;
            result.winner = member.name;
            result.notes.push_back("warm start");
            // The refinement is member-independent: whoever reached the
            // prepared model first ran it. Routing must not credit the
            // member, or warm sessions would train the table on luck.
            job.warm_won.store(true, std::memory_order_relaxed);
            record_winner(member.name);
            // Inside the claim so the increment is sequenced before the
            // promise resolves (a caller snapshotting stats right after
            // .get() must see this hit).
            stats_warm_hits.fetch_add(1, std::memory_order_relaxed);
            if (telemetry::enabled()) {
              telemetry::counter("incremental.warm.hits").add();
            }
          })) {
        return true;
      }
    } catch (const std::exception&) {
      // The refinement is opportunistic; the cold attempt still runs.
    }
    return false;
  }

  /// One (job, member) race lane: the member's reseeded attempt loop.
  /// Always settles this member's race bookkeeping before returning.
  void run_member(Job& job, std::size_t member_index) {
    const CancelToken token = job.cancel.token();
    mark_started(job);
    if (token.cancelled()) {
      // Cancelled before a single sweep: either a sibling won (count the
      // cancellation) or the deadline expired while queued, which cut the
      // job short (this member may be the one that must emit the timeout).
      if (job.decided.load(std::memory_order_acquire)) {
        record_member_cancelled(job);
        release_member(job);
      } else {
        job.deadline_cut_short.store(true, std::memory_order_relaxed);
        finish_if_last(job);
      }
      return;
    }
    const PortfolioMember& member = options.portfolio[member_index];

    // True when this member must stop racing. A cancelled token on an
    // undecided job can only mean the deadline (a winner flips `decided`
    // before cancelling), so observing it here — between attempts or right
    // after a sweep loop aborted — marks the job as cut short by its
    // deadline rather than exhausted.
    const auto aborted = [&]() -> bool {
      if (job.decided.load(std::memory_order_acquire)) return true;
      if (token.cancelled()) {
        job.deadline_cut_short.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };

    for (std::size_t attempt = 0; attempt <= options.max_verify_retries;
         ++attempt) {
      if (aborted()) break;
      if (attempt > 0) {
        stats_retries.fetch_add(1, std::memory_order_relaxed);
        if (telemetry::enabled()) {
          telemetry::counter("service.retry.attempts").add();
        }
      }
      job.attempts.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t seed = mix_seed(
          mix_seed(job.options.seed, member_index + 1), attempt + 1);
      std::unique_ptr<anneal::Sampler> sampler;
      try {
        sampler = member.make(seed, token);
      } catch (const std::exception& error) {
        fail_member(job, member, error.what());
        return;
      }

      if (std::holds_alternative<strqubo::Constraint>(job.payload)) {
        const strqubo::PreparedConstraint* prepared = prepare_job(job);
        if (prepared == nullptr) {
          // Build failed; the error is deterministic, so retrying or
          // letting other members run the same build would only repeat it.
          if (!claim_and_finish(job, kNoWinner, [&](JobResult& result) {
                result.notes.push_back("model build failed: " +
                                       job.build_error);
              })) {
            release_member(job);
          }
          return;
        }
        if (try_warm_start(job, member, *prepared)) return;
        if (aborted()) break;  // A sibling's warm start may have claimed.
        strqubo::SolveResult solved;
        try {
          const strqubo::StringConstraintSolver solver(*sampler,
                                                       options.build);
          solved = solver.solve(*prepared);
        } catch (const std::exception& error) {
          // E.g. EmbeddedSampler failing to embed the model. Worker threads
          // must never let an exception escape (std::terminate); the member
          // drops out of the race and its siblings keep going.
          fail_member(job, member, error.what());
          return;
        }
        if (solved.satisfied) {
          if (claim_and_finish(job, member_index, [&](JobResult& result) {
                result.status = smtlib::CheckSatStatus::kSat;
                result.text = solved.text;
                result.position = solved.position;
                result.winner = member.name;
                // Inside the claim so the increment is sequenced before the
                // promise resolves — a caller snapshotting telemetry right
                // after .get() must see this job's winner.
                record_winner(member.name);
              })) {
            return;
          }
          break;  // Sibling won between our solve and the claim.
        }
        // Decoded model failed verification: loop for a reseeded attempt
        // (noting first whether the deadline aborted this solve mid-sweep —
        // the top-of-loop check never runs after the last attempt).
        if (aborted()) break;
      } else {
        const std::string& script = std::get<std::string>(job.payload);
        engine::ScriptResult solved;
        try {
          solved = engine::solve_script(script, *sampler, options.build);
        } catch (const std::invalid_argument& error) {
          // Parse errors are deterministic for the whole job: no sibling
          // can do better, so claim the verdict instead of dropping out.
          if (!claim_and_finish(job, kNoWinner,
                                [&, message = std::string(error.what())](
                                    JobResult& result) {
                result.notes.push_back("parse error: " + message);
              })) {
            release_member(job);
          }
          return;
        } catch (const std::exception& error) {
          fail_member(job, member, error.what());
          return;
        }
        if (solved.status != smtlib::CheckSatStatus::kUnknown) {
          if (claim_and_finish(job, member_index, [&](JobResult& result) {
                result.status = solved.status;
                result.variable = solved.variable;
                result.model_value = solved.model_value;
                result.notes = solved.notes;
                result.winner = member.name;
                record_winner(member.name);
              })) {
            return;
          }
          break;
        }
        // kUnknown from a complete run: loop for a reseeded attempt.
        if (aborted()) break;
      }
    }

    // Lost: a sibling decided, the deadline expired mid-solve, or every
    // reseeded attempt came back unverified.
    if (token.cancelled() && job.decided.load(std::memory_order_acquire)) {
      record_member_cancelled(job);
    }
    finish_if_last(job);
  }

  /// A member's sampler threw (e.g. no embedding onto the target topology):
  /// record the diagnostic and drop the member out of the race. Siblings
  /// keep racing; if none wins, the error notes ride the kUnknown verdict.
  /// Nothing may propagate out of a worker thread — an escaped exception
  /// would std::terminate the whole service.
  void fail_member(Job& job, const PortfolioMember& member,
                   const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(job.error_notes_mutex);
      job.error_notes.push_back("portfolio member '" + member.name +
                                "' failed: " + message);
    }
    stats_member_errors.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.member.errors").add();
    }
    finish_if_last(job);
  }

  /// Builds (or fetches from the cache) the job's PreparedConstraint.
  /// Returns nullptr when the build threw; job.build_error has the message.
  const strqubo::PreparedConstraint* prepare_job(Job& job) {
    std::call_once(job.build_once, [&] {
      const auto& constraint = std::get<strqubo::Constraint>(job.payload);
      const std::string& key = job.structure_key;
      {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = cache.find(key);
        if (it != cache.end()) {
          job.prepared = it->second->prepared;
          cache_lru.splice(cache_lru.begin(), cache_lru, it->second);
          stats_cache_hits.fetch_add(1, std::memory_order_relaxed);
          if (telemetry::enabled()) {
            telemetry::counter("service.model_cache.hits").add();
          }
          return;
        }
      }
      stats_cache_misses.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::counter("service.model_cache.misses").add();
      }
      try {
        // Build outside the cache lock: builds dominate and would serialise
        // every worker otherwise. Two threads may race the same key; the
        // loser's insert is a no-op and its build is wasted once.
        auto prepared = std::make_shared<const strqubo::PreparedConstraint>(
            strqubo::prepare(constraint, options.build));
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = cache.find(key);
        if (it == cache.end()) {
          const std::size_t entry_bytes = prepared_bytes(key, *prepared);
          cache_bytes += entry_bytes;
          cache_lru.push_front(CacheEntry{key, prepared, entry_bytes});
          cache.emplace(key, cache_lru.begin());
          while (cache.size() > options.model_cache_capacity) {
            cache_bytes -= cache_lru.back().bytes;
            cache.erase(cache_lru.back().key);
            cache_lru.pop_back();
          }
          if (telemetry::enabled()) {
            telemetry::gauge("service.model_cache.entries")
                .set(static_cast<double>(cache_lru.size()));
            telemetry::gauge("service.model_cache.bytes",
                             telemetry::Unit::kBytes)
                .set(static_cast<double>(cache_bytes));
          }
        }
        job.prepared = std::move(prepared);
      } catch (const std::exception& error) {
        job.build_error = error.what();
      }
    });
    return job.prepared.get();
  }

  /// Atomically claims the verdict for the calling member. On success runs
  /// `fill` on a fresh JobResult, cancels the siblings, fulfils the promise
  /// and records completion telemetry. `winner_member` is the portfolio
  /// index whose solve produced the verdict (kNoWinner for member-neutral
  /// claims: build failures, parse errors, warm starts) — it feeds the
  /// router's ledger in complete(). Returns false when a sibling already
  /// claimed (the caller simply finishes as a loser).
  template <typename Fill>
  bool claim_and_finish(Job& job, std::size_t winner_member, Fill&& fill) {
    bool expected = false;
    if (!job.decided.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return false;
    }
    job.winner_member.store(winner_member, std::memory_order_relaxed);
    // Single-member portfolios with nothing armed on the token have nobody
    // to signal: skip the cancel write so the no-race configuration pays no
    // race scaffolding (bench/service_bench.cpp measures this path).
    if (options.portfolio.size() > 1 || job.has_deadline ||
        job.external_cancel) {
      job.cancel.cancel();
    }
    JobResult result;
    fill(result);
    complete(job, std::move(result));
    release_member(job);
    return true;
  }

  /// Resolves a job whose member tasks will never run (shutdown races).
  /// Idempotent across members: only the first call claims the verdict.
  void resolve_unrun(Job& job, const std::string& note) {
    bool expected = false;
    if (!job.decided.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return;
    }
    JobResult result;
    result.notes.push_back(note);
    complete(job, std::move(result));
  }

  /// A routed dispatch that failed to decide (member lost every attempt,
  /// threw, or was pre-empted by shutdown of its lane) gets one fallback:
  /// the remaining portfolio races exactly as it would have without the
  /// router — same per-(member, attempt) seeds — so routing can delay but
  /// never change a verdict. Returns true when the fallback race was
  /// enqueued (the job stays live); false hands the verdict back to the
  /// normal last-loser path. Only the finisher that observed the countdown
  /// hit zero calls this, so the exchange is uncontended in practice.
  bool maybe_fallback(Job& job) {
    if (!job.routed) return false;
    if (job.decided.load(std::memory_order_acquire)) return false;
    // Deadline or external cancellation: no point starting new members.
    if (job.cancel.token().cancelled()) return false;
    if (options.portfolio.size() < 2) return false;
    if (job.fell_back.exchange(true, std::memory_order_acq_rel)) return false;

    // Ledger first (fallback = the routed member failed this bucket), and
    // the disposition before the tasks so a fast fallback winner's
    // complete() observes it (ordered by the queue mutex).
    job.route_disposition = "routed+fallback";
    if (job.router) {
      job.router->record_fallback(job.route_bucket, job.routed_member);
    }
    stats_route_fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.route.fallbacks").add();
    }

    std::shared_ptr<Job> self = job.shared_from_this();
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (stopping) return false;  // Shutdown: emit the kUnknown verdict.
      job.members_left.store(options.portfolio.size() - 1,
                             std::memory_order_relaxed);
      for (std::size_t m = 0; m < options.portfolio.size(); ++m) {
        if (m == job.routed_member) continue;
        queue.push_back(Task{self, m});
      }
      publish_queue_depth_locked();
    }
    queue_cv.notify_all();
    return true;
  }

  /// Loser bookkeeping: the last member to finish an undecided job owns the
  /// kUnknown (or timeout) verdict.
  void finish_if_last(Job& job) {
    if (job.members_left.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    if (maybe_fallback(job)) return;
    bool expected = false;
    if (!job.decided.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return;
    }
    JobResult result;
    // timed_out only when the deadline actually interrupted work — not when
    // every member ran its full attempt budget unverified and the deadline
    // merely expired concurrently with the bookkeeping.
    result.timed_out =
        job.has_deadline &&
        job.deadline_cut_short.load(std::memory_order_relaxed);
    if (result.timed_out) {
      result.notes.push_back("deadline expired");
      stats_timeouts.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        telemetry::counter("service.job.timeouts").add();
      }
    } else {
      result.notes.push_back("no portfolio member produced a verified model");
      job.exhausted.store(true, std::memory_order_relaxed);
    }
    {
      // The countdown hitting zero means every member finished, so all
      // appends happened-before this read; the lock keeps ASan/TSan happy
      // about a racing append from a member that failed after the claim.
      std::lock_guard<std::mutex> lock(job.error_notes_mutex);
      for (std::string& note : job.error_notes) {
        result.notes.push_back(std::move(note));
      }
    }
    complete(job, std::move(result));
  }

  /// Feeds this job's outcome back into its router ledger. Only genuine
  /// member-quality signals train the table: warm-start verdicts are
  /// member-independent, timeouts and cancellations say nothing about who
  /// would have won, and build/parse failures are deterministic for every
  /// member. A failed routed dispatch recorded its own fallback loss in
  /// maybe_fallback, so the no-winner branch here only debits full races.
  void record_route_outcome(Job& job) {
    if (!job.router) return;
    if (job.warm_won.load(std::memory_order_relaxed)) return;
    if (job.deadline_cut_short.load(std::memory_order_relaxed)) return;
    const std::size_t winner = job.winner_member.load(std::memory_order_relaxed);
    if (winner != kNoWinner) {
      // Full races debit every beaten sibling; routed hits and fallback
      // winners ran alone (or after the fallback loss already landed).
      job.router->record_win(job.route_bucket, winner,
                             /*was_race=*/!job.routed);
    } else if (!job.routed && job.exhausted.load(std::memory_order_relaxed)) {
      for (std::size_t m = 0; m < options.portfolio.size(); ++m) {
        job.router->record_loss(job.route_bucket, m);
      }
    }
  }

  /// Confirms one answer-cache hit against this job's own payload and, on
  /// success, resolves the job on the submitting thread: no member task is
  /// queued, winner is "answer-cache", attempts stay zero, and the
  /// pipeline/on_complete plumbing fires through the ordinary complete()
  /// path. Exactly ONE classical verification guards every served witness:
  /// verify_string / verify_position for constraint jobs, a compile of the
  /// job's ORIGINAL assertions plus per-constraint verify_string for
  /// script-sat hits. Script-unsat hits are served on key identity alone —
  /// the full-string canonical key proves the hit is an alpha-variant of
  /// the formula whose cold unsat was exact/certified. Returns false (job
  /// untouched, cold solve proceeds) on any mismatch, so a stale or
  /// poisoned entry costs one cheap check, never a wrong verdict.
  bool serve_cached(Job& job, const canon::CachedAnswer& answer) {
    JobResult result;
    if (const auto* constraint =
            std::get_if<strqubo::Constraint>(&job.payload)) {
      // Constraint jobs only ever resolve kSat on the cold path.
      if (answer.status != smtlib::CheckSatStatus::kSat) return false;
      if (const auto* includes = std::get_if<strqubo::Includes>(constraint)) {
        if (!strqubo::verify_position(*includes, answer.position)) {
          return false;
        }
        result.position = answer.position;
      } else {
        if (!answer.text.has_value() ||
            !strqubo::verify_string(*constraint, *answer.text)) {
          return false;
        }
        result.text = answer.text;
      }
      result.status = smtlib::CheckSatStatus::kSat;
    } else {
      if (!job.canonical) return false;
      if (answer.status == smtlib::CheckSatStatus::kUnsat) {
        result.status = smtlib::CheckSatStatus::kUnsat;
        split_notes(answer.note, result.notes);
      } else {
        // Script sat: compile the hit job's original assertions and check
        // the remapped witness against every compiled constraint. Scripts
        // the conjunctive compiler cannot express (boolean structure,
        // position-producing atoms) fall through to a cold solve.
        const smtlib::CompiledQuery compiled = smtlib::compile_assertions(
            job.canonical->assertions, job.canonical->declared);
        if (!compiled.unsupported.empty() ||
            !compiled.falsified_ground.empty()) {
          return false;
        }
        const std::string variable =
            answer.variable.empty()
                ? std::string()
                : canon::original_name(*job.canonical, answer.variable);
        if (variable != compiled.variable) return false;
        const std::string witness = answer.text.value_or(std::string());
        for (const strqubo::Constraint& constraint : compiled.constraints) {
          if (!strqubo::verify_string(constraint, witness)) return false;
        }
        result.status = smtlib::CheckSatStatus::kSat;
        result.variable = variable;
        result.model_value = witness;
      }
    }
    result.winner = "answer-cache";
    result.notes.insert(result.notes.begin(), "answer cache hit");
    result.answer_cache_hit = true;
    job.answer_cache_hit = true;
    job.decided.store(true, std::memory_order_release);
    // An adopted external CancelSource must still observe the verdict, as
    // claim_and_finish guarantees on the cold path.
    if (job.options.cancel) {
      job.cancel = *job.options.cancel;
      job.external_cancel = true;
      job.cancel.cancel();
    }
    stats_submitted.fetch_add(1, std::memory_order_relaxed);
    stats_answer_hits.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.jobs.submitted").add();
      telemetry::counter("service.answer.hits").add();
    }
    complete(job, std::move(result));
    return true;
  }

  /// Checks one verified cold completion into the answer cache, exactly
  /// once per job: hits never re-insert, timeouts and kUnknown never
  /// qualify, and a script-sat witness is re-confirmed against the job's
  /// original assertions before it may enter the shared cache (so a tenant
  /// can never publish an unverified string). Script entries store the
  /// CANONICAL variable name; the hit side remaps it back through its own
  /// script's renaming.
  void maybe_insert_answer(Job& job, const JobResult& result) {
    if (!options.answer_cache || job.answer_key.empty()) return;
    if (job.answer_cache_hit || result.timed_out) return;
    if (result.status == smtlib::CheckSatStatus::kUnknown) return;
    canon::CachedAnswer answer;
    answer.status = result.status;
    if (std::holds_alternative<strqubo::Constraint>(job.payload)) {
      // Already classically verified by the winning member (first-
      // verified-SAT-wins); constraint jobs never resolve kUnsat.
      answer.text = result.text;
      answer.position = result.position;
    } else if (result.status == smtlib::CheckSatStatus::kSat) {
      if (!job.canonical) return;
      const smtlib::CompiledQuery compiled = smtlib::compile_assertions(
          job.canonical->assertions, job.canonical->declared);
      if (!compiled.unsupported.empty() || !compiled.falsified_ground.empty() ||
          compiled.variable != result.variable) {
        return;
      }
      for (const strqubo::Constraint& constraint : compiled.constraints) {
        if (!strqubo::verify_string(constraint, result.model_value)) return;
      }
      answer.text = result.model_value;
      if (!result.variable.empty()) {
        answer.variable = canon::canonical_name(*job.canonical,
                                                result.variable);
        if (answer.variable.empty()) return;
      }
    } else {
      // Script unsat: exact/certified on the cold path (both engines);
      // the notes carry the explanation a warmed reply reproduces.
      answer.note = join_notes(result.notes);
    }
    options.answer_cache->insert(job.answer_key, std::move(answer));
  }

  void complete(Job& job, JobResult result) {
    result.tag = job.options.tag;
    result.route = job.route_disposition;
    result.attempts = job.attempts.load(std::memory_order_relaxed);
    result.members_cancelled =
        job.cancelled_members.load(std::memory_order_relaxed);
    result.queue_seconds = job.queue_seconds.load(std::memory_order_relaxed);
    result.solve_seconds =
        std::chrono::duration<double>(SteadyClock::now() - job.enqueued)
            .count();
    record_route_outcome(job);
    // Check the verdict into the answer cache before the promise resolves:
    // a caller that resubmits an alpha-variant right after .get() must hit.
    maybe_insert_answer(job, result);
    stats_completed.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.jobs.completed").add();
      telemetry::histogram("service.job.seconds", telemetry::Unit::kSeconds)
          .record(result.solve_seconds);
    }
    // The pipeline-chaining hook: runs on the completing worker with the
    // final result, before the promise resolves, so a chained next stage
    // is already enqueued by the time any waiter wakes.
    if (job.on_complete) job.on_complete(result);
    job.promise.set_value(std::move(result));
  }

  void release_member(Job& job) {
    job.members_left.fetch_sub(1, std::memory_order_acq_rel);
  }

  void record_member_cancelled(Job& job) {
    job.cancelled_members.fetch_add(1, std::memory_order_relaxed);
    stats_cancelled.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::counter("service.member.cancelled").add();
    }
  }

  void record_winner(const std::string& name) {
    if (telemetry::enabled()) {
      telemetry::counter("service.winner." + name).add();
    }
  }

  void publish_queue_depth_locked() {
    if (telemetry::enabled()) {
      telemetry::gauge("service.queue.depth")
          .set(static_cast<double>(queue.size()));
    }
  }

  ServiceOptions options;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Task> queue;
  bool stopping = false;
  std::vector<std::thread> workers;

  struct CacheEntry {
    std::string key;
    std::shared_ptr<const strqubo::PreparedConstraint> prepared;
    std::size_t bytes = 0;
  };
  std::mutex cache_mutex;
  std::list<CacheEntry> cache_lru;  // Front = most recently used.
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache;
  std::size_t cache_bytes = 0;  // Guarded by cache_mutex.

  std::atomic<std::uint64_t> stats_submitted{0};
  std::atomic<std::uint64_t> stats_completed{0};
  std::atomic<std::uint64_t> stats_timeouts{0};
  std::atomic<std::uint64_t> stats_cancelled{0};
  std::atomic<std::uint64_t> stats_member_errors{0};
  std::atomic<std::uint64_t> stats_retries{0};
  std::atomic<std::uint64_t> stats_cache_hits{0};
  std::atomic<std::uint64_t> stats_cache_misses{0};
  std::atomic<std::uint64_t> stats_warm_starts{0};
  std::atomic<std::uint64_t> stats_warm_hits{0};
  std::atomic<std::uint64_t> stats_routed{0};
  std::atomic<std::uint64_t> stats_route_fallbacks{0};
  std::atomic<std::uint64_t> stats_pipelines{0};
  std::atomic<std::uint64_t> stats_chain_warm_starts{0};
  std::atomic<std::uint64_t> stats_answer_hits{0};
  std::atomic<std::uint64_t> stats_answer_misses{0};
  std::atomic<std::uint64_t> stats_answer_fallbacks{0};
};

SolveService::SolveService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SolveService::~SolveService() = default;

std::future<JobResult> SolveService::submit(strqubo::Constraint constraint,
                                            JobOptions options) {
  return impl_->enqueue(std::move(constraint), options);
}

std::future<JobResult> SolveService::submit_script(std::string script,
                                                   JobOptions options) {
  return impl_->enqueue(std::move(script), options);
}

std::vector<JobResult> SolveService::solve_constraints(
    const std::vector<strqubo::Constraint>& constraints, JobOptions options) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(constraints.size());
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    JobOptions job = options;
    job.seed = mix_seed(options.seed, i);
    if (job.tag == 0) job.tag = i;
    futures.push_back(submit(constraints[i], job));
  }
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::vector<JobResult> SolveService::solve_scripts(
    const std::vector<std::string>& scripts, JobOptions options) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    JobOptions job = options;
    job.seed = mix_seed(options.seed, i);
    if (job.tag == 0) job.tag = i;
    futures.push_back(submit_script(scripts[i], job));
  }
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::future<PipelineResult> SolveService::submit_pipeline(
    PipelineJob pipeline) {
  return impl_->submit_pipeline(std::move(pipeline));
}

std::size_t SolveService::num_workers() const noexcept {
  return impl_->workers.size();
}

std::size_t SolveService::portfolio_size() const noexcept {
  return impl_->options.portfolio.size();
}

std::vector<std::string> SolveService::portfolio_names() const {
  std::vector<std::string> names;
  names.reserve(impl_->options.portfolio.size());
  for (const PortfolioMember& member : impl_->options.portfolio) {
    names.push_back(member.name);
  }
  return names;
}

SolveService::Stats SolveService::stats() const noexcept {
  Stats stats;
  stats.jobs_submitted = impl_->stats_submitted.load(std::memory_order_relaxed);
  stats.jobs_completed = impl_->stats_completed.load(std::memory_order_relaxed);
  stats.jobs_timed_out = impl_->stats_timeouts.load(std::memory_order_relaxed);
  stats.members_cancelled =
      impl_->stats_cancelled.load(std::memory_order_relaxed);
  stats.member_errors =
      impl_->stats_member_errors.load(std::memory_order_relaxed);
  stats.verify_retries = impl_->stats_retries.load(std::memory_order_relaxed);
  stats.model_cache_hits =
      impl_->stats_cache_hits.load(std::memory_order_relaxed);
  stats.model_cache_misses =
      impl_->stats_cache_misses.load(std::memory_order_relaxed);
  stats.warm_starts = impl_->stats_warm_starts.load(std::memory_order_relaxed);
  stats.warm_hits = impl_->stats_warm_hits.load(std::memory_order_relaxed);
  stats.jobs_routed = impl_->stats_routed.load(std::memory_order_relaxed);
  stats.route_fallbacks =
      impl_->stats_route_fallbacks.load(std::memory_order_relaxed);
  stats.pipelines = impl_->stats_pipelines.load(std::memory_order_relaxed);
  stats.chain_warm_starts =
      impl_->stats_chain_warm_starts.load(std::memory_order_relaxed);
  stats.answer_hits = impl_->stats_answer_hits.load(std::memory_order_relaxed);
  stats.answer_misses =
      impl_->stats_answer_misses.load(std::memory_order_relaxed);
  stats.answer_fallbacks =
      impl_->stats_answer_fallbacks.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    stats.model_cache_entries = impl_->cache_lru.size();
    stats.model_cache_bytes = impl_->cache_bytes;
  }
  return stats;
}

}  // namespace qsmt::service
