#include "service/service.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "canon/canon.hpp"
#include "engine/engine.hpp"
#include "smtlib/compiler.hpp"
#include "strqubo/solver.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/lru_cache.hpp"
#include "util/rng.hpp"

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

// Distinct prepared constraints kept in the model cache (an unbounded
// cache would grow with the stream of distinct jobs).
constexpr std::size_t kModelCacheCapacity = 256;

// Heap bytes of one prepared-model cache entry: its key, the shared
// PreparedConstraint block and the model's and CSR adjacency's coefficient
// storage. Feeds the service.model_cache.bytes gauge.
std::size_t prepared_heap_bytes(const std::string& key,
                                const strqubo::PreparedConstraint& prepared) {
  return util::heap_bytes(key) +
         util::shared_block_bytes<strqubo::PreparedConstraint>() +
         prepared.conjuncts.capacity() * sizeof(strqubo::Constraint) +
         prepared.model.heap_bytes() + prepared.adjacency.heap_bytes();
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

struct SolveService::Impl {
  struct Job {
    /// A conjunction (one constraint for submit(Constraint)) or a script.
    std::variant<std::vector<strqubo::Constraint>, std::string> payload;
    /// The prepared-model cache key, computed once at submission: the
    /// strqubo::structure_key of a one-conjunct payload (the key the
    /// incremental fragment cache uses too, so both layers agree on what
    /// "structurally identical" means). Empty for multi-conjunct and
    /// script jobs, whose models are not cached (see prepare_job).
    std::string structure_key;
    /// Canonical answer-cache key (empty = not cacheable or no cache
    /// configured) and, for script jobs, the canonical form whose renaming
    /// remaps cached witness variables and whose original assertions the
    /// hit confirmation compiles. Both fixed at submission.
    std::string answer_key;
    std::shared_ptr<const canon::CanonicalScript> canonical;
    /// Served from the answer cache: complete() must not re-insert.
    bool answer_cache_hit = false;
    /// Leads the in-flight Flight of answer_key: complete() settles the
    /// jobs parked behind it. Set under queue_mutex before it is queued.
    bool leads = false;
    /// A conjunction job's model, built (or found in the model cache) at
    /// submission; the task samples it. Null for script jobs and for jobs
    /// whose token had fired before submission finished.
    std::shared_ptr<const strqubo::PreparedConstraint> prepared;
    JobOptions options;
    SteadyClock::time_point enqueued;
    CancelSource cancel;
    std::promise<JobResult> promise;
    /// Owner election: the task (or the shutdown path) that flips this from
    /// false fills the result and fulfils the promise — nobody else touches
    /// either afterwards.
    std::atomic<bool> decided{false};
    /// Written by the submitting thread until the job is queued or parked,
    /// then only by the job's one task (or, for a parked job, the thread
    /// that settles it), which also completes it.
    double queue_seconds = 0.0;
    std::size_t attempts = 0;
    /// The task stopped because the job's token fired (the deadline or an
    /// external cancellation) — the job was cut short, not exhausted.
    bool cancelled = false;
    /// Diagnostics from rungs whose sampler threw (e.g. an embedding
    /// failure); attached to the verdict when no rung wins.
    std::vector<std::string> error_notes;
    /// Caller adopted an external CancelSource (claim_and_finish must
    /// always cancel so the caller's other handles observe the verdict).
    bool external_cancel = false;
  };

  /// Single flight: one per answer key with a queued or running leader,
  /// holding the alpha-equivalent jobs parked behind it. A follower takes
  /// no worker until its leader completes.
  struct Flight {
    /// The leader's deadline (deadline_of); a job with an earlier one
    /// never parks behind it.
    SteadyClock::time_point deadline;
    std::vector<std::shared_ptr<Job>> followers;
  };

  explicit Impl(ServiceOptions opts)
      : options(std::move(opts)),
        build_fingerprint(strqubo::options_fingerprint(options.build)) {
    if (options.portfolio.empty()) options.portfolio = default_portfolio();
    for (const PortfolioMember& member : options.portfolio) {
      if (!member.make) {
        throw std::invalid_argument(
            "SolveService: portfolio member '" + member.name +
            "' has no sampler factory");
      }
      rung_wins.push_back(telemetry::counter("service.winner." + member.name));
    }
    if (options.num_workers == 0) options.num_workers = default_worker_count();
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
    for (const std::shared_ptr<Job>& job : queue) {
      resolve_unrun(*job, "service stopped before solve");
    }
    queue.clear();
  }

  std::future<JobResult> enqueue(
      std::variant<std::vector<strqubo::Constraint>, std::string> payload,
      JobOptions job_options) {
    auto job = std::make_shared<Job>();
    job->payload = std::move(payload);
    const auto* conjuncts =
        std::get_if<std::vector<strqubo::Constraint>>(&job->payload);
    if (conjuncts != nullptr && conjuncts->size() == 1) {
      job->structure_key = strqubo::structure_key(conjuncts->front());
    }
    job->options = std::move(job_options);
    job->enqueued = SteadyClock::now();
    std::future<JobResult> future = job->promise.get_future();
    submitted.add();

    // Canonical answer cache: look the job up before queueing it. A
    // verified hit resolves the future right here — no task is ever
    // queued — and a failed confirmation falls through to the cold path
    // below. Jobs whose deadline is already expired (negative) or whose
    // external cancel already fired skip the lookup so their cold
    // timeout/cancellation semantics are untouched.
    if (options.answer_cache) {
      if (conjuncts != nullptr) {
        job->answer_key =
            canon::constraint_answer_key(*conjuncts, build_fingerprint);
      } else {
        auto canonical = std::make_shared<const canon::CanonicalScript>(
            canon::canonicalize_script(std::get<std::string>(job->payload)));
        if (canonical->cacheable) {
          job->answer_key =
              canon::script_answer_key(*canonical, build_fingerprint);
          job->canonical = std::move(canonical);
        }
      }
      const bool already_cancelled =
          job->options.cancel && job->options.cancel->token().cancelled();
      if (!job->answer_key.empty() && job->options.deadline.count() >= 0 &&
          !already_cancelled) {
        if (std::optional<canon::CachedAnswer> cached =
                options.answer_cache->lookup(job->answer_key)) {
          if (serve_cached(*job, *cached)) return future;
          answer_fallbacks.add();
        } else {
          answer_misses.add();
        }
      }
    }

    // Adopt an external cancellation handle before arming the deadline so
    // both signals share one state: the caller's cancel() and the deadline
    // fire the same token the running sampler polls.
    if (job->options.cancel) {
      job->cancel = *job->options.cancel;
      job->external_cancel = true;
    }
    if (job->options.deadline.count() != 0) {
      job->cancel.set_deadline_after(job->options.deadline);
    }
    // The exact stages run here, on the submitting thread, so a job they
    // decide never waits for a worker. A job whose token already fired
    // skips them and is queued, so its task reports the cancellation.
    const bool sampled =
        conjuncts != nullptr && !job->cancel.token().cancelled();
    if (sampled && decide_at_submission(*job)) return future;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (stopping) {
        resolve_unrun(*job, "service stopped before solve");
        return future;
      }
      // Single flight: an undecided conjunction job parks behind the job
      // in flight on its answer key when that leader's deadline is no
      // later than its own, and leads the key when none is in flight.
      if (sampled && !job->answer_key.empty()) {
        const auto [flight, fresh] = flights.try_emplace(job->answer_key);
        if (fresh) {
          flight->second.deadline = deadline_of(*job);
          job->leads = true;
        } else if (flight->second.deadline <= deadline_of(*job)) {
          flight->second.followers.push_back(std::move(job));
          coalesced.add();
          return future;
        }
      }
      // One task per job: it climbs the whole ladder on one worker.
      queue.push_back(job);
      publish_queue_depth_locked();
    }
    queue_cv.notify_one();
    return future;
  }

  /// The job's deadline as an instant; max() when it has none.
  static SteadyClock::time_point deadline_of(const Job& job) {
    if (job.options.deadline.count() <= 0) {
      return SteadyClock::time_point::max();
    }
    return job.enqueued + std::chrono::duration_cast<SteadyClock::duration>(
                              job.options.deadline);
  }

  void record_wait(Job& job, double seconds) {
    static const auto wait = telemetry::histogram(
        "service.job.wait_seconds", telemetry::Unit::kSeconds);
    job.queue_seconds = seconds;
    wait.record(seconds);
  }

  /// The exact stages of a conjunction job: the model build (or its model
  /// cache hit) and the presolve. A build error or a verified presolve
  /// decides the job on the calling thread, as its first attempt and with
  /// zero queue wait. A decline or an unverified ground state leaves the
  /// model on the job for its task, which starts at the warm refine. Never
  /// constructs a sampler. Returns true when it decided the job.
  bool decide_at_submission(Job& job) {
    std::string build_error;
    job.prepared = prepare_job(job, build_error);
    std::optional<strqubo::SolveResult> solved;
    if (job.prepared) {
      solved = strqubo::presolve(*job.prepared);
      if (!solved || !solved->satisfied) return false;
    }
    job.attempts = 1;
    record_wait(job, 0.0);
    claim_and_finish(job, [&](JobResult& result) {
      if (!solved) {
        // Deterministic for every rung: sampling could only repeat it.
        result.notes.push_back("model build failed: " + build_error);
        return;
      }
      result.status = smtlib::CheckSatStatus::kSat;
      result.text = solved->text;
      result.position = solved->position;
      result.winner = "presolve";
      presolve_wins.add();
    });
    return true;
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (stopping) return;
        job = std::move(queue.front());
        queue.pop_front();
        publish_queue_depth_locked();
      }
      run_job(*job);
    }
  }

  /// How one sampling attempt ended.
  enum class Attempt {
    kDecided,     // A verdict was claimed (or the job was already decided).
    kUnverified,  // Complete run, nothing verified: reseed and try again.
    kRungFailed,  // The rung's sampler threw: move on to the next rung.
  };

  /// The job's one task: the escalation ladder over the model prepared at
  /// submission (or the script). Rung r's attempt a samples with seed
  /// mix_seed(mix_seed(seed, r + 1), a + 1), and rung r + 1 starts only
  /// after every attempt of rung r came back unverified. The first attempt
  /// also warm-refines a conjunction job, so a job the refinement decides
  /// never constructs a sampler. Always settles the job before returning.
  void run_job(Job& job) {
    record_wait(job, std::chrono::duration<double>(SteadyClock::now() -
                                                   job.enqueued)
                         .count());
    const CancelToken token = job.cancel.token();
    for (std::size_t rung = 0; rung < options.portfolio.size(); ++rung) {
      for (std::size_t attempt = 0; attempt <= options.max_verify_retries;
           ++attempt) {
        if (token.cancelled()) return stop_cancelled(job);
        if (attempt > 0) retries.add();
        ++job.attempts;
        if (job.attempts == 1 && job.prepared) {
          if (try_warm_start(job, rung, *job.prepared)) return;
          if (token.cancelled()) return stop_cancelled(job);
        }
        const std::uint64_t seed = mix_seed(
            mix_seed(job.options.seed, rung + 1), attempt + 1);
        const Attempt outcome =
            sample_once(job, rung, seed, token, job.prepared.get());
        if (outcome == Attempt::kDecided) return;
        if (outcome == Attempt::kRungFailed) break;
      }
    }
    // The last attempt may have been cut short mid-sweep.
    if (token.cancelled()) return stop_cancelled(job);
    finish_unverified(job);
  }

  /// One attempt of one rung: construct the rung's sampler, sample the
  /// prepared model (or run the script through the engine), and claim a
  /// verified verdict. Nothing may propagate out of a worker thread — an
  /// escaped exception would std::terminate the whole service — so a
  /// throwing sampler is recorded and fails only its own rung.
  Attempt sample_once(Job& job, std::size_t rung, std::uint64_t seed,
                      const CancelToken& token,
                      const strqubo::PreparedConstraint* prepared) {
    const PortfolioMember& member = options.portfolio[rung];
    std::unique_ptr<anneal::Sampler> sampler;
    try {
      sampler = member.make(seed, token);
    } catch (const std::exception& error) {
      return fail_rung(job, member, error.what());
    }
    if (prepared != nullptr) {
      strqubo::SolveResult solved;
      try {
        solved = strqubo::StringConstraintSolver(*sampler, options.build)
                     .solve(*prepared);
      } catch (const std::exception& error) {
        // E.g. EmbeddedSampler failing to embed the model.
        return fail_rung(job, member, error.what());
      }
      if (!solved.satisfied) return Attempt::kUnverified;
      claim_and_finish(job, [&](JobResult& result) {
        result.status = smtlib::CheckSatStatus::kSat;
        result.text = solved.text;
        result.position = solved.position;
        result.winner = member.name;
        // Inside the claim so the increment is sequenced before the
        // promise resolves — a caller snapshotting telemetry right after
        // .get() must see this job's winner.
        rung_wins[rung].add();
      });
      return Attempt::kDecided;
    }
    engine::ScriptResult solved;
    try {
      solved = engine::solve_script(std::get<std::string>(job.payload),
                                    *sampler, options.build);
    } catch (const std::invalid_argument& error) {
      // Parse errors are deterministic for the whole job: no later rung can
      // do better, so claim the verdict instead of escalating.
      claim_and_finish(job, [&](JobResult& result) {
        result.notes.push_back(std::string("parse error: ") + error.what());
      });
      return Attempt::kDecided;
    } catch (const std::exception& error) {
      return fail_rung(job, member, error.what());
    }
    if (solved.status == smtlib::CheckSatStatus::kUnknown) {
      return Attempt::kUnverified;
    }
    claim_and_finish(job, [&](JobResult& result) {
      result.status = solved.status;
      result.variable = solved.variable;
      result.model_value = solved.model_value;
      result.notes = solved.notes;
      result.winner = member.name;
      rung_wins[rung].add();
    });
    return Attempt::kDecided;
  }

  /// A rung's sampler threw (e.g. no embedding onto the target topology):
  /// record the diagnostic and leave the rung. Later rungs still run; if
  /// none wins, the error notes ride the kUnknown verdict.
  Attempt fail_rung(Job& job, const PortfolioMember& member,
                    const std::string& message) {
    job.error_notes.push_back("portfolio member '" + member.name +
                              "' failed: " + message);
    member_errors.add();
    return Attempt::kRungFailed;
  }

  /// The warm refine stage from the caller's previous witness
  /// (JobOptions::warm_start), run once by the job's task, before rung 0
  /// samples. A verified refinement decides the job before anyone pays a
  /// full-budget solve and is credited to rung 0; a witness that does not
  /// fit the model is ignored, and any miss falls back to the ladder.
  /// Returns true when it decided the job.
  bool try_warm_start(Job& job, std::size_t rung,
                      const strqubo::PreparedConstraint& prepared) {
    if (!job.options.warm_start.has_value()) return false;
    const std::optional<strqubo::SolveResult> solved = strqubo::warm_refine(
        prepared, *job.options.warm_start, mix_seed(job.options.seed, 0x77a7));
    if (!solved) return false;
    warm_starts.add();
    if (!solved->satisfied) return false;
    claim_and_finish(job, [&](JobResult& result) {
      result.status = smtlib::CheckSatStatus::kSat;
      result.text = solved->text;
      result.position = solved->position;
      result.winner = options.portfolio[rung].name;
      result.notes.push_back("warm start");
      rung_wins[rung].add();
      // Inside the claim so the increment is sequenced before the promise
      // resolves (a caller snapshotting stats right after .get() must see
      // this hit).
      warm_hits.add();
    });
    return true;
  }

  /// The job's PreparedConstraint: the prepared-model cache lookup, or the
  /// build and its insert. Only one-conjunct models are cached. A merged
  /// multi-conjunct model is built for its one job only: server sessions
  /// rarely repeat a conjunction (a repeat is an answer-cache hit), and
  /// holding up to the cache's 256 of them raised the daemon's peak RSS by
  /// about 30% on incremental traffic. Returns null with `error` set when
  /// the build threw.
  std::shared_ptr<const strqubo::PreparedConstraint> prepare_job(
      const Job& job, std::string& error) {
    // A merged model's key is empty and never cached, so its lookup counts
    // the one miss every built model records.
    const std::string& key = job.structure_key;
    if (auto cached = model_cache.get(key)) return std::move(*cached);
    std::shared_ptr<const strqubo::PreparedConstraint> prepared;
    try {
      // Build outside the cache lock: builds dominate and would serialise
      // every worker otherwise. Two threads may race the same key; the
      // loser's insert keeps the first model and its build is wasted once.
      prepared = std::make_shared<const strqubo::PreparedConstraint>(
          strqubo::prepare(
              std::get<std::vector<strqubo::Constraint>>(job.payload),
              options.build));
    } catch (const std::exception& build_error) {
      error = build_error.what();
      return nullptr;
    }
    if (!key.empty()) {
      model_cache.insert(key, prepared, prepared_heap_bytes(key, *prepared),
                         util::OnExisting::kKeep);
    }
    return prepared;
  }

  /// Atomically claims the verdict. On success runs `fill` on a fresh
  /// JobResult, fulfils the promise and records completion telemetry.
  /// Returns false when the job was already decided. One task runs each
  /// job, but a shutdown may still resolve a job that never ran, so the
  /// claim stays an election.
  template <typename Fill>
  bool claim_and_finish(Job& job, Fill&& fill) {
    bool expected = false;
    if (!job.decided.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return false;
    }
    // An adopted external CancelSource observes the verdict, so the
    // caller's other handles see the job is over. A service-owned token
    // has nobody left to signal.
    if (job.external_cancel) job.cancel.cancel();
    JobResult result;
    fill(result);
    complete(job, std::move(result));
    return true;
  }

  /// Resolves a job whose task will never run (shutdown races).
  void resolve_unrun(Job& job, const std::string& note) {
    claim_and_finish(job, [&](JobResult& result) {
      result.notes.push_back(note);
    });
  }

  /// The job's token fired before a verdict: the deadline, or an external
  /// cancellation such as a client disconnect, stopped the task while it
  /// was queued, between attempts, or mid-sweep.
  void stop_cancelled(Job& job) {
    job.cancelled = true;
    cancelled.add();
    finish_unverified(job);
  }

  /// The ladder ended without a verified verdict: kUnknown, marked as a
  /// timeout only when the deadline actually interrupted work — not when
  /// every rung ran its full attempt budget unverified and the deadline
  /// merely expired afterwards.
  void finish_unverified(Job& job) {
    claim_and_finish(job, [&](JobResult& result) {
      result.timed_out = job.options.deadline.count() != 0 && job.cancelled;
      if (result.timed_out) {
        result.notes.push_back("deadline expired");
        timeouts.add();
      } else {
        result.notes.push_back(
            "no portfolio member produced a verified model");
      }
      for (std::string& note : job.error_notes) {
        result.notes.push_back(std::move(note));
      }
    });
  }

  /// Confirms one answer-cache hit against this job's own payload and, on
  /// success, resolves the job on the submitting thread: no task is
  /// queued, winner is "answer-cache", attempts stay zero, and the job
  /// completes through the ordinary complete() path. Exactly ONE classical
  /// verification guards every served witness: verify_conjunction (every
  /// conjunct) / verify_position (a lone Includes) for conjunction jobs, a
  /// compile of the job's ORIGINAL assertions plus per-constraint
  /// verify_string for script-sat hits. Script-unsat hits are served on key
  /// identity alone — the full-string canonical key proves the hit is an
  /// alpha-variant of the formula whose cold unsat was exact/certified.
  /// Returns false (job untouched, cold solve proceeds) on any mismatch, so
  /// a stale or poisoned entry costs one cheap check, never a wrong
  /// verdict.
  bool serve_cached(Job& job, const canon::CachedAnswer& answer) {
    JobResult result;
    if (const auto* conjuncts =
            std::get_if<std::vector<strqubo::Constraint>>(&job.payload)) {
      // Conjunction jobs only ever resolve kSat on the cold path.
      if (answer.status != smtlib::CheckSatStatus::kSat) return false;
      const auto* includes =
          conjuncts->size() == 1
              ? std::get_if<strqubo::Includes>(&conjuncts->front())
              : nullptr;
      if (includes != nullptr) {
        if (!strqubo::verify_position(*includes, answer.position)) {
          return false;
        }
        result.position = answer.position;
      } else {
        if (!answer.text.has_value() ||
            !strqubo::verify_conjunction(*conjuncts, *answer.text)) {
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
    answer_hits.add();
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
    if (std::holds_alternative<std::vector<strqubo::Constraint>>(
            job.payload)) {
      // Already classically verified by the winning rung (first-
      // verified-SAT-wins); conjunction jobs never resolve kUnsat.
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
    result.attempts = job.attempts;
    result.members_cancelled = job.cancelled ? 1 : 0;
    result.queue_seconds = job.queue_seconds;
    result.solve_seconds =
        std::chrono::duration<double>(SteadyClock::now() - job.enqueued)
            .count();
    // Check the verdict into the answer cache before the promise resolves:
    // a caller that resubmits an alpha-variant right after .get() must hit.
    maybe_insert_answer(job, result);
    static const auto seconds =
        telemetry::histogram("service.job.seconds", telemetry::Unit::kSeconds);
    completed.add();
    seconds.record(result.solve_seconds);
    if (job.leads) settle_followers(job, result);
    job.promise.set_value(std::move(result));
  }

  /// Settles the jobs parked behind a completing leader, whose sat verdict
  /// is already in the answer cache:
  ///  * a follower whose own token fired while parked stops cut short, as
  ///    a queued job would;
  ///  * a sat verdict reaches each follower through the answer-cache
  ///    lookup and one verification against the follower's own payload;
  ///    an evicted entry or a failed check queues the follower cold;
  ///  * a leader that ended kUnknown otherwise (its whole ladder ran
  ///    unverified, or a shutdown resolved it unrun) shares that verdict;
  ///  * a leader its deadline or its client's disconnect cut short hands
  ///    the key to the live follower with the earliest deadline, which is
  ///    queued and leads the rest; during a shutdown the followers resolve
  ///    unrun instead, since the destructor may be draining the queue.
  void settle_followers(Job& leader, const JobResult& verdict) {
    const bool cut_short = leader.cancelled;
    std::vector<std::shared_ptr<Job>> followers;
    bool handed_off = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      const auto flight = flights.find(leader.answer_key);
      if (flight == flights.end()) return;
      followers = std::move(flight->second.followers);
      if (cut_short && !stopping) {
        handed_off = hand_off_locked(flight->second, followers);
      }
      if (!handed_off) flights.erase(flight);
    }
    if (handed_off) queue_cv.notify_one();
    for (const std::shared_ptr<Job>& follower : followers) {
      if (follower->cancel.token().cancelled()) {
        stop_cancelled(*follower);
      } else if (cut_short) {
        resolve_unrun(*follower, "service stopped before solve");
      } else if (verdict.status == smtlib::CheckSatStatus::kSat) {
        serve_follower(follower);
      } else {
        claim_and_finish(*follower, [&](JobResult& result) {
          result.notes = verdict.notes;
          result.notes.push_back(
              "verdict shared with an alpha-equivalent job in flight");
        });
      }
    }
  }

  /// Under queue_mutex: queues the live follower with the earliest
  /// deadline as `flight`'s new leader, with the other live followers
  /// parked behind it. Leaves in `followers` only those whose token fired.
  /// Returns true when a follower was queued.
  bool hand_off_locked(Flight& flight,
                       std::vector<std::shared_ptr<Job>>& followers) {
    const auto live = std::stable_partition(
        followers.begin(), followers.end(),
        [](const std::shared_ptr<Job>& job) {
          return job->cancel.token().cancelled();
        });
    if (live == followers.end()) return false;
    std::iter_swap(live, std::min_element(
                             live, followers.end(),
                             [](const std::shared_ptr<Job>& a,
                                const std::shared_ptr<Job>& b) {
                               return deadline_of(*a) < deadline_of(*b);
                             }));
    const std::shared_ptr<Job> successor = *live;
    successor->leads = true;
    flight.deadline = deadline_of(*successor);
    flight.followers.assign(std::next(live), followers.end());
    followers.erase(live, followers.end());
    queue.push_back(successor);
    publish_queue_depth_locked();
    return true;
  }

  /// A sat leader's follower, served as at submission: the answer-cache
  /// lookup and its one verification against the follower's payload. A
  /// miss or a failed check queues it outside any flight, or resolves it
  /// unrun during a shutdown.
  void serve_follower(const std::shared_ptr<Job>& follower) {
    if (std::optional<canon::CachedAnswer> cached =
            options.answer_cache->lookup(follower->answer_key)) {
      if (serve_cached(*follower, *cached)) return;
      answer_fallbacks.add();
    }
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (!stopping) {
        queue.push_back(follower);
        publish_queue_depth_locked();
        queued = true;
      }
    }
    if (queued) {
      queue_cv.notify_one();
    } else {
      resolve_unrun(*follower, "service stopped before solve");
    }
  }

  void publish_queue_depth_locked() {
    static const auto depth = telemetry::gauge("service.queue.depth");
    depth.set(static_cast<double>(queue.size()));
  }

  ServiceOptions options;
  /// strqubo::options_fingerprint(options.build), formatted once for every
  /// answer-cache key.
  const std::string build_fingerprint;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<Job>> queue;
  bool stopping = false;
  /// Guarded by queue_mutex.
  std::unordered_map<std::string, Flight> flights;
  std::vector<std::thread> workers;

  util::LruCache<std::string,
                 std::shared_ptr<const strqubo::PreparedConstraint>>
      model_cache{"service.model_cache", kModelCacheCapacity};

  /// service.winner.<member> per rung, and for jobs the presolve decided.
  std::vector<telemetry::Counter> rung_wins;
  const telemetry::Counter presolve_wins =
      telemetry::counter("service.winner.presolve");

  telemetry::Tally submitted{"service.jobs.submitted"};
  telemetry::Tally completed{"service.jobs.completed"};
  telemetry::Tally timeouts{"service.job.timeouts"};
  telemetry::Tally cancelled{"service.member.cancelled"};
  telemetry::Tally member_errors{"service.member.errors"};
  telemetry::Tally retries{"service.retry.attempts"};
  telemetry::Tally warm_starts{"incremental.warm.starts"};
  telemetry::Tally warm_hits{"incremental.warm.hits"};
  telemetry::Tally answer_hits{"service.answer.hits"};
  telemetry::Tally answer_misses{"service.answer.misses"};
  telemetry::Tally answer_fallbacks{"service.answer.fallbacks"};
  telemetry::Tally coalesced{"service.answer.coalesced"};
};

SolveService::SolveService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SolveService::~SolveService() = default;

std::future<JobResult> SolveService::submit(strqubo::Constraint constraint,
                                            JobOptions options) {
  return submit(std::vector{std::move(constraint)}, std::move(options));
}

std::future<JobResult> SolveService::submit(
    std::vector<strqubo::Constraint> conjuncts, JobOptions options) {
  return impl_->enqueue(std::move(conjuncts), std::move(options));
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

std::size_t SolveService::num_workers() const noexcept {
  return impl_->workers.size();
}

SolveService::Stats SolveService::stats() const noexcept {
  Stats stats;
  stats.jobs_submitted = impl_->submitted.value();
  stats.jobs_completed = impl_->completed.value();
  stats.jobs_timed_out = impl_->timeouts.value();
  stats.members_cancelled = impl_->cancelled.value();
  stats.member_errors = impl_->member_errors.value();
  stats.verify_retries = impl_->retries.value();
  stats.warm_starts = impl_->warm_starts.value();
  stats.warm_hits = impl_->warm_hits.value();
  stats.answer_hits = impl_->answer_hits.value();
  stats.answer_misses = impl_->answer_misses.value();
  stats.answer_fallbacks = impl_->answer_fallbacks.value();
  stats.answer_coalesced = impl_->coalesced.value();
  const util::CacheStats models = impl_->model_cache.stats();
  stats.model_cache_hits = models.hits;
  stats.model_cache_misses = models.misses;
  stats.model_cache_entries = models.entries;
  stats.model_cache_bytes = models.bytes;
  return stats;
}

}  // namespace qsmt::service
