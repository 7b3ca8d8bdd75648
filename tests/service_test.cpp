// qsmt::service — worker pool, portfolio racing, cancellation, deadlines.
//
// The stress tests drive the service from several submitter threads at once
// with mixed deadlines and check the accounting invariants a job queue must
// keep under contention: every future resolves, no result is lost or
// duplicated, tags round-trip, expired deadlines become graceful kUnknown
// timeouts, and losing portfolio members actually observe their cancel
// token. The suite is part of the sanitizer matrix (scripts/ci.sh), so the
// same schedules run under ASan and UBSan.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/simulated_annealer.hpp"
#include "qubo/qubo_model.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/constraint.hpp"
#include "util/cancel.hpp"
#include "util/stopwatch.hpp"

namespace qsmt {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// A QUBO big enough that a high-budget anneal takes seconds — the workload
// the cancellation tests must be able to abort in well under that.
qubo::QuboModel chain_model(std::size_t n) {
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i) model.add_linear(i, i % 2 ? 1.0 : -1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) model.add_quadratic(i, i + 1, 0.5);
  return model;
}

TEST(Cancel, DefaultTokenNeverCancels) {
  const CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancel, SourceCancelIsVisibleToToken) {
  CancelSource source;
  const CancelToken token = source.token();
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(Cancel, DeadlineExpiryLatches) {
  CancelSource source;
  source.set_deadline_after(nanoseconds(1));
  const CancelToken token = source.token();
  std::this_thread::sleep_for(milliseconds(1));
  EXPECT_TRUE(token.cancelled());
  // Latched: still cancelled on every later poll.
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancel, PreCancelledTokenAbortsSampleFast) {
  CancelSource source;
  source.cancel();
  anneal::SimulatedAnnealerParams params;
  params.num_reads = 4;
  params.num_sweeps = 200000;  // Minutes of work if the token were ignored.
  params.seed = 3;
  params.cancel = source.token();
  const anneal::SimulatedAnnealer annealer(params);

  Stopwatch timer;
  const anneal::SampleSet samples = annealer.sample(chain_model(256));
  EXPECT_LT(timer.elapsed_seconds(), 5.0);
  // A cancelled sample is still a well-formed SampleSet.
  ASSERT_FALSE(samples.empty());
  for (const anneal::Sample& sample : samples) {
    EXPECT_EQ(sample.bits.size(), 256u);
  }
}

TEST(Cancel, DeadlineAbortsLongSampleMidFlight) {
  CancelSource source;
  source.set_deadline_after(milliseconds(50));
  anneal::SimulatedAnnealerParams params;
  params.num_reads = 4;
  params.num_sweeps = 200000;
  params.seed = 5;
  params.early_exit = false;  // Only the deadline can stop the sweeps.
  params.cancel = source.token();
  const anneal::SimulatedAnnealer annealer(params);

  Stopwatch timer;
  const anneal::SampleSet samples = annealer.sample(chain_model(256));
  // One sweep of slack past the deadline, not the full budget.
  EXPECT_LT(timer.elapsed_seconds(), 5.0);
  ASSERT_FALSE(samples.empty());
}

TEST(Service, SolvesEasyConstraintAndReportsWinner) {
  service::SolveService service;
  service::JobResult result =
      service.submit(strqubo::Equality{"abc"}).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "abc");
  EXPECT_FALSE(result.winner.empty());
  EXPECT_GE(result.attempts, 1u);
  EXPECT_GE(result.solve_seconds, 0.0);
}

TEST(Service, WarmStartFromExactWitnessDecidesJob) {
  // Single-member portfolio: no sibling can cold-solve the tiny model
  // before the warm refinement claims, so the hit is deterministic.
  service::ServiceOptions options;
  options.portfolio = {service::simulated_annealing_member("sa")};
  service::SolveService service(options);
  service::JobOptions job;
  // The warm-start seed IS the (unique) solution: the reverse-anneal
  // refinement starts on it, verification passes, and the job is decided
  // warm — visible in the stats and in the result note.
  job.warm_start = "warm";
  const service::JobResult result =
      service.submit(strqubo::Equality{"warm"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "warm");
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
  bool noted = false;
  for (const std::string& note : result.notes) noted |= note == "warm start";
  EXPECT_TRUE(noted);
}

TEST(Service, StaleWarmStartFallsBackCold) {
  service::SolveService service;
  service::JobOptions job;
  // Wrong length: the encoded witness no longer type-checks against the
  // model, so the refinement is skipped entirely and the cold race still
  // solves the job.
  job.warm_start = "far-too-long-for-this-model";
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "ab");
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.warm_starts, 0u);
  EXPECT_EQ(stats.warm_hits, 0u);
}

TEST(Service, WrongWarmStartStillVerifiesBeforeWinning) {
  service::SolveService service;
  service::JobOptions job;
  // Same length, wrong content: the refinement runs but its answer must
  // pass classical verification, so a misleading seed can never corrupt
  // the verdict — worst case the cold path pays the full solve.
  job.warm_start = "xx";
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "ab");
  EXPECT_EQ(service.stats().warm_starts, 1u);
}

TEST(Service, ScriptJobsPropagateCertifiedUnsat) {
  service::SolveService service;
  const service::JobResult result =
      service
          .submit_script(
              "(declare-const x String)"
              "(assert (= x \"ab\"))"
              "(assert (= x \"cd\"))"
              "(check-sat)")
          .get();
  // Any portfolio member's certified refutation must claim the race: a
  // provably-unsatisfiable script resolves kUnsat, never kUnknown.
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnsat);
  EXPECT_FALSE(result.winner.empty());
}

TEST(Service, SolvesScriptJobs) {
  service::SolveService service;
  service::JobResult result = service
                                  .submit_script(
                                      "(declare-const x String)"
                                      "(assert (= x \"hi\"))"
                                      "(check-sat)(get-model)")
                                  .get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(result.variable, "x");
  EXPECT_EQ(result.model_value, "hi");
}

TEST(Service, ScriptParseErrorResolvesUnknownWithNote) {
  service::SolveService service;
  const service::JobResult result =
      service.submit_script("(assert (= x").get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes[0].find("parse error"), std::string::npos);
}

TEST(Service, LosingMemberObservesCancellation) {
  // sa-fast wins the race on a trivial constraint; sa-deep must then see
  // the shared token and be counted as cancelled — on a single worker it
  // is cancelled before it even starts, on many workers mid-sweep. The
  // winner fulfils the future before the loser necessarily runs, so the
  // observation shows up in the service-wide stats, not the JobResult;
  // on one FIFO worker the loser is guaranteed to have run by the time a
  // second job resolves.
  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  service.submit(strqubo::Equality{"cd"}).get();
  EXPECT_GE(service.stats().members_cancelled, 1u);
}

TEST(Service, ExpiredDeadlineTimesOutGracefully) {
  service::SolveService service;
  service::JobOptions job;
  job.deadline = nanoseconds(1);
  const service::JobResult result =
      service.submit(strqubo::Equality{"abcde"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(service.stats().jobs_timed_out, 1u);
}

TEST(Service, DefaultDeadlineAppliesToEveryJob) {
  service::ServiceOptions options;
  options.default_deadline = nanoseconds(1);
  service::SolveService service(options);
  const service::JobResult result =
      service.submit(strqubo::Equality{"abc"}).get();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
}

// Sampler that always throws from sample() — the shape of an
// EmbeddedSampler that cannot embed the model onto its target topology.
// A worker thread must absorb this, not std::terminate the process.
class ThrowingSampler : public anneal::Sampler {
 public:
  anneal::SampleSet sample(const qubo::QuboModel&) const override {
    throw std::runtime_error("could not embed model onto target topology");
  }
  std::string name() const override { return "throwing"; }
};

// Sampler that completes instantly but only ever produces an assignment
// that fails classical verification — exercises the attempt-exhaustion
// path without any member being cut short.
class GarbageSampler : public anneal::Sampler {
 public:
  explicit GarbageSampler(milliseconds delay = milliseconds(0))
      : delay_(delay) {}
  anneal::SampleSet sample(const qubo::QuboModel& model) const override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    anneal::SampleSet set;
    set.add(std::vector<std::uint8_t>(model.num_variables(), 0), 0.0);
    return set;
  }
  std::string name() const override { return "garbage"; }

 private:
  milliseconds delay_;
};

template <typename SamplerT, typename... Args>
service::PortfolioMember member_of(std::string name, Args... args) {
  service::PortfolioMember member;
  member.name = std::move(name);
  member.make = [args...](std::uint64_t, CancelToken) {
    return std::make_unique<SamplerT>(args...);
  };
  return member;
}

TEST(Service, ThrowingMemberLosesRaceWithoutKillingService) {
  // One FIFO worker with the thrower queued first: it deterministically
  // runs (and throws) before the SA lane gets a chance to win.
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio.push_back(member_of<ThrowingSampler>("thrower"));
  options.portfolio.push_back(service::simulated_annealing_member("sa"));
  service::SolveService service(options);

  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(result.winner, "sa");
  EXPECT_GE(service.stats().member_errors, 1u);

  // The pool survived the exception and keeps serving.
  const service::JobResult again =
      service.submit(strqubo::Equality{"cd"}).get();
  EXPECT_EQ(again.status, smtlib::CheckSatStatus::kSat);
}

TEST(Service, AllMembersThrowingResolvesUnknownWithErrorNote) {
  service::ServiceOptions options;
  options.portfolio.push_back(member_of<ThrowingSampler>("thrower"));
  service::SolveService service(options);

  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_FALSE(result.timed_out);
  const auto mentions_failure = [&](const std::string& note) {
    return note.find("thrower") != std::string::npos &&
           note.find("failed") != std::string::npos;
  };
  EXPECT_TRUE(std::any_of(result.notes.begin(), result.notes.end(),
                          mentions_failure));

  // Script jobs route sampler exceptions through the same guard.
  const service::JobResult script_result =
      service
          .submit_script(
              "(declare-const x String)"
              "(assert (= x \"hi\"))"
              "(check-sat)")
          .get();
  EXPECT_EQ(script_result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_TRUE(std::any_of(script_result.notes.begin(),
                          script_result.notes.end(), mentions_failure));
  EXPECT_GE(service.stats().member_errors, 2u);
}

TEST(Service, ExhaustedAttemptsWithPendingDeadlineIsNotTimeout) {
  // Every attempt completes and merely fails verification; the deadline is
  // nowhere near expiring. The verdict is kUnknown-exhausted, not timeout.
  service::ServiceOptions options;
  options.num_workers = 1;
  options.max_verify_retries = 1;
  options.portfolio.push_back(member_of<GarbageSampler>("garbage"));
  service::SolveService service(options);

  service::JobOptions job;
  job.deadline = std::chrono::hours(1);
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_FALSE(result.timed_out);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes[0].find("no portfolio member"), std::string::npos);
  EXPECT_EQ(service.stats().jobs_timed_out, 0u);
}

TEST(Service, DeadlineExpiringMidAttemptIsTimeout) {
  // The sampler holds the worker past the deadline (ignoring the token, as
  // a worst-case member would) — the job was genuinely cut short mid-work.
  service::ServiceOptions options;
  options.num_workers = 1;
  options.max_verify_retries = 0;
  options.portfolio.push_back(
      member_of<GarbageSampler>("slow-garbage", milliseconds(100)));
  service::SolveService service(options);

  service::JobOptions job;
  job.deadline = milliseconds(5);
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(service.stats().jobs_timed_out, 1u);
}

// num_workers = 0 sizes the pool from the CPUs the constructing thread may
// run on, so a thread pinned to one CPU (taskset, cpusets) gets one worker
// even on a many-core host. The pinning happens on a helper thread so the
// test runner's own affinity is never touched.
TEST(Service, DefaultPoolSizeFollowsCpuAffinity) {
  std::size_t workers = 0;
  bool pinned = false;
  std::thread([&] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &allowed)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
    pinned = true;
    const service::SolveService service;
    workers = service.num_workers();
  }).join();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(workers, 1u);
}

TEST(Service, ModelCacheSharesPreparedConstraints) {
  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);
  const strqubo::Constraint constraint = strqubo::Equality{"abcd"};
  service.submit(constraint).get();
  service.submit(constraint).get();
  const service::SolveService::Stats stats = service.stats();
  EXPECT_GE(stats.model_cache_hits, 1u);
  EXPECT_GE(stats.model_cache_misses, 1u);
}

TEST(Service, DestructorResolvesQueuedJobs) {
  std::vector<std::future<service::JobResult>> futures;
  {
    service::ServiceOptions options;
    options.num_workers = 1;
    service::SolveService service(options);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(service.submit(strqubo::Palindrome{6}));
    }
    // Destroyed with most jobs still queued.
  }
  for (auto& future : futures) {
    const service::JobResult result = future.get();  // Must not hang.
    if (result.status == smtlib::CheckSatStatus::kUnknown) {
      ASSERT_FALSE(result.notes.empty());
    }
  }
}

// A "gate" member (index 0) blocks the single worker inside its sampler
// factory until released, then throws. While the worker is parked on job
// 1's gate task, the test queues more jobs behind it, so on release they
// are all waiting in the queue at once.
struct GateState {
  std::atomic<int> calls{0};
  std::atomic<bool> released{false};

  void wait_until_entered() const {
    while (calls.load() == 0) std::this_thread::sleep_for(milliseconds(1));
  }
  void release() { released.store(true); }
};

service::PortfolioMember gate_member(std::shared_ptr<GateState> state) {
  service::PortfolioMember member;
  member.name = "gate";
  member.make = [state](std::uint64_t,
                        CancelToken) -> std::unique_ptr<anneal::Sampler> {
    if (state->calls.fetch_add(1) == 0) {
      while (!state->released.load()) {
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    throw std::runtime_error("gate");
  };
  return member;
}

// A deadline expiring while job 1's SA lane is mid-sweep must time out that
// job AND every job queued behind it: the running lane's cancel poll stops
// it within a sweep, each queued lane finds its token already cancelled,
// and each job's race settles exactly once.
TEST(ServiceStress, QueuedJobsBehindDeadlinedSolveAllTimeOut) {
  constexpr std::size_t kJobs = 4;
  auto gate = std::make_shared<GateState>();
  anneal::SimulatedAnnealerParams heavy;
  heavy.num_reads = 4;
  heavy.num_sweeps = 2000000;  // Minutes of work if tokens were ignored.
  heavy.early_exit = false;
  service::ServiceOptions options;
  options.num_workers = 1;
  options.max_verify_retries = 0;
  options.portfolio.push_back(gate_member(gate));
  options.portfolio.push_back(
      service::simulated_annealing_member("sa-heavy", heavy));
  service::SolveService service(options);

  std::vector<std::future<service::JobResult>> futures;
  service::JobOptions job;
  job.deadline = milliseconds(150);
  // A long random palindrome is effectively never verified from the
  // unpolished random states a cancelled read returns.
  const strqubo::Constraint constraint = strqubo::Palindrome{12};
  job.seed = 1;
  futures.push_back(service.submit(constraint, job));
  gate->wait_until_entered();
  for (std::size_t j = 1; j < kJobs; ++j) {
    job.seed = j + 1;
    futures.push_back(service.submit(constraint, job));
  }
  gate->release();

  Stopwatch timer;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const service::JobResult result = futures[j].get();
    EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown) << "job " << j;
    EXPECT_TRUE(result.timed_out) << "job " << j;
  }
  // The cancel stopped the running lane within a sweep of the deadline —
  // nowhere near the hours the full budget would take.
  EXPECT_LT(timer.elapsed_seconds(), 30.0);
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, kJobs);
  EXPECT_EQ(stats.jobs_timed_out, kJobs);
}

// The headline stress: N submitter threads x M jobs with mixed deadlines,
// racing the pool from outside while the portfolio races inside. Checks
// that results are neither lost nor duplicated (every tag resolves exactly
// once), timeouts are reported as timeouts, and normal jobs solve.
TEST(ServiceStress, ConcurrentSubmittersMixedDeadlines) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobsPerThread = 12;

  service::ServiceOptions options;
  options.num_workers = 4;
  service::SolveService service(options);

  struct Submitted {
    std::uint64_t tag = 0;
    bool expect_timeout = false;
    std::future<service::JobResult> future;
  };
  std::vector<std::vector<Submitted>> per_thread(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &per_thread, t] {
      const std::string words[] = {"ab", "abc", "abcd", "abcde"};
      for (std::size_t j = 0; j < kJobsPerThread; ++j) {
        Submitted submitted;
        submitted.tag = t * 1000 + j + 1;
        // Every third job gets an already-expired deadline.
        submitted.expect_timeout = (j % 3 == 2);
        service::JobOptions job;
        job.tag = submitted.tag;
        job.seed = submitted.tag;
        if (submitted.expect_timeout) job.deadline = nanoseconds(1);
        submitted.future = service.submit(
            strqubo::Equality{words[(t + j) % std::size(words)]}, job);
        per_thread[t].push_back(std::move(submitted));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  std::map<std::uint64_t, int> seen;
  std::size_t timeouts = 0;
  for (std::vector<Submitted>& jobs : per_thread) {
    for (Submitted& submitted : jobs) {
      const service::JobResult result = submitted.future.get();
      // The result the future delivers is the one for this submission.
      EXPECT_EQ(result.tag, submitted.tag);
      ++seen[result.tag];
      if (submitted.expect_timeout) {
        EXPECT_TRUE(result.timed_out) << "tag " << submitted.tag;
        EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
        ++timeouts;
      } else {
        EXPECT_FALSE(result.timed_out) << "tag " << submitted.tag;
        EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat)
            << "tag " << submitted.tag;
      }
    }
  }
  // No lost and no duplicated results: every tag exactly once.
  EXPECT_EQ(seen.size(), kThreads * kJobsPerThread);
  for (const auto& [tag, count] : seen) {
    EXPECT_EQ(count, 1) << "tag " << tag;
  }

  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kThreads * kJobsPerThread);
  EXPECT_EQ(stats.jobs_completed, kThreads * kJobsPerThread);
  EXPECT_EQ(stats.jobs_timed_out, timeouts);
}

// The worker pool is the only scheduler, so with a single portfolio member
// (no race to decide the winner) verdicts and witnesses must not depend on
// how many workers share the queue, on the constraint and script paths.
TEST(ServiceStress, WorkerCountDoesNotChangeVerdictsOrWitnesses) {
  const std::vector<strqubo::Constraint> constraints = {
      strqubo::Palindrome{4},           strqubo::Palindrome{6},
      strqubo::Palindrome{7},           strqubo::Equality{"abc"},
      strqubo::RegexMatch{"a+b", 4},    strqubo::Includes{"abab", "ab"},
      strqubo::Palindrome{5},           strqubo::RegexMatch{"[ac]b", 2}};
  const std::vector<std::string> scripts = {
      "(declare-const x String)(assert (= (str.len x) 5))"
      "(assert (str.prefixof \"ab\" x))(check-sat)(get-model)",
      "(declare-const x String)(assert (str.contains x \"b\"))"
      "(assert (= (str.len x) 3))(check-sat)(get-model)",
      "(declare-const x String)(assert (= x \"hi\"))(check-sat)(get-model)"};
  auto run = [&](std::size_t workers) {
    service::ServiceOptions options;
    options.num_workers = workers;
    options.portfolio.push_back(service::simulated_annealing_member("sa"));
    service::SolveService service(options);
    service::JobOptions job;
    job.seed = 17;
    std::vector<service::JobResult> results =
        service.solve_constraints(constraints, job);
    for (service::JobResult& result : service.solve_scripts(scripts, job)) {
      results.push_back(std::move(result));
    }
    return results;
  };
  const std::vector<service::JobResult> one = run(1);
  const std::vector<service::JobResult> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].status, four[i].status) << "job " << i;
    EXPECT_EQ(one[i].text, four[i].text) << "job " << i;
    EXPECT_EQ(one[i].position, four[i].position) << "job " << i;
    EXPECT_EQ(one[i].variable, four[i].variable) << "job " << i;
    EXPECT_EQ(one[i].model_value, four[i].model_value) << "job " << i;
    EXPECT_EQ(one[i].winner, four[i].winner) << "job " << i;
    EXPECT_EQ(one[i].status, smtlib::CheckSatStatus::kSat) << "job " << i;
  }
}

// Batch API under load: input order is preserved even though completion
// order is arbitrary.
TEST(ServiceStress, BatchPreservesInputOrder) {
  service::ServiceOptions options;
  options.num_workers = 4;
  service::SolveService service(options);
  const std::vector<std::string> words = {"a",  "ab",  "abc", "abcd",
                                          "b",  "bc",  "bcd", "bcde",
                                          "c",  "cd",  "cde", "cdef"};
  std::vector<strqubo::Constraint> constraints;
  constraints.reserve(words.size());
  for (const std::string& word : words) {
    constraints.push_back(strqubo::Equality{word});
  }
  const std::vector<service::JobResult> results =
      service.solve_constraints(constraints);
  ASSERT_EQ(results.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(results[i].status, smtlib::CheckSatStatus::kSat) << i;
    ASSERT_TRUE(results[i].text.has_value());
    EXPECT_EQ(*results[i].text, words[i]) << i;
  }
}

}  // namespace
}  // namespace qsmt
