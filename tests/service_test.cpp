// qsmt::service — worker pool, the escalation ladder, cancellation and
// per-job deadlines.
//
// The stress tests drive the service from several submitter threads at once
// with mixed deadlines and check the accounting invariants a job queue must
// keep under contention: every future resolves, no result is lost or
// duplicated, tags round-trip, expired deadlines become graceful kUnknown
// timeouts, and a cancelled job's running rung actually observes its cancel
// token. The suite is part of the sanitizer matrix (scripts/ci.sh), so the
// same schedules run under ASan and UBSan.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/simulated_annealer.hpp"
#include "canon/answer_cache.hpp"
#include "presolve_declined.hpp"
#include "qubo/qubo_model.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/verify.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
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
  // A buffer whose content length must be 0 admits only all-NUL padding.
  // The warm-start seed IS that (unique) solution: the reverse-anneal
  // refinement starts on it, verification passes, and the job is decided
  // warm — visible in the stats and in the result note.
  const std::string padding(2, '\0');
  job.warm_start = padding;
  const service::JobResult result =
      service.submit(test::declined(strqubo::BoundedLength{2, 0, 0}), job)
          .get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, padding);
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
  // solves the job (all-NUL padding is its only solution).
  job.warm_start = "far-too-long-for-this-model";
  const service::JobResult result =
      service.submit(test::declined(strqubo::BoundedLength{2, 0, 0}), job)
          .get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, std::string(2, '\0'));
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
      service.submit(test::declined(strqubo::BoundedLength{2, 0, 0}), job)
          .get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, std::string(2, '\0'));
  EXPECT_EQ(service.stats().warm_starts, 1u);
}

TEST(Service, ShorterWarmStartIsIgnored) {
  service::SolveService service;
  service::JobOptions job;
  // Two characters against a length-4 job: the witness does not encode the
  // job's string, so no refinement runs (JobOptions::warm_start promises a
  // cold start) instead of refining a zero-padded guess.
  job.warm_start = "ab";
  const strqubo::Constraint constraint =
      test::declined(strqubo::NotContains{4, "zz"});
  const service::JobResult result = service.submit(constraint, job).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_TRUE(strqubo::verify_string(constraint, *result.text));
  EXPECT_EQ(service.stats().warm_starts, 0u);
}

TEST(Service, ConjunctionIsOneJobOverOneMergedModel) {
  // Two racing members, a conjunction the presolve declines: one job, one
  // merged model built once and shared by both members.
  service::ServiceOptions options;
  options.num_workers = 2;
  service::SolveService service(options);
  const std::vector<strqubo::Constraint> conjuncts{
      strqubo::IndexOf{4, "ab", 0},
      test::declined(strqubo::NotContains{4, "zz"})};
  const service::JobResult result = service.submit(conjuncts).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_TRUE(strqubo::verify_string(conjuncts[0], *result.text));
  EXPECT_TRUE(strqubo::verify_string(conjuncts[1], *result.text));
  service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.model_cache_misses, 1u);

  // Merged models are not kept across jobs; one-conjunct models are.
  service.submit(conjuncts).get();
  stats = service.stats();
  EXPECT_EQ(stats.model_cache_misses, 2u);
  EXPECT_EQ(stats.model_cache_entries, 0u);
}

TEST(Service, ConjunctionAnswerKeyIgnoresConjunctOrder) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.answer_cache = std::make_shared<canon::AnswerCache>();
  service::SolveService service(options);
  const strqubo::Constraint prefix = strqubo::IndexOf{4, "ab", 0};
  const strqubo::Constraint absent =
      test::declined(strqubo::NotContains{4, "zz"});
  const service::JobResult cold = service.submit({prefix, absent}).get();
  ASSERT_EQ(cold.status, smtlib::CheckSatStatus::kSat);
  const service::JobResult warm = service.submit({absent, prefix}).get();
  EXPECT_TRUE(warm.answer_cache_hit);
  EXPECT_EQ(warm.text, cold.text);
  EXPECT_EQ(service.stats().answer_hits, 1u);
}

TEST(Service, ConjunctionOfDifferentLengthsResolvesUnknown) {
  service::SolveService service;
  const service::JobResult result =
      service
          .submit(std::vector<strqubo::Constraint>{strqubo::Equality{"ab"},
                                                   strqubo::Equality{"abc"}})
          .get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes.front().find("model build failed"),
            std::string::npos);
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
  // The ladder has no sibling to cancel: a job the fast rung decides
  // leaves the cancellation counter at zero, and sa-deep never runs. Only
  // the job's own token stops its rung — an external cancellation (a
  // client disconnect) or a deadline — and the task observing it is
  // counted once, on the job and on the service.
  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);
  const service::JobResult decided =
      service.submit(test::declined(strqubo::NotContains{3, "ab"})).get();
  EXPECT_EQ(decided.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(decided.winner, "sa-fast");
  EXPECT_EQ(decided.members_cancelled, 0u);
  EXPECT_EQ(service.stats().members_cancelled, 0u);

  service::JobOptions disconnected;
  CancelSource source;
  source.cancel();
  disconnected.cancel = source;
  const service::JobResult dropped =
      service.submit(test::declined(strqubo::NotContains{3, "cd"}),
                     disconnected)
          .get();
  EXPECT_EQ(dropped.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_FALSE(dropped.timed_out);
  EXPECT_EQ(dropped.members_cancelled, 1u);

  service::JobOptions expired;
  expired.deadline = nanoseconds(1);
  const service::JobResult timed_out =
      service.submit(test::declined(strqubo::NotContains{3, "ef"}), expired)
          .get();
  EXPECT_TRUE(timed_out.timed_out);
  EXPECT_EQ(timed_out.members_cancelled, 1u);
  EXPECT_EQ(service.stats().members_cancelled, 2u);
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
      service.submit(test::declined(strqubo::NotContains{2, "ab"})).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(result.winner, "sa");
  EXPECT_GE(service.stats().member_errors, 1u);

  // The pool survived the exception and keeps serving.
  const service::JobResult again =
      service.submit(test::declined(strqubo::NotContains{2, "cd"})).get();
  EXPECT_EQ(again.status, smtlib::CheckSatStatus::kSat);
}

TEST(Service, AllMembersThrowingResolvesUnknownWithErrorNote) {
  service::ServiceOptions options;
  options.portfolio.push_back(member_of<ThrowingSampler>("thrower"));
  service::SolveService service(options);

  const service::JobResult result =
      service.submit(test::declined(strqubo::NotContains{2, "ab"})).get();
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
              "(declare-const x String)" +
              test::declined_asserts(strqubo::NotContains{2, "hi"}) +
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
  // An all-NUL buffer is too short for a content length of at least 1.
  const service::JobResult result =
      service.submit(test::declined(strqubo::BoundedLength{3, 1, 3}), job)
          .get();
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
      service.submit(test::declined(strqubo::BoundedLength{3, 1, 3}), job)
          .get();
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

// Simulated annealing that counts its sample() calls, to show which jobs
// reach the samplers at all.
class CountingSampler : public anneal::Sampler {
 public:
  CountingSampler(std::shared_ptr<std::atomic<int>> calls, std::uint64_t seed)
      : calls_(std::move(calls)), annealer_(params(seed)) {}
  anneal::SampleSet sample(const qubo::QuboModel& model) const override {
    calls_->fetch_add(1);
    return annealer_.sample(model);
  }
  anneal::SampleSet sample(
      const qubo::QuboAdjacency& adjacency) const override {
    calls_->fetch_add(1);
    return annealer_.sample(adjacency);
  }
  bool supports_adjacency_sampling() const noexcept override { return true; }
  std::string name() const override { return "counting"; }

 private:
  static anneal::SimulatedAnnealerParams params(std::uint64_t seed) {
    anneal::SimulatedAnnealerParams p;
    p.seed = seed;
    return p;
  }
  std::shared_ptr<std::atomic<int>> calls_;
  anneal::SimulatedAnnealer annealer_;
};

service::PortfolioMember counting_member(
    std::shared_ptr<std::atomic<int>> calls) {
  service::PortfolioMember member;
  member.name = "counting";
  member.make = [calls](std::uint64_t seed, CancelToken) {
    return std::make_unique<CountingSampler>(calls, seed);
  };
  return member;
}

TEST(Service, SeparableJobIsPresolvedWithoutSampling) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  service::ServiceOptions options;
  options.portfolio = {counting_member(calls)};
  service::SolveService service(options);
  const service::JobResult result =
      service.submit(strqubo::Equality{"abcd"}).get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_EQ(*result.text, "abcd");
  EXPECT_EQ(result.winner, "presolve");
  EXPECT_EQ(calls->load(), 0);
}

TEST(Service, AveragedClassArtifactStillReachesTheRace) {
  // The paper's averaged class encoding zeroes every bit on which 'c'
  // (1100011) and 'd' (1100100) disagree, so the presolve's tie-break
  // decodes the class position as 'a' — a ground state that fails
  // verification. The miss must fall through to the samplers.
  auto calls = std::make_shared<std::atomic<int>>(0);
  service::ServiceOptions options;
  options.portfolio = {counting_member(calls)};
  service::SolveService service(options);
  const strqubo::Constraint constraint = strqubo::RegexMatch{"[cd]x", 2};
  const service::JobResult result = service.submit(constraint).get();
  EXPECT_NE(result.winner, "presolve");
  EXPECT_GE(calls->load(), 1);
  if (result.status == smtlib::CheckSatStatus::kSat) {
    ASSERT_TRUE(result.text.has_value());
    EXPECT_TRUE(strqubo::verify_string(constraint, *result.text));
  }
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
    // Presolve-declined, so the jobs queue instead of being decided at
    // submission.
    const strqubo::Constraint constraint =
        test::declined(strqubo::NotContains{6, "zz"});
    for (int i = 0; i < 16; ++i) {
      futures.push_back(service.submit(constraint));
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

// Wraps every sampler a rung constructs, recording per job which rungs
// were constructed and how many sample() calls are in flight. Attempt
// seeds are mix_seed(mix_seed(job seed, rung + 1), attempt + 1), so the
// factory maps the seed it is handed back to its (job, rung).
struct LadderProbe {
  std::mutex mutex;
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> owner;
  std::vector<std::array<int, 2>> constructed;
  std::vector<int> in_flight;
  int overlaps = 0;
};

class ProbedSampler : public anneal::Sampler {
 public:
  ProbedSampler(std::unique_ptr<anneal::Sampler> inner,
                std::shared_ptr<LadderProbe> probe, std::size_t job)
      : inner_(std::move(inner)), probe_(std::move(probe)), job_(job) {}
  anneal::SampleSet sample(const qubo::QuboModel& model) const override {
    enter();
    anneal::SampleSet samples = inner_->sample(model);
    leave();
    return samples;
  }
  anneal::SampleSet sample(
      const qubo::QuboAdjacency& adjacency) const override {
    enter();
    anneal::SampleSet samples = inner_->sample(adjacency);
    leave();
    return samples;
  }
  bool supports_adjacency_sampling() const noexcept override {
    return inner_->supports_adjacency_sampling();
  }
  std::string name() const override { return inner_->name(); }

 private:
  void enter() const {
    std::lock_guard<std::mutex> lock(probe_->mutex);
    if (++probe_->in_flight[job_] > 1) ++probe_->overlaps;
  }
  void leave() const {
    std::lock_guard<std::mutex> lock(probe_->mutex);
    --probe_->in_flight[job_];
  }
  std::unique_ptr<anneal::Sampler> inner_;
  std::shared_ptr<LadderProbe> probe_;
  std::size_t job_;
};

service::PortfolioMember probed(service::PortfolioMember inner,
                                std::shared_ptr<LadderProbe> probe) {
  service::PortfolioMember member;
  member.name = inner.name;
  member.make = [inner, probe](std::uint64_t seed, CancelToken cancel)
      -> std::unique_ptr<anneal::Sampler> {
    std::size_t job = 0;
    {
      std::lock_guard<std::mutex> lock(probe->mutex);
      const auto [owner_job, rung] = probe->owner.at(seed);
      ++probe->constructed[owner_job][rung];
      job = owner_job;
    }
    return std::make_unique<ProbedSampler>(inner.make(seed, cancel), probe,
                                           job);
  };
  return member;
}

// One task per job climbs sa-fast -> sa-deep on one worker: sa-deep is
// constructed only after every sa-fast attempt failed, never for a job the
// presolve, the warm refine or sa-fast decided, and no job ever samples
// twice at once. sa-fast runs with a one-read budget here, so some
// presolve-declined jobs exhaust it and escalate.
TEST(ServiceLadder, DeepRungRunsOnlyAfterFastRungFailsAndNeverInParallel) {
  struct Case {
    strqubo::Constraint constraint;
    std::optional<std::string> warm;
  };
  const std::vector<Case> cases = {
      {strqubo::Equality{"abcd"}, std::nullopt},  // Presolved.
      {test::declined(strqubo::NotContains{4, "ab"}), "wxyz"},
      {test::declined(strqubo::NotContains{3, "ab"}), std::nullopt},
      {test::declined(strqubo::NotContains{5, "abc"}), std::nullopt},
      {test::declined(strqubo::NotContains{4, "ca"}), std::nullopt},
      {test::declined(strqubo::BoundedLength{3, 0, 2}), std::nullopt},
      {test::declined(strqubo::BoundedLength{3, 1, 3}), std::nullopt},
      {test::declined(strqubo::BoundedLength{5, 1, 4}), std::nullopt},
      {test::declined(strqubo::BoundedLength{5, 2, 5}), std::nullopt},
      {test::declined(strqubo::Includes{"abcdeabcdeabcdea", "ea"}),
       std::nullopt},
      {test::declined(strqubo::Includes{"edcbaedcbaedcbaed", "d"}),
       std::nullopt},
      {test::declined(strqubo::Includes{"aabbccddeeaabbccdd", "cd"}),
       std::nullopt},
  };
  constexpr std::size_t kRetries = 2;
  const std::vector<service::PortfolioMember> ladder = [] {
    anneal::SimulatedAnnealerParams fast;
    fast.num_reads = 1;
    fast.num_sweeps = 1;
    std::vector<service::PortfolioMember> rungs = service::default_portfolio();
    rungs[0] = service::simulated_annealing_member("sa-fast", fast);
    return rungs;
  }();
  ASSERT_EQ(ladder[1].name, "sa-deep");

  auto run = [&](std::size_t workers) {
    auto probe = std::make_shared<LadderProbe>();
    probe->constructed.assign(cases.size(), {0, 0});
    probe->in_flight.assign(cases.size(), 0);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      for (std::size_t rung = 0; rung < 2; ++rung) {
        for (std::size_t attempt = 0; attempt <= kRetries; ++attempt) {
          probe->owner[mix_seed(mix_seed(100 + i, rung + 1), attempt + 1)] =
              {i, rung};
        }
      }
    }
    service::ServiceOptions options;
    options.num_workers = workers;
    options.max_verify_retries = kRetries;
    for (const service::PortfolioMember& rung : ladder) {
      options.portfolio.push_back(probed(rung, probe));
    }
    service::SolveService service(options);
    std::vector<std::future<service::JobResult>> futures;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      service::JobOptions job;
      job.seed = 100 + i;
      job.warm_start = cases[i].warm;
      futures.push_back(service.submit(cases[i].constraint, job));
    }
    std::vector<service::JobResult> results;
    for (auto& future : futures) results.push_back(future.get());
    return std::make_pair(std::move(results), probe);
  };

  const auto [one, one_probe] = run(1);
  const auto [four, four_probe] = run(4);
  std::size_t escalated = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(one[i].status, four[i].status);
    EXPECT_EQ(one[i].text, four[i].text);
    EXPECT_EQ(one[i].winner, four[i].winner);
    EXPECT_EQ(one[i].attempts, four[i].attempts);
    EXPECT_EQ(one_probe->constructed[i], four_probe->constructed[i]);

    const std::array<int, 2>& built = four_probe->constructed[i];
    const service::JobResult& result = four[i];
    const bool warm_hit =
        std::find(result.notes.begin(), result.notes.end(), "warm start") !=
        result.notes.end();
    if (result.winner == "presolve" || warm_hit) {
      EXPECT_EQ(built[0], 0);
      EXPECT_EQ(built[1], 0);
    } else if (result.winner == "sa-fast") {
      EXPECT_EQ(built[1], 0);
    } else {
      // sa-deep starts only after every sa-fast attempt failed to verify.
      EXPECT_EQ(built[0], static_cast<int>(kRetries + 1));
      ++escalated;
    }
  }
  EXPECT_EQ(one[0].winner, "presolve");
  EXPECT_EQ(one[1].winner, "sa-fast");  // The warm refine is rung 0's.
  // Not vacuous: the weak fast rung left some jobs to sa-deep.
  EXPECT_GE(escalated, 1u);
  EXPECT_EQ(one_probe->overlaps, 0);
  EXPECT_EQ(four_probe->overlaps, 0);
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
  // Six trailing NUL characters are effectively never verified from the
  // unpolished random states a cancelled read returns.
  const strqubo::Constraint constraint =
      test::declined(strqubo::BoundedLength{12, 6, 6});
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

// The exact stages run at submission: with the only worker parked inside a
// gate job's sampler factory, a job the presolve decides is already
// resolved when submit() returns, and no sampler was constructed for it.
TEST(ServiceSubmission, PresolvedJobResolvesBeforeSubmitReturns) {
  auto gate = std::make_shared<GateState>();
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio.push_back(gate_member(gate));
  service::SolveService service(options);
  std::future<service::JobResult> parked =
      service.submit(test::declined(strqubo::NotContains{4, "zz"}));
  gate->wait_until_entered();

  std::future<service::JobResult> presolved =
      service.submit(strqubo::Equality{"abcd"});
  const bool ready = presolved.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready;
  const int factory_calls = gate->calls.load();
  gate->release();  // Before any check, so a failure cannot hang the pool.
  EXPECT_TRUE(ready);
  EXPECT_EQ(factory_calls, 1);  // Only the parked job's.
  const service::JobResult result = presolved.get();
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(result.text, "abcd");
  EXPECT_EQ(result.winner, "presolve");
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.queue_seconds, 0.0);
  EXPECT_EQ(parked.get().status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_EQ(gate->calls.load(), 1);
}

// The submitting thread runs only the exact stages: every sampler factory
// call for presolve-declined jobs (cold or warm-started, one conjunct or
// several) happens on a pool worker.
TEST(ServiceSubmission, SamplerFactoriesNeverRunOnTheSubmittingThread) {
  struct ThreadLog {
    std::mutex mutex;
    std::vector<std::thread::id> makers;
  };
  auto log = std::make_shared<ThreadLog>();
  service::ServiceOptions options;
  options.num_workers = 2;
  for (const service::PortfolioMember& rung : service::default_portfolio()) {
    service::PortfolioMember member;
    member.name = rung.name;
    member.make = [rung, log](std::uint64_t seed, CancelToken cancel) {
      {
        std::lock_guard<std::mutex> lock(log->mutex);
        log->makers.push_back(std::this_thread::get_id());
      }
      return rung.make(seed, cancel);
    };
    options.portfolio.push_back(std::move(member));
  }
  service::SolveService service(options);

  const strqubo::Constraint not_contains =
      test::declined(strqubo::NotContains{4, "ab"});
  std::vector<std::future<service::JobResult>> futures;
  futures.push_back(service.submit(not_contains));
  futures.push_back(
      service.submit(test::declined(strqubo::BoundedLength{5, 1, 4})));
  futures.push_back(service.submit(std::vector<strqubo::Constraint>{
      not_contains, test::declined(strqubo::NotContains{4, "zz"})}));
  service::JobOptions warm;
  warm.warm_start = "abab";  // Not a witness: the refinement starts off it.
  futures.push_back(service.submit(not_contains, warm));
  for (auto& future : futures) {
    EXPECT_NE(future.get().winner, "presolve");
  }

  std::lock_guard<std::mutex> lock(log->mutex);
  EXPECT_GE(log->makers.size(), 3u);
  for (const std::thread::id& maker : log->makers) {
    EXPECT_NE(maker, std::this_thread::get_id());
  }
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

// --- Single flight ---------------------------------------------------------
//
// With an answer cache configured, a conjunction job that misses and that
// the exact stages leave undecided parks behind a queued or running job
// with the same answer key. These tests hold the leader inside its first
// sampler-factory call (FlightGate) so followers are known to be parked
// before it settles, and count factory calls to see how many ladders ran.

// Holds the first factory call until released, or until that job's token
// fires, when it throws so the job stops cut short. Every call past the
// gate builds `inner`'s sampler, or throws when `inner` has no factory.
struct FlightGate {
  std::atomic<int> calls{0};
  std::atomic<bool> released{false};

  void wait_until_entered() const {
    while (calls.load() == 0) std::this_thread::sleep_for(milliseconds(1));
  }
};

service::PortfolioMember gated(std::shared_ptr<FlightGate> gate,
                                service::PortfolioMember inner) {
  service::PortfolioMember member;
  member.name = "gated-" + inner.name;
  member.make = [gate, inner](std::uint64_t seed, CancelToken cancel)
      -> std::unique_ptr<anneal::Sampler> {
    if (gate->calls.fetch_add(1) == 0) {
      while (!gate->released.load()) {
        if (cancel.cancelled()) throw std::runtime_error("cut short");
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    if (!inner.make) throw std::runtime_error("no sampler");
    return inner.make(seed, cancel);
  };
  return member;
}

service::ServiceOptions flight_options(std::shared_ptr<FlightGate> gate,
                                       service::PortfolioMember inner =
                                           service::simulated_annealing_member(
                                               "sa")) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio = {gated(std::move(gate), std::move(inner))};
  options.answer_cache = std::make_shared<canon::AnswerCache>();
  return options;
}

// Alpha-variants of one conjunction: the same conjuncts in either order
// share one canonical answer key.
std::vector<strqubo::Constraint> flight_variant(std::size_t i) {
  const strqubo::Constraint a = test::declined(strqubo::NotContains{5, "ab"});
  const strqubo::Constraint b = test::declined(strqubo::NotContains{5, "ca"});
  if (i % 2 == 0) return {a, b};
  return {b, a};
}

bool parked(std::future<service::JobResult>& future) {
  return future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready;
}

void expect_own_witness(const std::vector<strqubo::Constraint>& payload,
                        const service::JobResult& result) {
  ASSERT_EQ(result.status, smtlib::CheckSatStatus::kSat);
  ASSERT_TRUE(result.text.has_value());
  EXPECT_TRUE(strqubo::verify_conjunction(payload, *result.text));
}

TEST(ServiceCoalescing, VariantsBehindAParkedLeaderRunOneLadder) {
  constexpr std::size_t kFollowers = 5;
  auto gate = std::make_shared<FlightGate>();
  const service::ServiceOptions options = flight_options(gate);
  const std::shared_ptr<canon::AnswerCache> cache = options.answer_cache;
  service::SolveService service(options);

  service::JobOptions job;
  job.seed = 1;
  std::future<service::JobResult> leader =
      service.submit(flight_variant(0), job);
  gate->wait_until_entered();
  std::vector<std::future<service::JobResult>> followers;
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    job.seed = 1 + i;
    followers.push_back(service.submit(flight_variant(i), job));
  }
  bool all_parked = true;
  for (auto& follower : followers) all_parked = all_parked && parked(follower);
  const std::uint64_t coalesced = service.stats().answer_coalesced;
  gate->released.store(true);
  EXPECT_TRUE(all_parked);
  EXPECT_EQ(coalesced, kFollowers);

  const service::JobResult first = leader.get();
  expect_own_witness(flight_variant(0), first);
  EXPECT_FALSE(first.answer_cache_hit);
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    SCOPED_TRACE("follower " + std::to_string(i));
    const service::JobResult result = followers[i - 1].get();
    expect_own_witness(flight_variant(i), result);
    EXPECT_TRUE(result.answer_cache_hit);
    EXPECT_EQ(result.winner, "answer-cache");
    EXPECT_EQ(result.attempts, 0u);
  }
  // One ladder: every factory call was the leader's.
  EXPECT_EQ(gate->calls.load(), static_cast<int>(first.attempts));

  // Each job is counted once, and every cache hit still serves or falls
  // back.
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kFollowers + 1);
  EXPECT_EQ(stats.jobs_completed, kFollowers + 1);
  EXPECT_EQ(stats.answer_coalesced, kFollowers);
  EXPECT_EQ(stats.answer_misses, kFollowers + 1);
  EXPECT_EQ(stats.answer_hits, kFollowers);
  EXPECT_EQ(stats.answer_fallbacks, 0u);
  EXPECT_EQ(cache->stats().hits, stats.answer_hits + stats.answer_fallbacks);
}

TEST(ServiceCoalescing, ExhaustedLeaderSharesItsUnknownWithANote) {
  constexpr std::size_t kFollowers = 3;
  auto gate = std::make_shared<FlightGate>();
  service::SolveService service(
      flight_options(gate, service::PortfolioMember{"none", nullptr}));

  std::future<service::JobResult> leader = service.submit(flight_variant(0));
  gate->wait_until_entered();
  std::vector<std::future<service::JobResult>> followers;
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    followers.push_back(service.submit(flight_variant(i)));
  }
  gate->released.store(true);

  const service::JobResult first = leader.get();
  ASSERT_EQ(first.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_FALSE(first.timed_out);
  for (auto& follower : followers) {
    const service::JobResult result = follower.get();
    EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
    EXPECT_FALSE(result.timed_out);
    EXPECT_EQ(result.attempts, 0u);
    ASSERT_EQ(result.notes.size(), first.notes.size() + 1);
    EXPECT_TRUE(std::equal(first.notes.begin(), first.notes.end(),
                           result.notes.begin()));
    EXPECT_EQ(result.notes.back(),
              "verdict shared with an alpha-equivalent job in flight");
  }
  EXPECT_EQ(gate->calls.load(), 1);
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.answer_coalesced, kFollowers);
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_completed);
}

// A leader its deadline or its client's disconnect cuts short hands the
// key to one follower, which runs the ladder and serves the rest.
void expect_hand_off(const std::function<void(service::JobOptions&)>& arm,
                     const std::function<void()>& cut, bool timed_out) {
  constexpr std::size_t kFollowers = 4;
  auto gate = std::make_shared<FlightGate>();
  service::SolveService service(flight_options(gate));

  service::JobOptions lead;
  lead.seed = 1;
  arm(lead);
  std::future<service::JobResult> leader =
      service.submit(flight_variant(0), lead);
  gate->wait_until_entered();
  std::vector<std::future<service::JobResult>> followers;
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    service::JobOptions job;
    job.seed = 1 + i;
    followers.push_back(service.submit(flight_variant(i), job));
  }
  EXPECT_EQ(service.stats().answer_coalesced, kFollowers);
  cut();

  const service::JobResult first = leader.get();
  EXPECT_EQ(first.status, smtlib::CheckSatStatus::kUnknown);
  EXPECT_EQ(first.timed_out, timed_out);
  EXPECT_EQ(first.members_cancelled, 1u);
  std::size_t cold = 0;
  std::size_t cold_attempts = 0;
  for (std::size_t i = 1; i <= kFollowers; ++i) {
    SCOPED_TRACE("follower " + std::to_string(i));
    const service::JobResult result = followers[i - 1].get();
    expect_own_witness(flight_variant(i), result);
    if (!result.answer_cache_hit) {
      ++cold;
      cold_attempts += result.attempts;
    }
  }
  EXPECT_EQ(cold, 1u);  // The successor ran; the rest were served.
  EXPECT_EQ(gate->calls.load(), static_cast<int>(1 + cold_attempts));
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_completed);
  EXPECT_EQ(stats.answer_hits, kFollowers - 1);
}

TEST(ServiceCoalescing, DeadlineExpiredLeaderHandsOffToAFollower) {
  expect_hand_off(
      [](service::JobOptions& job) { job.deadline = milliseconds(200); },
      [] {}, /*timed_out=*/true);
}

TEST(ServiceCoalescing, CancelledLeaderHandsOffToAFollower) {
  CancelSource client;
  expect_hand_off([&](service::JobOptions& job) { job.cancel = client; },
                  [&] { client.cancel(); }, /*timed_out=*/false);
}

TEST(ServiceCoalescing, JobWithAnEarlierDeadlineDoesNotJoin) {
  auto gate = std::make_shared<FlightGate>();
  service::SolveService service(flight_options(gate));

  service::JobOptions lead;
  lead.deadline = std::chrono::seconds(600);
  std::future<service::JobResult> leader =
      service.submit(flight_variant(0), lead);
  gate->wait_until_entered();
  service::JobOptions sooner;
  sooner.deadline = std::chrono::seconds(300);
  std::future<service::JobResult> early =
      service.submit(flight_variant(1), sooner);
  const std::uint64_t after_early = service.stats().answer_coalesced;
  service::JobOptions later;
  later.deadline = std::chrono::seconds(900);
  std::future<service::JobResult> late =
      service.submit(flight_variant(2), later);
  const std::uint64_t after_late = service.stats().answer_coalesced;
  gate->released.store(true);

  EXPECT_EQ(after_early, 0u);
  EXPECT_EQ(after_late, 1u);
  const service::JobResult first = leader.get();
  expect_own_witness(flight_variant(0), first);
  // Queued on its own: it ran its own ladder after the leader.
  const service::JobResult own = early.get();
  expect_own_witness(flight_variant(1), own);
  EXPECT_FALSE(own.answer_cache_hit);
  EXPECT_GE(own.attempts, 1u);
  const service::JobResult served = late.get();
  expect_own_witness(flight_variant(2), served);
  EXPECT_TRUE(served.answer_cache_hit);
  EXPECT_EQ(gate->calls.load(),
            static_cast<int>(first.attempts + own.attempts));
}

TEST(ServiceCoalescing, DistinctKeysNeverCoalesce) {
  auto gate = std::make_shared<FlightGate>();
  service::SolveService service(flight_options(gate));

  std::future<service::JobResult> leader = service.submit(flight_variant(0));
  gate->wait_until_entered();
  const std::vector<strqubo::Constraint> other = {
      test::declined(strqubo::NotContains{5, "ab"})};
  std::future<service::JobResult> distinct = service.submit(other);
  const std::uint64_t coalesced = service.stats().answer_coalesced;
  gate->released.store(true);

  EXPECT_EQ(coalesced, 0u);
  const service::JobResult first = leader.get();
  expect_own_witness(flight_variant(0), first);
  const service::JobResult second = distinct.get();
  expect_own_witness(other, second);
  EXPECT_FALSE(second.answer_cache_hit);
  EXPECT_EQ(gate->calls.load(),
            static_cast<int>(first.attempts + second.attempts));
}

// Destroyed with one key's leader running and followers parked behind it,
// and a second key's leader queued with followers of its own: every future
// resolves, and the queued leader's followers share its "service stopped"
// verdict instead of being queued while the destructor drains the queue.
TEST(ServiceCoalescing, DestructorResolvesParkedFollowers) {
  constexpr std::size_t kFollowers = 3;
  auto gate = std::make_shared<FlightGate>();
  const std::vector<strqubo::Constraint> other = {
      test::declined(strqubo::NotContains{5, "ab"})};
  std::vector<std::future<service::JobResult>> running;
  std::vector<std::future<service::JobResult>> queued;
  std::thread releaser;
  {
    service::SolveService service(
        flight_options(gate, service::PortfolioMember{"none", nullptr}));
    running.push_back(service.submit(flight_variant(0)));
    gate->wait_until_entered();
    queued.push_back(service.submit(other));
    for (std::size_t i = 1; i <= kFollowers; ++i) {
      running.push_back(service.submit(flight_variant(i)));
      queued.push_back(service.submit(other));
    }
    EXPECT_EQ(service.stats().answer_coalesced, 2 * kFollowers);
    // Released while the destructor waits for the worker.
    releaser = std::thread([gate] {
      std::this_thread::sleep_for(milliseconds(200));
      gate->released.store(true);
    });
  }
  releaser.join();
  for (auto& future : running) {
    const service::JobResult result = future.get();
    EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
    EXPECT_FALSE(result.notes.empty());
  }
  for (auto& future : queued) {
    const service::JobResult result = future.get();
    EXPECT_EQ(result.status, smtlib::CheckSatStatus::kUnknown);
    ASSERT_FALSE(result.notes.empty());
    EXPECT_EQ(result.notes.front(), "service stopped before solve");
  }
  EXPECT_EQ(gate->calls.load(), 1);
}

}  // namespace
}  // namespace qsmt
