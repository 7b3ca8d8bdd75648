// qsmt::telemetry — registry merge semantics, span export, mode gating,
// and the engine-level contract that a solve emits the metric names
// documented in docs/telemetry.md.
//
// These tests mutate the process-global telemetry mode; gtest_discover_tests
// runs every TEST in its own process, so they cannot interfere with each
// other or with other suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "anneal/batched_kernel.hpp"
#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "canon/answer_cache.hpp"
#include "engine/engine.hpp"
#include "graph/embedding_cache.hpp"
#include "presolve_declined.hpp"
#include "qubo/qubo_model.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "smtlib/incremental.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt::telemetry {
namespace {

TEST(Registry, CounterMergesAcrossConcurrentWriters) {
  Registry registry;
  const Counter hits = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hits] {
      for (int i = 0; i < kAddsPerThread; ++i) hits.add();
    });
  }
  for (auto& w : workers) w.join();

  const Snapshot snapshot = registry.snapshot();
  const CounterStat* stat = snapshot.counter("hits");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->value,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Registry, HistogramMergesAcrossConcurrentWriters) {
  Registry registry;
  const Histogram latency = registry.histogram("latency", Unit::kSeconds);
  constexpr int kThreads = 6;
  constexpr int kRecordsPerThread = 5000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&latency, t] {
      // Thread t records the constant t+1, so count/sum/min/max of the
      // merged histogram are all exactly predictable.
      for (int i = 0; i < kRecordsPerThread; ++i) {
        latency.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();

  const Snapshot snapshot = registry.snapshot();
  const HistogramStat* stat = snapshot.histogram("latency");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count,
            static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<double>(t + 1) * kRecordsPerThread;
  }
  EXPECT_DOUBLE_EQ(stat->sum, expected_sum);
  EXPECT_DOUBLE_EQ(stat->min, 1.0);
  EXPECT_DOUBLE_EQ(stat->max, static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(stat->mean(), expected_sum / stat->count);
}

// Quantiles interpolate by rank inside a power-of-two bucket, so they
// track values that share a bucket instead of reporting its midpoint.
TEST(Registry, HistogramQuantileInterpolatesInsideTheBucket) {
  Registry registry;
  const Histogram values = registry.histogram("values", Unit::kNone);
  for (int v = 1; v <= 1000; ++v) values.record(static_cast<double>(v));
  const Snapshot snapshot = registry.snapshot();
  const HistogramStat* stat = snapshot.histogram("values");
  ASSERT_NE(stat, nullptr);
  // p50 and p25 fall inside [256, 512) and [128, 256), p99 inside
  // [512, 1000]; each bucket's geometric midpoint is 25-30% off.
  EXPECT_NEAR(stat->quantile(0.25), 250.0, 2.5);
  EXPECT_NEAR(stat->quantile(0.5), 500.0, 5.0);
  EXPECT_NEAR(stat->quantile(0.99), 990.0, 9.9);
  EXPECT_DOUBLE_EQ(stat->quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stat->quantile(1.0), 1000.0);
  // Narrowed to [min, max]: one repeated value reads back exactly.
  const Histogram constant = registry.histogram("constant", Unit::kNone);
  for (int i = 0; i < 10; ++i) constant.record(5.0);
  const Snapshot again = registry.snapshot();
  EXPECT_DOUBLE_EQ(again.histogram("constant")->quantile(0.5), 5.0);
}

TEST(Registry, GaugeIsLastWriteWinsAcrossThreads) {
  Registry registry;
  const Gauge level = registry.gauge("level");
  level.set(1.0);
  std::thread([&level] { level.set(2.0); }).join();
  // The joined thread's set happened-after the first: its sequence number
  // is higher, so the merge must pick it even though the writes live in
  // different shards.
  const Snapshot snapshot = registry.snapshot();
  const GaugeStat* stat = snapshot.gauge("level");
  ASSERT_NE(stat, nullptr);
  EXPECT_TRUE(stat->set);
  EXPECT_DOUBLE_EQ(stat->value, 2.0);
}

TEST(Registry, ResetClearsValuesButKeepsNames) {
  Registry registry;
  registry.counter("c").add(7);
  registry.histogram("h").record(3.0);
  registry.reset();
  const Snapshot snapshot = registry.snapshot();
  ASSERT_NE(snapshot.counter("c"), nullptr);
  EXPECT_EQ(snapshot.counter("c")->value, 0u);
  ASSERT_NE(snapshot.histogram("h"), nullptr);
  EXPECT_EQ(snapshot.histogram("h")->count, 0u);
  EXPECT_TRUE(snapshot.empty());
}

TEST(Registry, DisabledRegistryDropsWrites) {
  Registry registry;
  const Counter c = registry.counter("c");
  registry.set_enabled(false);
  c.add();
  registry.set_enabled(true);
  c.add();
  EXPECT_EQ(registry.snapshot().counter("c")->value, 1u);
}

TEST(Tally, ConcurrentAddsMatchTheGlobalCounter) {
  set_mode(Mode::kSummary);
  reset();
  Tally tally("tally.concurrent");
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tally] {
      for (int i = 0; i < kAddsPerThread; ++i) tally.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tally.value(), static_cast<std::uint64_t>(kThreads) *
                               kAddsPerThread);
  const Snapshot snapshot = registry().snapshot();
  ASSERT_NE(snapshot.counter("tally.concurrent"), nullptr);
  EXPECT_EQ(snapshot.counter("tally.concurrent")->value, tally.value());
}

TEST(Tally, CountsWithTelemetryOffWhileTheGlobalCounterStaysZero) {
  set_mode(Mode::kOff);
  reset();
  Tally tally("tally.off");
  tally.add(3);
  EXPECT_EQ(tally.value(), 3u);
  const Snapshot snapshot = registry().snapshot();
  ASSERT_NE(snapshot.counter("tally.off"), nullptr);
  EXPECT_EQ(snapshot.counter("tally.off")->value, 0u);
  EXPECT_TRUE(snapshot.empty());
}

TEST(Tally, InstancesSharingANameKeepSeparateValuesAndSumGlobally) {
  set_mode(Mode::kSummary);
  reset();
  Tally first("tally.shared");
  Tally second("tally.shared");
  first.add(2);
  second.add(5);
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(second.value(), 5u);
  const Snapshot snapshot = registry().snapshot();
  ASSERT_NE(snapshot.counter("tally.shared"), nullptr);
  EXPECT_EQ(snapshot.counter("tally.shared")->value, 7u);
}

TEST(Tally, ResetLeavesValueUnchanged) {
  set_mode(Mode::kSummary);
  reset();
  Tally tally("tally.reset");
  tally.add(4);
  reset();
  EXPECT_EQ(tally.value(), 4u);
  EXPECT_EQ(registry().snapshot().counter("tally.reset")->value, 0u);
  tally.add();
  EXPECT_EQ(tally.value(), 5u);
  EXPECT_EQ(registry().snapshot().counter("tally.reset")->value, 1u);
}

TEST(Span, NestedSpansExportOrderedTraceEvents) {
  set_mode(Mode::kTrace);
  reset();
  {
    Span outer("outer");
    outer.arg("depth", 0.0);
    {
      Span inner("inner");
      inner.arg("depth", 1.0);
    }
  }
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // Proper nesting: outer starts no later and ends no earlier than inner.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "depth");
  EXPECT_DOUBLE_EQ(events[0].args[0].second, 1.0);

  // The same spans land in the summary histograms.
  const Snapshot snapshot = registry().snapshot();
  ASSERT_NE(snapshot.histogram("outer.seconds"), nullptr);
  EXPECT_EQ(snapshot.histogram("outer.seconds")->count, 1u);
  EXPECT_EQ(snapshot.histogram("inner.seconds")->count, 1u);
}

TEST(Span, ChromeTraceJsonIsWellFormed) {
  set_mode(Mode::kTrace);
  reset();
  {
    Span span("stage.alpha");
    span.arg("k", 2.0);
  }
  std::ostringstream out;
  write_chrome_trace(out, trace_events());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage.alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"k\":2}"), std::string::npos);
}

TEST(Mode, OffEmitsNothing) {
  set_mode(Mode::kOff);
  reset();
  counter("should.not.record").add();
  histogram("also.not").record(1.0);
  { Span span("silent.stage"); }
  EXPECT_TRUE(registry().snapshot().empty());
  EXPECT_TRUE(trace_events().empty());
  std::ostringstream out;
  report(out);
  EXPECT_TRUE(out.str().empty());
}

TEST(Mode, SummaryRecordsMetricsButNoTraceEvents) {
  set_mode(Mode::kSummary);
  reset();
  counter("recorded").add();
  { Span span("timed.stage"); }
  const Snapshot snapshot = registry().snapshot();
  EXPECT_EQ(snapshot.counter("recorded")->value, 1u);
  ASSERT_NE(snapshot.histogram("timed.stage.seconds"), nullptr);
  EXPECT_EQ(snapshot.histogram("timed.stage.seconds")->count, 1u);
  EXPECT_TRUE(trace_events().empty());
}

// End-to-end contract with docs/telemetry.md: a real solve through the
// engine emits the documented per-stage and anneal metric names.
TEST(EngineTelemetry, PalindromeSolveEmitsDocumentedMetrics) {
  set_mode(Mode::kSummary);
  reset();

  anneal::SimulatedAnnealerParams params;
  params.num_reads = 32;
  params.num_sweeps = 256;
  params.seed = 7;
  const anneal::SimulatedAnnealer annealer(params);
  const engine::ScriptResult result = engine::solve_script(
      "(declare-const x String)"
      "(assert (= (str.len x) 2))"
      "(assert (qsmt.is_palindrome x))" +
          test::declined_asserts(strqubo::NotContains{2, "zz"}) +
          "(check-sat)",
      annealer);
  EXPECT_EQ(result.status, smtlib::CheckSatStatus::kSat);

  const Snapshot snapshot = registry().snapshot();
  for (const char* name :
       {"smtlib.parse.seconds", "smtlib.compile.seconds",
        "smtlib.check_sat.seconds", "smtlib.merge_qubo.seconds",
        "smtlib.verify.seconds", "qubo.build.seconds", "qubo.build.terms",
        "anneal.sample.seconds", "anneal.read.flips", "anneal.read.sweeps",
        "anneal.read.acceptance", "anneal.read.energy"}) {
    const HistogramStat* h = snapshot.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
  for (const char* name :
       {"engine.route.conjunctive", "engine.verdict.sat", "anneal.reads",
        "smtlib.check_sat.calls", "smtlib.conjunction.solved"}) {
    const CounterStat* c = snapshot.counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_GT(c->value, 0u) << name;
  }
  const CounterStat* reads = snapshot.counter("anneal.reads");
  EXPECT_EQ(reads->value, params.num_reads);
}

// Same contract for the service layer: a concurrent batch through the
// worker pool emits the documented service.* names — from worker threads,
// not just the submitting one — with counts that match the workload.
TEST(ServiceTelemetry, ConcurrentBatchEmitsDocumentedMetrics) {
  set_mode(Mode::kSummary);
  reset();

  service::ServiceOptions options;
  options.num_workers = 4;
  service::SolveService service(options);
  // Repeat one constraint after the batch resolves so the model cache
  // records a hit (two identical jobs in flight at once may both miss), and
  // give one job an already-expired deadline so the timeout path records
  // too.
  std::vector<strqubo::Constraint> constraints = {
      strqubo::Equality{"ab"}, strqubo::Equality{"abc"},
      strqubo::Equality{"abcd"}};
  const std::vector<service::JobResult> results =
      service.solve_constraints(constraints);
  ASSERT_EQ(results.size(), constraints.size());
  service.submit(strqubo::Equality{"ab"}).get();
  service::JobOptions expired;
  expired.deadline = std::chrono::nanoseconds(1);
  service.submit(strqubo::Equality{"abcde"}, expired).get();

  const Snapshot snapshot = registry().snapshot();
  const CounterStat* submitted = snapshot.counter("service.jobs.submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->value, 5u);
  const CounterStat* completed = snapshot.counter("service.jobs.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value, 5u);
  const CounterStat* timeouts = snapshot.counter("service.job.timeouts");
  ASSERT_NE(timeouts, nullptr);
  EXPECT_EQ(timeouts->value, 1u);
  const CounterStat* misses = snapshot.counter("service.model_cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value, 0u);
  ASSERT_NE(snapshot.counter("service.model_cache.hits"), nullptr);

  for (const char* name :
       {"service.job.seconds", "service.job.wait_seconds"}) {
    const HistogramStat* h = snapshot.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 5u) << name;
    EXPECT_EQ(h->unit, Unit::kSeconds) << name;
  }
  const GaugeStat* depth = snapshot.gauge("service.queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_TRUE(depth->set);

  // Four solved jobs -> four winner increments across the per-member
  // counters of the default portfolio.
  std::uint64_t winner_total = 0;
  for (const CounterStat& stat : snapshot.counters) {
    if (stat.name.rfind("service.winner.", 0) == 0) {
      winner_total += stat.value;
    }
  }
  EXPECT_EQ(winner_total, 4u);
}

// Pins service.answer.coalesced: alpha-variants submitted while their
// leader sits in its sampler factory park behind it, each job is counted
// submitted and completed once, and every answer-cache lookup hit still
// either serves or falls back.
TEST(ServiceTelemetry, CoalescedFollowersAreCountedOnce) {
  set_mode(Mode::kSummary);
  reset();
  constexpr std::uint64_t kFollowers = 4;

  struct Gate {
    std::atomic<int> calls{0};
    std::atomic<bool> released{false};
  };
  auto gate = std::make_shared<Gate>();
  const service::PortfolioMember sa = service::simulated_annealing_member("sa");
  service::PortfolioMember gated;
  gated.name = "gated";
  gated.make = [gate, sa](std::uint64_t seed, CancelToken cancel) {
    if (gate->calls.fetch_add(1) == 0) {
      while (!gate->released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return sa.make(seed, cancel);
  };
  service::ServiceOptions options;
  options.num_workers = 1;
  options.portfolio = {gated};
  options.answer_cache = std::make_shared<canon::AnswerCache>();
  service::SolveService service(options);

  const strqubo::Constraint a = test::declined(strqubo::NotContains{5, "ab"});
  const strqubo::Constraint b = test::declined(strqubo::NotContains{5, "ca"});
  std::vector<std::future<service::JobResult>> futures;
  futures.push_back(service.submit(std::vector{a, b}));
  while (gate->calls.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::uint64_t i = 0; i < kFollowers; ++i) {
    futures.push_back(service.submit(i % 2 ? std::vector{a, b}
                                           : std::vector{b, a}));
  }
  gate->released.store(true);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, smtlib::CheckSatStatus::kSat);
  }

  const Snapshot snapshot = registry().snapshot();
  const auto value = [&](const char* name) {
    const CounterStat* c = snapshot.counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0u : c->value;
  };
  EXPECT_EQ(value("service.answer.coalesced"), kFollowers);
  EXPECT_EQ(service.stats().answer_coalesced, kFollowers);
  EXPECT_EQ(value("service.jobs.submitted"), kFollowers + 1);
  EXPECT_EQ(value("service.jobs.completed"), kFollowers + 1);
  EXPECT_EQ(value("service.answer.hits"), kFollowers);
  EXPECT_EQ(value("answer_cache.hits"),
            value("service.answer.hits") + value("service.answer.fallbacks"));
}

// Pins the exact-presolve names from docs/telemetry.md: one service job of
// each disposition — a separable model the presolve decides, a not-contains
// model it declines (its window gadget is one component over the cap), and
// an averaged class artifact whose presolved ground state fails
// verification — each counted exactly once, with one `presolve` span per
// job.
TEST(PresolveTelemetry, ServiceJobsEmitDocumentedMetrics) {
  set_mode(Mode::kSummary);
  reset();

  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);
  const service::JobResult decided =
      service.submit(strqubo::Equality{"ab"}).get();
  EXPECT_EQ(decided.winner, "presolve");
  service.submit(strqubo::NotContains{2, "ab"}).get();
  service.submit(strqubo::RegexMatch{"[cd]x", 2}).get();

  const Snapshot snapshot = registry().snapshot();
  for (const char* name :
       {"presolve.decided", "presolve.declined", "presolve.unverified",
        "service.winner.presolve"}) {
    const CounterStat* c = snapshot.counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value, 1u) << name;
  }
  const HistogramStat* span = snapshot.histogram("presolve.seconds");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 3u);
}

// Pins the batched-substrate metric names from docs/telemetry.md: a
// multi-read sample() routes onto the batched kernel and emits the
// anneal.batch.* counters with workload-matched values.
TEST(BatchTelemetry, BatchedSampleEmitsDocumentedMetrics) {
  set_mode(Mode::kSummary);
  reset();

  anneal::SimulatedAnnealerParams params;
  params.num_reads = 8;
  params.num_sweeps = 32;
  params.seed = 3;
  const anneal::SimulatedAnnealer annealer(params);
  qubo::QuboModel model(6);
  for (std::size_t i = 0; i < 6; ++i) model.add_linear(i, i % 2 ? 1.0 : -1.0);
  model.add_quadratic(0, 1, 0.5);
  annealer.sample(model);

  const Snapshot snapshot = registry().snapshot();
  const CounterStat* invocations = snapshot.counter("anneal.batch.invocations");
  ASSERT_NE(invocations, nullptr);
  EXPECT_EQ(invocations->value, 1u);
  const CounterStat* replicas = snapshot.counter("anneal.batch.replicas");
  ASSERT_NE(replicas, nullptr);
  EXPECT_EQ(replicas->value, params.num_reads);
  const CounterStat* avx2 = snapshot.counter("anneal.batch.avx2");
  if (anneal::batched_avx2_enabled()) {
    ASSERT_NE(avx2, nullptr);
    EXPECT_EQ(avx2->value, 1u);
  } else {
    // Never interned on hosts without the AVX2 path.
    EXPECT_EQ(avx2, nullptr);
  }
}

// Trace mode samples on the same batched kernel as every other mode: a
// 16-read sample() counts one batched invocation, emits one anneal.read
// slice per read carrying its read index and final energy, and returns the
// sample set a telemetry-off call returns.
TEST(BatchTelemetry, TraceModeKeepsBatchedKernelAndPerReadSlices) {
  anneal::SimulatedAnnealerParams params;
  params.num_reads = 16;
  params.num_sweeps = 64;
  params.seed = 11;
  const anneal::SimulatedAnnealer annealer(params);
  qubo::QuboModel model(10);
  for (std::size_t i = 0; i < 10; ++i) {
    model.add_linear(i, i % 3 ? 0.7 : -1.2);
    if (i + 1 < 10) model.add_quadratic(i, i + 1, i % 2 ? 1.5 : -0.8);
  }

  set_mode(Mode::kOff);
  reset();
  const anneal::SampleSet quiet = annealer.sample(model);
  set_mode(Mode::kTrace);
  reset();
  const anneal::SampleSet traced = annealer.sample(model);

  const Snapshot snapshot = registry().snapshot();
  const CounterStat* invocations = snapshot.counter("anneal.batch.invocations");
  ASSERT_NE(invocations, nullptr);
  EXPECT_EQ(invocations->value, 1u);

  std::vector<double> reads;
  for (const TraceEvent& event : trace_events()) {
    if (event.name != "anneal.read") continue;
    ASSERT_EQ(event.args.size(), 2u);
    EXPECT_EQ(event.args[0].first, "read");
    EXPECT_EQ(event.args[1].first, "energy");
    reads.push_back(event.args[0].second);
    const double energy = event.args[1].second;
    EXPECT_TRUE(std::any_of(traced.begin(), traced.end(),
                            [&](const anneal::Sample& s) {
                              return s.energy == energy;
                            }))
        << "read " << event.args[0].second;
  }
  ASSERT_EQ(reads.size(), params.num_reads);
  for (std::size_t r = 0; r < reads.size(); ++r) {
    EXPECT_EQ(reads[r], static_cast<double>(r));
  }

  ASSERT_EQ(traced.size(), quiet.size());
  for (std::size_t k = 0; k < traced.size(); ++k) {
    EXPECT_EQ(traced[k].energy, quiet[k].energy) << "sample " << k;
    EXPECT_EQ(traced[k].bits, quiet[k].bits) << "sample " << k;
    EXPECT_EQ(traced[k].num_occurrences, quiet[k].num_occurrences)
        << "sample " << k;
  }
}

// Pins the incremental-solving counters from docs/telemetry.md. The
// workload walks every hot-resolve path through one driver: a cold first
// solve, an unchanged re-check (witness reuse), a changed assumption that
// the live witness fails (warm start over a fragment hit + miss), and
// pushed/popped re-checks the witness still satisfies (more reuse). The
// global counters must mirror the per-context deterministic stats
// exactly — that equivalence is the documented contract.
TEST(IncrementalTelemetry, HotResolveCountersMirrorContextStats) {
  set_mode(Mode::kSummary);
  reset();

  const anneal::ExactSolver exact;
  // One-hot class selectors: the six-letter class conjunct is one
  // 13-variable component, so the presolve leaves every model to the
  // sampler path under test.
  strqubo::BuildOptions options;
  options.regex_encoding = strqubo::RegexClassEncoding::kOneHotSelectors;
  smtlib::SmtDriver driver(exact, options);
  driver.run_script(
      "(declare-const x String)"
      "(assert (= (str.len x) 2))"
      "(assert (str.suffixof \"b\" x))" +
      test::declined_asserts(strqubo::RegexMatch{"[abcdef]b", 2}, options) +
      "(check-sat-assuming ((str.prefixof \"a\" x)))"  // cold, three misses
      "(check-sat-assuming ((str.prefixof \"a\" x)))"  // witness reuse
      "(check-sat-assuming ((str.prefixof \"c\" x)))"  // "ab" fails: warm
      "(push)"
      "(assert (str.prefixof \"c\" x))"
      "(check-sat)"  // the depth-0 witness "cb" satisfies: reuse
      "(pop)"
      "(check-sat)");  // still satisfied after the pop: reuse

  const smtlib::IncrementalStats stats = driver.solve_context().stats();
  const smtlib::FragmentCache::Stats fragments =
      driver.solve_context().fragments().stats();
  EXPECT_GE(stats.cold_starts, 1u);
  EXPECT_GE(stats.witness_reuses, 2u);
  EXPECT_GE(stats.warm_starts, 1u);
  EXPECT_GE(fragments.hits, 1u);
  EXPECT_GE(fragments.misses, 1u);

  const Snapshot snapshot = registry().snapshot();
  const struct {
    const char* name;
    std::uint64_t expected;
  } pins[] = {
      {"incremental.fragment.hits", fragments.hits},
      {"incremental.fragment.misses", fragments.misses},
      {"incremental.witness.reuse", stats.witness_reuses},
      {"incremental.warm.starts", stats.warm_starts},
      {"incremental.warm.hits", stats.warm_hits},
      {"incremental.cold.starts", stats.cold_starts},
  };
  for (const auto& pin : pins) {
    const CounterStat* counter = snapshot.counter(pin.name);
    if (pin.expected == 0) {
      // A counter that never fired is simply not interned.
      if (counter != nullptr) {
        EXPECT_EQ(counter->value, 0u) << pin.name;
      }
      continue;
    }
    ASSERT_NE(counter, nullptr) << pin.name;
    EXPECT_EQ(counter->value, pin.expected) << pin.name;
  }
}

// Re-solving a certified-unsat disjunction through one SolveContext loads
// the exact theory lemmas remembered by the first DPLL(T) run back into
// the second, and the retention counter mirrors the context stat.
TEST(IncrementalTelemetry, RetainedTheoryLemmasEmitClauseCounter) {
  set_mode(Mode::kSummary);
  reset();

  const anneal::ExactSolver exact;
  smtlib::SolveContext context;
  const std::string script =
      "(declare-const x String)"
      "(assert (= (str.len x) 1))"
      "(assert (or (= (str.len x) 2) (= (str.len x) 3)))"
      "(check-sat)";
  const engine::ScriptResult first =
      engine::solve_script(script, exact, {}, /*force_dpllt=*/true, &context);
  EXPECT_EQ(first.status, smtlib::CheckSatStatus::kUnsat);
  const engine::ScriptResult second =
      engine::solve_script(script, exact, {}, /*force_dpllt=*/true, &context);
  EXPECT_EQ(second.status, smtlib::CheckSatStatus::kUnsat);

  const Snapshot snapshot = registry().snapshot();
  const CounterStat* retained =
      snapshot.counter("incremental.clauses.retained");
  ASSERT_NE(retained, nullptr);
  EXPECT_GT(retained->value, 0u);
  EXPECT_EQ(retained->value, context.stats().clauses_retained);
}

// Same pin for the daemon layer: one socket session through qsmt-server's
// full request path (frame decode -> session -> admission -> service)
// emits the server.* names documented in docs/telemetry.md, including the
// admission-reject counter when the gate is saturated.
TEST(ServerTelemetry, SocketSessionEmitsDocumentedMetrics) {
  set_mode(Mode::kSummary);
  reset();

  server::ServerOptions options;
  options.service.num_workers = 2;
  options.service.portfolio = {service::exact_member("exact")};
  options.max_inflight = 1;
  options.max_waiting = 0;  // No line: a busy gate rejects instantly.
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  server::Client client;
  client.connect(port);
  EXPECT_EQ(client.request("(declare-const x String)"
                           "(assert (= x \"ab\"))(check-sat)"),
            "sat\n");
  // Saturate the admission gate from outside, then watch the session's
  // next check-sat bounce off it.
  ASSERT_EQ(node.gate().acquire(), server::AdmissionGate::Outcome::kAdmitted);
  const std::string rejected = client.request("(check-sat)");
  EXPECT_NE(rejected.find("server overloaded"), std::string::npos);
  node.gate().release();
  client.request("(exit)");
  node.shutdown();

  const Snapshot snapshot = registry().snapshot();
  for (const auto& [name, value] :
       {std::pair<const char*, std::uint64_t>{"server.sessions.opened", 1},
        {"server.sessions.closed", 1},
        {"server.admission.rejects", 1}}) {
    const CounterStat* stat = snapshot.counter(name);
    ASSERT_NE(stat, nullptr) << name;
    EXPECT_EQ(stat->value, value) << name;
  }
  const CounterStat* commands = snapshot.counter("server.commands");
  ASSERT_NE(commands, nullptr);
  EXPECT_GE(commands->value, 3u);
  const CounterStat* frames = snapshot.counter("server.frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_GE(frames->value, 3u);
  for (const char* name : {"server.sessions.active", "server.queue.depth"}) {
    const GaugeStat* gauge = snapshot.gauge(name);
    ASSERT_NE(gauge, nullptr) << name;
    EXPECT_TRUE(gauge->set) << name;
  }
  // Only the dispatched (admitted) check-sat reaches the solve timer; the
  // presolved and rejected ones never do.
  const HistogramStat* seconds = snapshot.histogram("server.checksat.seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->count, 1u);
  EXPECT_EQ(seconds->unit, Unit::kSeconds);
}

TEST(ServiceTelemetry, OffModeIsSilentFromWorkerThreads) {
  set_mode(Mode::kOff);
  reset();
  service::ServiceOptions options;
  options.num_workers = 2;
  service::SolveService service(options);
  const std::vector<strqubo::Constraint> constraints = {
      strqubo::Equality{"ab"}, strqubo::Reverse{"abc"}};
  const std::vector<service::JobResult> results =
      service.solve_constraints(constraints);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, smtlib::CheckSatStatus::kSat);
  // Worker threads ran real solves; with telemetry off none of them may
  // have interned or recorded anything.
  EXPECT_TRUE(registry().snapshot().empty());
}

// Pins the counters each cache layer gained from util::LruCache
// (docs/telemetry.md): fragment and model insertions and evictions, and
// embedding insertions, each equal to the workload's exact count.
TEST(CacheTelemetry, SharedLruCountersAreEmitted) {
  set_mode(Mode::kSummary);
  reset();

  smtlib::FragmentCache fragments(1);
  fragments.get_or_build(strqubo::Equality{"ab"}, {});
  fragments.get_or_build(strqubo::Equality{"cd"}, {});  // Evicts "ab".

  graph::EmbeddingCache embeddings(4);
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.finalize();
  graph::Embedding embedding;
  embedding.chains = {{0}, {1}, {2}};
  embeddings.insert(path, embedding);
  embeddings.insert(path, embedding);  // Already present: keeps the first.

  // One more distinct one-conjunct model than the model cache's 256.
  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);
  constexpr std::size_t kModels = 260;
  for (std::size_t i = 0; i < kModels; ++i) {
    const std::string text = {static_cast<char>('a' + i % 26),
                              static_cast<char>('a' + i / 26)};
    service.submit(strqubo::Equality{text}).get();
  }

  const Snapshot snapshot = registry().snapshot();
  const struct {
    const char* name;
    std::uint64_t expected;
  } pins[] = {
      {"incremental.fragment.insertions", 2},
      {"incremental.fragment.evictions", 1},
      {"embed.cache.insertions", 1},
      {"service.model_cache.insertions", kModels},
      {"service.model_cache.evictions", kModels - 256},
  };
  for (const auto& pin : pins) {
    const CounterStat* counter = snapshot.counter(pin.name);
    ASSERT_NE(counter, nullptr) << pin.name;
    EXPECT_EQ(counter->value, pin.expected) << pin.name;
  }
  EXPECT_EQ(fragments.stats().evictions, 1u);
  EXPECT_EQ(service.stats().model_cache_entries, 256u);
}

}  // namespace
}  // namespace qsmt::telemetry
