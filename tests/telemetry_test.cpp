// qsmt::telemetry — registry merge semantics, span export, mode gating,
// and the engine-level contract that a solve emits the metric names
// documented in docs/telemetry.md.
//
// These tests mutate the process-global telemetry mode; gtest_discover_tests
// runs every TEST in its own process, so they cannot interfere with each
// other or with other suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "anneal/batched_kernel.hpp"
#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "engine/engine.hpp"
#include "qubo/qubo_model.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
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

TEST(Registry, GaugeIsLastWriteWinsAcrossThreads) {
  Registry registry;
  const Gauge level = registry.gauge("level");
  level.set(1.0);
  std::thread([&level] { level.set(2.0); }).join();
  // The joined thread's set happened-after the first: its sequence number
  // is higher, so the merge must pick it even though the writes live in
  // different shards.
  const GaugeStat* stat = registry.snapshot().gauge("level");
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
      "(assert (qsmt.is_palindrome x))"
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
  smtlib::SmtDriver driver(exact);
  driver.run_script(
      "(declare-const x String)"
      "(assert (= (str.len x) 2))"
      "(assert (str.suffixof \"b\" x))"
      "(check-sat-assuming ((str.prefixof \"a\" x)))"  // cold, two misses
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

}  // namespace
}  // namespace qsmt::telemetry
