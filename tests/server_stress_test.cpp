// Server concurrency stress: >= 8 simultaneous socket sessions with
// exactly-once correct verdicts and no starvation, cross-connection
// sharing of the prepared-model and embedding caches, exactly-once
// cancellation of in-flight work on mid-session disconnect, and
// deterministic overload rejection under a saturated admission gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "anneal/exact.hpp"
#include "anneal/simulated_annealer.hpp"
#include "canon/answer_cache.hpp"
#include "graph/chimera.hpp"
#include "graph/embedding_cache.hpp"
#include "server/client.hpp"
#include "smtlib/driver.hpp"
#include "server/server.hpp"
#include "service/service.hpp"

namespace {

using namespace qsmt;
using namespace std::chrono_literals;

constexpr std::size_t kNumClients = 8;

service::ServiceOptions exact_service(std::size_t workers) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.portfolio = {service::exact_member("exact")};
  return options;
}

/// Eight concurrent socket sessions, each replaying a battery of scripts
/// with pinned verdicts over one connection (reset between scripts).
/// Every session must complete every script with the correct verdict —
/// exactly once, no starvation, no cross-tenant contamination.
TEST(ServerStress, ConcurrentSocketSessionsExactlyOnceVerdicts) {
  struct Script {
    const char* text;
    const char* expect;  // Expected reply to the whole batch.
  };
  const std::vector<Script> scripts = {
      {"(declare-const x String)(assert (= x \"ab\"))(check-sat)(get-model)",
       "sat\n(model (define-fun x () String \"ab\"))\n"},
      {"(assert (= \"a\" \"b\"))(check-sat)", "unsat\n"},
      {"(declare-const x String)(assert (= x \"k\"))(check-sat)"
       "(get-value (x))",
       "sat\n((x \"k\"))\n"},
      {"(declare-const x String)(assert (str.contains x \"q\"))"
       "(assert (= (str.len x) 2))(check-sat)",
       "sat\n"},
      {"(declare-const x String)(assert (= (str.len x) 3))"
       "(assert (= (str.len x) 4))(check-sat)",
       "unsat\n"},
  };

  server::ServerOptions options;
  options.service = exact_service(4);
  options.max_waiting = kNumClients * 2;
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      client.connect(port);
      // Each tenant cycles the battery from a different offset so the
      // pool sees a heterogeneous interleaving.
      for (std::size_t round = 0; round < 2 * scripts.size(); ++round) {
        const Script& script = scripts[(c + round) % scripts.size()];
        const std::string reply = client.request(script.text);
        if (reply != script.expect) failures.fetch_add(1);
        if (client.request("(reset)") != "") failures.fetch_add(1);
      }
      client.request("(exit)");
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);

  node.shutdown();
  const server::Server::Stats stats = node.stats();
  EXPECT_EQ(stats.sessions_opened, kNumClients);
  EXPECT_EQ(stats.sessions_closed, kNumClients);
  // Exactly-once accounting end to end: every check-sat the clients sent
  // became exactly one completed service job or a presolved local answer.
  const service::SolveService::Stats pool = node.service().stats();
  EXPECT_EQ(pool.jobs_submitted, pool.jobs_completed);
}

/// Cross-connection model-cache sharing: one worker, an SA lane whose first
/// sampler construction blocks until every sibling session has submitted.
/// When the lane unblocks, the queued structure-identical jobs from
/// *different connections* reuse the first job's prepared model.
TEST(ServerStress, SiblingSessionsShareThePreparedModelCache) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool release = false;
  std::atomic<bool> first{true};

  anneal::SimulatedAnnealerParams params;
  params.num_reads = 4;
  params.num_sweeps = 16;
  service::PortfolioMember member =
      service::simulated_annealing_member("sa", params);
  const auto original = member.make;
  member.make = [&, original](std::uint64_t seed, CancelToken cancel) {
    if (first.exchange(false)) {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return release; });
    }
    return original(seed, cancel);
  };

  server::ServerOptions options;
  options.service.num_workers = 1;
  options.service.portfolio = {member};
  options.max_inflight = kNumClients;  // Admission must not serialize.
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  // All sessions assert the same structure (same length, same shape), so
  // their jobs share a structure key and one prepared model.
  std::vector<std::thread> clients;
  std::atomic<std::size_t> sat_replies{0};
  for (std::size_t c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&] {
      server::Client client;
      client.connect(port);
      const std::string reply = client.request(
          "(declare-const x String)(assert (= x \"same\"))(check-sat)");
      if (reply == "sat\n") sat_replies.fetch_add(1);
      client.request("(exit)");
    });
  }
  // Wait until every connection's job is queued behind the blocked lane,
  // then open the gate: the lone worker drains the backlog.
  while (node.service().stats().jobs_submitted < kNumClients) {
    std::this_thread::sleep_for(1ms);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  for (std::thread& client : clients) client.join();
  node.shutdown();

  EXPECT_EQ(sat_replies.load(), kNumClients);
  const service::SolveService::Stats pool = node.service().stats();
  // Structure-identical jobs share the prepared-model cache.
  EXPECT_GE(pool.model_cache_hits, 1u);
}

/// Cross-connection embedding-cache sharing: a single embedded lane with
/// an explicitly shared cache; eight sessions solve same-shaped queries,
/// so only the first pays the minor-embedding search.
TEST(ServerStress, SessionsShareTheEmbeddingCache) {
  auto cache = std::make_shared<graph::EmbeddingCache>();
  static graph::Graph target = graph::make_chimera(4, 4, 4);
  graph::EmbeddedSamplerParams embedded;
  embedded.anneal.num_reads = 8;
  embedded.anneal.num_sweeps = 48;
  embedded.embedding_cache = cache;

  server::ServerOptions options;
  options.service.num_workers = 2;
  options.service.portfolio = {
      service::embedded_member("embedded", target, embedded)};
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  std::vector<std::thread> clients;
  std::atomic<std::size_t> decided{0};
  for (std::size_t c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&] {
      server::Client client;
      client.connect(port);
      const std::string reply = client.request(
          "(declare-const x String)(assert (= x \"ab\"))(check-sat)");
      if (reply == "sat\n") decided.fetch_add(1);
      client.request("(exit)");
    });
  }
  for (std::thread& client : clients) client.join();
  node.shutdown();

  EXPECT_EQ(decided.load(), kNumClients);
  // All eight tenants solved the same shape: one embedding search, the
  // rest warm hits on the shared cache.
  EXPECT_GE(cache->hits(), 1u);
  EXPECT_GE(cache->misses(), 1u);
}

/// A client that hangs up mid-solve gets its in-flight job cancelled
/// exactly once, the workers return to the pool, and the server keeps
/// serving other tenants.
TEST(ServerStress, MidSessionDisconnectCancelsInFlightExactlyOnce) {
  // A deep SA lane: long enough that the client's disconnect lands while
  // the solve is in flight, cancellable per sweep so the test stays fast.
  anneal::SimulatedAnnealerParams slow;
  slow.num_reads = 64;
  slow.num_sweeps = 300000;
  slow.early_exit = false;

  server::ServerOptions options;
  options.service.num_workers = 2;
  options.service.portfolio = {
      service::simulated_annealing_member("sa-slow", slow)};
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  {
    server::Client client;
    client.connect(port);
    client.request("(declare-const x String)");
    // Fire the check-sat and vanish without reading the reply.
    client.send("(assert (str.contains x \"abc\"))"
                "(assert (= (str.len x) 6))(check-sat)");
    std::this_thread::sleep_for(50ms);
    client.close();
  }

  // The liveness probe notices the disconnect, cancels the job exactly
  // once, and the session drains.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (node.stats().sessions_closed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(node.stats().sessions_closed, 1u);
  EXPECT_EQ(node.stats().disconnect_cancels, 1u);

  // The pool is healthy: a fresh tenant gets served immediately.
  server::Client verify;
  verify.connect(port);
  EXPECT_EQ(verify.request("(assert (= \"a\" \"a\"))(check-sat)"), "sat\n");
  verify.request("(exit)");
  node.shutdown();
  EXPECT_EQ(node.service().stats().jobs_submitted,
            node.service().stats().jobs_completed);
}

/// Long incremental chains from eight concurrent socket sessions: every
/// tenant's push/pop tower pins per-tenant forced witnesses, so any state
/// bleeding between sessions (witness memory, warm starts, assertion
/// stacks) would surface as a wrong model. The identical warm-up query all
/// tenants start with must share the service's structure-keyed prepared
/// cache across connections.
TEST(ServerStress, ConcurrentIncrementalChainsStayTenantIsolated) {
  server::ServerOptions options;
  options.service = exact_service(4);
  options.max_waiting = kNumClients * 4;
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&, c] {
      const char p = static_cast<char>('a' + c);
      const auto expect_model = [](char a, char b) {
        return "sat\n(model (define-fun x () String \"" + std::string(1, a) +
               std::string(1, b) + "\"))\n";
      };
      server::Client client;
      client.connect(port);
      client.request("(declare-const x String)"
                     "(assert (= (str.len x) 2))");
      // Shared warm-up: structurally identical across all tenants, so the
      // pool's prepared-model cache must serve most of them warm.
      if (client.request("(push 1)(assert (= x \"st\"))"
                         "(check-sat)(get-model)") != expect_model('s', 't')) {
        failures.fetch_add(1);
      }
      client.request("(pop 1)");
      // Private tower: per-tenant prefix, mutated suffix every round.
      client.request("(assert (str.prefixof \"" + std::string(1, p) +
                     "\" x))(push 1)");
      char q = 'k';
      for (std::size_t round = 0; round < 6; ++round) {
        q = static_cast<char>('k' + (c + round) % 6);
        const std::string reply = client.request(
            "(pop 1)(push 1)(assert (str.suffixof \"" + std::string(1, q) +
            "\" x))(check-sat)(get-model)");
        if (reply != expect_model(p, q)) failures.fetch_add(1);
      }
      // A pinned contradiction, then recovery to the surviving frame.
      if (client.request("(push 1)(assert (= x \"zz\"))(check-sat)") !=
          "unsat\n") {
        failures.fetch_add(1);
      }
      if (client.request("(pop 1)(check-sat)(get-model)") !=
          expect_model(p, q)) {
        failures.fetch_add(1);
      }
      client.request("(exit)");
    });
  }
  for (std::thread& client : clients) client.join();
  node.shutdown();

  EXPECT_EQ(failures.load(), 0u);
  const service::SolveService::Stats pool = node.service().stats();
  EXPECT_EQ(pool.jobs_submitted, pool.jobs_completed);
  // Eight tenants submitted the same warm-up structure; with four workers
  // at most four can miss the prepared cache concurrently.
  EXPECT_GE(pool.model_cache_hits, 1u);
}

/// The driver-level compiled-fragment cache is explicitly shareable across
/// drivers (server embeddings, bench harnesses). Blocks are immutable and
/// per-session state never enters the cache, so concurrent tenants sharing
/// one cache must still get their own forced witnesses.
TEST(ServerStress, SharedFragmentCacheNeverLeaksAcrossTenantDrivers) {
  const anneal::ExactSolver exact;
  const auto cache = std::make_shared<smtlib::FragmentCache>();
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    tenants.emplace_back([&, c] {
      smtlib::SmtDriver driver(exact, strqubo::BuildOptions{}, cache);
      driver.run_script("(declare-const x String)"
                        "(assert (= (str.len x) 2))");
      // Shared phase: every tenant compiles the same two fragments.
      driver.run_script("(push 1)(assert (str.prefixof \"a\" x))"
                        "(assert (str.suffixof \"b\" x))(check-sat)");
      if (driver.history().back().model_value != "ab") failures.fetch_add(1);
      driver.run_script("(pop 1)");
      // Private phase: per-tenant, per-round forced equalities.
      for (std::size_t round = 0; round < 6; ++round) {
        const std::string target{static_cast<char>('a' + c),
                                 static_cast<char>('k' + round)};
        driver.run_script("(push 1)(assert (= x \"" + target +
                          "\"))(check-sat)(pop 1)");
        const auto& record = driver.history().back();
        if (record.status != smtlib::CheckSatStatus::kSat ||
            record.model_value != target) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();

  EXPECT_EQ(failures.load(), 0u);
  // The shared phase's fragments were built at most once per concurrent
  // miss; later tenants must have hit the shared cache.
  EXPECT_GE(cache->stats().hits, 1u);
}

/// Per-tenant adaptive routing under concurrency: half the tenants hammer
/// equality-shaped queries, half substring-shaped ones. Every tenant's
/// lazily-created router must learn ONLY its own mix — a single bucket,
/// exactly one decision per check-sat — and the two table populations must
/// split kNumClients/2 / kNumClients/2. Any cross-tenant leakage (a job
/// consulting or training another tenant's table) shows up as a mixed
/// table or an inflated decision count.
TEST(ServerStress, DivergentTenantMixesLearnIsolatedRouterTables) {
  constexpr std::size_t kRounds = 5;

  server::ServerOptions options;
  options.service.num_workers = 4;  // Default sa-fast/sa-deep portfolio.
  options.max_waiting = kNumClients * 2;
  route::RouterOptions routing;
  routing.min_observations = 2;  // One 2-member race makes a bucket confident.
  routing.min_win_rate = 0.5;
  routing.explore_period = 0;
  options.tenant_routing = routing;
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  // Two structurally disjoint workload mixes (single-constraint fast path:
  // equality vs substring-match — different router buckets by op family).
  const std::string equality_mix =
      "(declare-const x String)(assert (= x \"router\"))(check-sat)";
  const std::string substring_mix =
      "(declare-const x String)(assert (str.contains x \"cd\"))"
      "(assert (= (str.len x) 3))(check-sat)";

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string& script = c % 2 == 0 ? equality_mix : substring_mix;
      server::Client client;
      client.connect(port);
      for (std::size_t round = 0; round < kRounds; ++round) {
        if (client.request(script) != "sat\n") failures.fetch_add(1);
        if (client.request("(reset)") != "") failures.fetch_add(1);
      }
      client.request("(exit)");
    });
  }
  for (std::thread& client : clients) client.join();
  node.shutdown();
  EXPECT_EQ(failures.load(), 0u);

  // Tenant ids are assigned in accept order, so a client thread's mix
  // cannot be matched to a tenant id — but purity can: every tenant's
  // table must hold exactly one bucket, from exactly one mix.
  std::size_t equality_tenants = 0;
  std::size_t substring_tenants = 0;
  std::uint64_t routed_total = 0;
  for (std::uint64_t tenant = 0; tenant < kNumClients; ++tenant) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    const std::shared_ptr<route::Router> router = node.tenant_router(tenant);
    ASSERT_NE(router, nullptr);
    const std::vector<route::BucketRecord> table = router->table();
    ASSERT_EQ(table.size(), 1u);
    const std::string& bucket = table[0].bucket;
    if (bucket.rfind("equality/", 0) == 0) {
      ++equality_tenants;
    } else if (bucket.rfind("substring-match/", 0) == 0) {
      ++substring_tenants;
    } else {
      ADD_FAILURE() << "unexpected bucket: " << bucket;
    }
    // Exactly this tenant's own check-sats consulted the table; after the
    // first race trains the bucket, the remaining rounds route.
    const route::RouterStats stats = router->stats();
    EXPECT_EQ(stats.decisions, kRounds);
    EXPECT_GE(stats.routed, kRounds - 2);
    routed_total += stats.routed;
  }
  EXPECT_EQ(equality_tenants, kNumClients / 2);
  EXPECT_EQ(substring_tenants, kNumClients / 2);
  // Every routed dispatch in the pool is accounted to exactly one tenant
  // table — the shared service saw the same number it executed.
  EXPECT_EQ(node.service().stats().jobs_routed, routed_total);
}

/// Concurrent tenants sharing one canonical answer cache: half hammer one
/// formula, half another, every tenant under its own variable name (alpha
/// variants, so cross-tenant hits exercise the witness remapping). Both
/// formulas force unique witnesses, so ANY cross-tenant contamination — a
/// witness observed outside a legitimate canonical-key hit — surfaces as a
/// byte-wrong model reply. Per-tenant Session::Stats::answer_hits must be
/// bumped exactly once per served hit, summing to the pool's answer_hits.
TEST(ServerStress, TenantsShareTheAnswerCacheWithoutWitnessLeaks) {
  constexpr std::size_t kRounds = 4;
  auto answers = std::make_shared<canon::AnswerCache>();
  service::ServiceOptions pool_options = exact_service(4);
  pool_options.answer_cache = answers;
  service::SolveService pool(pool_options);

  std::vector<std::unique_ptr<server::Session>> sessions;
  sessions.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    server::SessionOptions session_options;
    session_options.tenant = c;
    session_options.seed = c;
    sessions.push_back(
        std::make_unique<server::Session>(pool, session_options));
  }

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kNumClients);
  for (std::size_t c = 0; c < kNumClients; ++c) {
    tenants.emplace_back([&, c] {
      server::Session& session = *sessions[c];
      // Per-tenant variable name: tenants only ever collide via the
      // alpha-equivalence canonical key, never via shared text.
      const std::string var = "tenant" + std::to_string(c) + "_x";
      // Even tenants force the unique witness "aa" (single-constraint fast
      // path); odd tenants force the unique witness "bc" (script path, so
      // the cached variable is remapped through each tenant's renaming).
      const std::string script =
          c % 2 == 0
              ? "(declare-const " + var + " String)(assert (= " + var +
                    " \"aa\"))(check-sat)(get-model)"
              : "(declare-const " + var + " String)(assert (str.prefixof "
                    "\"b\" " + var + "))(assert (str.suffixof \"c\" " + var +
                    "))(assert (= (str.len " + var + ") 2))"
                    "(check-sat)(get-model)";
      const std::string expect = "sat\n(model (define-fun " + var +
                                 " () String \"" +
                                 (c % 2 == 0 ? "aa" : "bc") + "\"))\n";
      for (std::size_t round = 0; round < kRounds; ++round) {
        if (session.consume(script) != expect) failures.fetch_add(1);
        if (session.consume("(reset)") != "") failures.fetch_add(1);
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  EXPECT_EQ(failures.load(), 0u);

  const service::SolveService::Stats stats = pool.stats();
  // One lookup disposition per check-sat, and a verified hit never falls
  // back here (entries are only ever written by verified completions).
  EXPECT_EQ(stats.answer_hits + stats.answer_misses, kNumClients * kRounds);
  EXPECT_EQ(stats.answer_fallbacks, 0u);
  // Worst case every tenant's first round misses concurrently; every later
  // round must be served from the shared cache.
  EXPECT_GE(stats.answer_hits, kNumClients * (kRounds - 1));
  // Two formulas, two canonical entries — tenant count does not inflate it.
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_EQ(answers->stats().hits, stats.answer_hits + stats.answer_fallbacks);
  EXPECT_EQ(answers->stats().misses, stats.answer_misses);

  // Exactly-once per-tenant accounting: the sessions' counters partition
  // the pool's.
  std::uint64_t session_hits = 0;
  for (const auto& session : sessions) {
    session_hits += session->stats().answer_hits;
  }
  EXPECT_EQ(session_hits, stats.answer_hits);
}

/// Deterministic overload: with the single admission slot held and a line
/// of length one, the second queued tenant is turned away with an error
/// reply while the first eventually completes.
TEST(ServerStress, OverloadRejectsBeyondTheWaitingLine) {
  server::ServerOptions options;
  options.service = exact_service(2);
  options.max_inflight = 1;
  options.max_waiting = 1;
  server::Server node(options);
  const std::uint16_t port = node.listen(0);
  node.start();

  // Hold the only slot so check-sats queue deterministically.
  ASSERT_EQ(node.gate().acquire(),
            server::AdmissionGate::Outcome::kAdmitted);

  server::Client waiter;
  waiter.connect(port);
  waiter.request("(declare-const x String)");
  waiter.send("(assert (= x \"w\"))(check-sat)");
  while (node.gate().stats().waiting < 1) {
    std::this_thread::sleep_for(1ms);
  }

  server::Client rejected;
  rejected.connect(port);
  rejected.request("(declare-const x String)");
  const std::string reply =
      rejected.request("(assert (= x \"r\"))(check-sat)");
  EXPECT_NE(reply.find("(error \"server overloaded"), std::string::npos);

  node.gate().release();
  EXPECT_EQ(waiter.read_reply(), "sat\n");
  // The rejected tenant retries after backoff and now succeeds.
  EXPECT_EQ(rejected.request("(check-sat)"), "sat\n");
  waiter.request("(exit)");
  rejected.request("(exit)");
  node.shutdown();
  EXPECT_GE(node.gate().stats().rejected, 1u);
}

}  // namespace
