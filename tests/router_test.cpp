// The adaptive portfolio router's deterministic proof layer (ISSUE 9):
//
//  * feature-extraction pins — op/size/density/gap classes and the bucket
//    key are part of the routing contract, so they are pinned literally;
//  * the replayable decision harness — a recorded stream of (features,
//    per-member outcome) pairs driven through route::replay with the
//    resulting transcript pinned verbatim, so any routing-policy change
//    shows up as a readable test diff;
//  * snapshot round-trips (persistence across restarts and portfolio
//    reordering);
//  * differential proof that routing never changes answers: with one
//    worker the portfolio race tries members in index order with
//    per-(member, attempt) seeds, and routed dispatch preserves those
//    seeds, so routed solves are byte-identical to full-race solves across
//    every fuzz op family — including when the routed member fails and the
//    service falls back to racing the rest;
//  * solution-chained pipelines — stage N+1 warm-starts from stage N's
//    witness, matches the cold path's verdicts, and route.chain.*
//    telemetry counts exactly once per hop.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "presolve_declined.hpp"
#include "route/features.hpp"
#include "route/replay.hpp"
#include "route/router.hpp"
#include "service/service.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt {
namespace {

using route::DensityClass;
using route::GapClass;
using route::JobFeatures;
using route::RecordedOutcome;
using route::ReplayStep;
using route::RouteAction;
using route::Router;
using route::RouterOptions;

// ---------------------------------------------------------------------------
// Features

TEST(RouterFeatures, EqualityBucketKeyPinned) {
  const JobFeatures f = route::extract_features(strqubo::Equality{"abc"});
  EXPECT_EQ(f.op, "equality");
  EXPECT_EQ(f.num_variables, 21u);  // 7 bits per character.
  EXPECT_EQ(f.size_bucket, 5u);     // bit_width(21)
  EXPECT_EQ(f.density, DensityClass::kDiagonal);
  EXPECT_EQ(f.gap, GapClass::kUnit);
  EXPECT_EQ(f.bucket_key(), "equality/v5/diag/unit");
}

TEST(RouterFeatures, DensityClasses) {
  EXPECT_EQ(route::density_class_of(strqubo::Equality{"ab"}),
            DensityClass::kDiagonal);
  EXPECT_EQ(route::density_class_of(strqubo::Reverse{"ab"}),
            DensityClass::kDiagonal);
  // Position one-hots / mirrored-bit gadgets are quadratic-penalty models.
  EXPECT_EQ(route::density_class_of(strqubo::Includes{"abab", "ab"}),
            DensityClass::kQuadratic);
  EXPECT_EQ(route::density_class_of(strqubo::Palindrome{3}),
            DensityClass::kQuadratic);
  // Regex density depends on whether the pattern uses character classes.
  EXPECT_EQ(route::density_class_of(strqubo::RegexMatch{"a+b", 3}),
            DensityClass::kDiagonal);
  EXPECT_EQ(route::density_class_of(strqubo::RegexMatch{"[ac]b", 2}),
            DensityClass::kQuadratic);
  // The only two formulations that allocate ancilla variables.
  EXPECT_EQ(route::density_class_of(strqubo::NotContains{3, "ab"}),
            DensityClass::kAncilla);
  EXPECT_EQ(route::density_class_of(strqubo::BoundedLength{3, 1, 2}),
            DensityClass::kAncilla);
}

TEST(RouterFeatures, GapClassesFromConformanceFloors) {
  // Pinned against the conformance registry's proven per-op minimum
  // gap_floor (positive cases only): index_of/char_at hold 2A floors,
  // palindrome's length-1 case is gapless, bounded_length's soft selector
  // floors at 0.2, and most generating formulations sit at A.
  EXPECT_EQ(route::gap_class_of("equality"), GapClass::kUnit);
  EXPECT_EQ(route::gap_class_of("includes"), GapClass::kUnit);
  EXPECT_EQ(route::gap_class_of("index-of"), GapClass::kWide);
  EXPECT_EQ(route::gap_class_of("char-at"), GapClass::kWide);
  EXPECT_EQ(route::gap_class_of("palindrome"), GapClass::kFractional);
  EXPECT_EQ(route::gap_class_of("bounded-length"), GapClass::kFractional);
  // Ops without a registry entry default to the common unit class.
  EXPECT_EQ(route::gap_class_of("no-such-op"), GapClass::kUnit);
}

TEST(RouterFeatures, SizeBuckets) {
  EXPECT_EQ(route::size_bucket_of(0), 0u);
  EXPECT_EQ(route::size_bucket_of(1), 1u);
  EXPECT_EQ(route::size_bucket_of(21), 5u);
  EXPECT_EQ(route::size_bucket_of(64), 7u);
}

// ---------------------------------------------------------------------------
// Decision mechanics

RouterOptions test_options(std::size_t min_observations = 2,
                           std::size_t explore_period = 4) {
  RouterOptions options;
  options.min_observations = min_observations;
  options.min_win_rate = 0.6;
  options.explore_period = explore_period;
  return options;
}

JobFeatures equality_features() {
  return route::extract_features(strqubo::Equality{"abc"});
}

TEST(RouterDecisions, FreshBucketRaces) {
  Router router({"sa-fast", "sa-deep"}, test_options());
  const route::RouteDecision decision = router.decide(equality_features());
  EXPECT_EQ(decision.action, RouteAction::kRace);
  EXPECT_EQ(decision.reason, route::RaceReason::kLowConfidence);
  EXPECT_EQ(decision.bucket, "equality/v5/diag/unit");
}

TEST(RouterDecisions, ConfidentBucketRoutesToBestMember) {
  Router router({"sa-fast", "sa-deep"}, test_options());
  const JobFeatures f = equality_features();
  router.decide(f);  // Creates the bucket.
  router.record_win(f.bucket_key(), 1, /*was_race=*/true);
  const route::RouteDecision decision = router.decide(f);
  EXPECT_EQ(decision.action, RouteAction::kRoute);
  EXPECT_EQ(decision.member, 1u);
}

TEST(RouterDecisions, ExploreRacesEveryPeriod) {
  Router router({"sa-fast", "sa-deep"}, test_options(1, 3));
  const JobFeatures f = equality_features();
  router.decide(f);
  router.record_win(f.bucket_key(), 0, /*was_race=*/true);
  // Bucket ordinals 1..5: ordinal 3 hits the explore period.
  std::vector<route::RaceReason> reasons;
  for (int i = 0; i < 5; ++i) reasons.push_back(router.decide(f).reason);
  EXPECT_EQ(reasons[0], route::RaceReason::kNone);
  EXPECT_EQ(reasons[1], route::RaceReason::kNone);
  EXPECT_EQ(reasons[2], route::RaceReason::kExplore);
  EXPECT_EQ(reasons[3], route::RaceReason::kNone);
  EXPECT_EQ(reasons[4], route::RaceReason::kNone);
}

TEST(RouterDecisions, FallbackLossesErodeRoutingClaim) {
  Router router({"sa-fast", "sa-deep"}, test_options(1, 0));
  const JobFeatures f = equality_features();
  router.decide(f);
  router.record_win(f.bucket_key(), 0, /*was_race=*/true);
  ASSERT_EQ(router.decide(f).action, RouteAction::kRoute);
  // Two fallbacks drop sa-fast's rate to 1/3 < 0.6: the race reopens.
  router.record_fallback(f.bucket_key(), 0);
  router.record_fallback(f.bucket_key(), 0);
  const route::RouteDecision decision = router.decide(f);
  EXPECT_EQ(decision.action, RouteAction::kRace);
  EXPECT_EQ(decision.reason, route::RaceReason::kLowConfidence);
}

TEST(RouterDecisions, TieBreaksToLowestIndex) {
  Router router({"sa-fast", "sa-deep"}, test_options(1, 0));
  const JobFeatures f = equality_features();
  router.decide(f);
  router.record_win(f.bucket_key(), 1, /*was_race=*/false);
  router.record_win(f.bucket_key(), 0, /*was_race=*/false);
  // Both members at rate 1.0: the lower index wins the tie (the same
  // order a single-worker race tries members in).
  const route::RouteDecision decision = router.decide(f);
  ASSERT_EQ(decision.action, RouteAction::kRoute);
  EXPECT_EQ(decision.member, 0u);
}

TEST(RouterDecisions, BucketCapRacesNovelShapes) {
  RouterOptions options = test_options(1, 0);
  options.max_buckets = 1;
  Router router({"sa-fast", "sa-deep"}, options);
  router.decide(equality_features());
  const route::RouteDecision decision =
      router.decide(route::extract_features(strqubo::Reverse{"abc"}));
  EXPECT_EQ(decision.action, RouteAction::kRace);
  EXPECT_EQ(router.stats().buckets, 1u);
}

// ---------------------------------------------------------------------------
// The replayable decision harness

TEST(RouterReplay, PinnedTranscript) {
  Router router({"sa-fast", "sa-deep"}, test_options(2, 4));
  std::vector<ReplayStep> stream;
  for (int i = 0; i < 10; ++i) {
    ReplayStep step;
    step.features = equality_features();
    // sa-fast wins everywhere except step 8's explore race, which makes
    // step 9's routed dispatch miss and fall back.
    step.outcome.winner = (i == 8 || i == 9) ? 1 : 0;
    stream.push_back(std::move(step));
  }
  const std::vector<route::ReplayedDecision> decisions =
      route::replay(router, stream);
  EXPECT_EQ(route::transcript(decisions, router),
            "#00 equality/v5/diag/unit race(low_confidence) winner=sa-fast\n"
            "#01 equality/v5/diag/unit route member=sa-fast hit\n"
            "#02 equality/v5/diag/unit route member=sa-fast hit\n"
            "#03 equality/v5/diag/unit route member=sa-fast hit\n"
            "#04 equality/v5/diag/unit race(explore) winner=sa-fast\n"
            "#05 equality/v5/diag/unit route member=sa-fast hit\n"
            "#06 equality/v5/diag/unit route member=sa-fast hit\n"
            "#07 equality/v5/diag/unit route member=sa-fast hit\n"
            "#08 equality/v5/diag/unit race(explore) winner=sa-deep\n"
            "#09 equality/v5/diag/unit route member=sa-fast miss "
            "winner=sa-deep\n");

  const route::RouterStats stats = router.stats();
  EXPECT_EQ(stats.decisions, 10u);
  EXPECT_EQ(stats.routed, 7u);
  EXPECT_EQ(stats.races_low_confidence, 1u);
  EXPECT_EQ(stats.races_explore, 2u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.wins_recorded, 10u);
  EXPECT_EQ(stats.losses_recorded, 4u);
  EXPECT_EQ(stats.buckets, 1u);
}

TEST(RouterReplay, ReplayIsDeterministic) {
  std::vector<ReplayStep> stream;
  for (int i = 0; i < 20; ++i) {
    ReplayStep step;
    step.features = route::extract_features(
        i % 2 == 0 ? strqubo::Constraint(strqubo::Equality{"abc"})
                   : strqubo::Constraint(strqubo::Palindrome{3}));
    step.outcome.winner = i % 3 == 0 ? 1 : 0;
    stream.push_back(std::move(step));
  }
  Router a({"sa-fast", "sa-deep"}, test_options());
  Router b({"sa-fast", "sa-deep"}, test_options());
  EXPECT_EQ(route::transcript(route::replay(a, stream), a),
            route::transcript(route::replay(b, stream), b));
  EXPECT_EQ(a.save_snapshot(), b.save_snapshot());
}

TEST(RouterReplay, NoWinnerRaceDebitsEveryMember) {
  Router router({"sa-fast", "sa-deep"}, test_options());
  ReplayStep step;
  step.features = equality_features();
  step.outcome.winner = RecordedOutcome::kNoWinner;
  const auto decisions = route::replay(router, {step});
  EXPECT_EQ(route::transcript(decisions, router),
            "#00 equality/v5/diag/unit race(low_confidence) winner=none\n");
  EXPECT_EQ(router.stats().losses_recorded, 2u);
  EXPECT_EQ(router.stats().wins_recorded, 0u);
}

// ---------------------------------------------------------------------------
// Snapshots

TEST(RouterSnapshot, RoundTrips) {
  Router trained({"sa-fast", "sa-deep"}, test_options());
  std::vector<ReplayStep> stream;
  for (int i = 0; i < 12; ++i) {
    ReplayStep step;
    step.features = route::extract_features(
        i % 2 == 0 ? strqubo::Constraint(strqubo::Equality{"abc"})
                   : strqubo::Constraint(strqubo::Includes{"abab", "ab"}));
    step.outcome.winner = i % 4 == 0 ? 1 : 0;
    stream.push_back(std::move(step));
  }
  route::replay(trained, stream);

  const std::string snapshot = trained.save_snapshot();
  Router restored({"sa-fast", "sa-deep"}, test_options());
  ASSERT_TRUE(restored.load_snapshot(snapshot));
  EXPECT_EQ(restored.save_snapshot(), snapshot);
  EXPECT_EQ(restored.stats().buckets, trained.stats().buckets);
}

TEST(RouterSnapshot, ReorderedPortfolioRemapsByName) {
  Router trained({"sa-fast", "sa-deep"}, test_options(1, 0));
  const JobFeatures f = equality_features();
  trained.decide(f);
  trained.record_win(f.bucket_key(), 1, /*was_race=*/true);  // sa-deep wins.

  Router reordered({"sa-deep", "sa-fast"}, test_options(1, 0));
  ASSERT_TRUE(reordered.load_snapshot(trained.save_snapshot()));
  // sa-deep's win survives the reorder and now routes to index 0.
  const route::RouteDecision decision = reordered.decide(f);
  ASSERT_EQ(decision.action, RouteAction::kRoute);
  EXPECT_EQ(decision.member, 0u);
}

TEST(RouterSnapshot, UnknownMembersDropOnLoad) {
  Router trained({"sa-fast", "sa-deep"}, test_options(1, 0));
  const JobFeatures f = equality_features();
  trained.decide(f);
  trained.record_win(f.bucket_key(), 1, /*was_race=*/true);

  Router renamed({"sa-fast", "pimc-light"}, test_options(1, 0));
  ASSERT_TRUE(renamed.load_snapshot(trained.save_snapshot()));
  const std::vector<route::BucketRecord> table = renamed.table();
  ASSERT_EQ(table.size(), 1u);
  // sa-fast's loss survives; sa-deep's win has no home and is dropped.
  EXPECT_EQ(table[0].members[0].losses, 1u);
  EXPECT_EQ(table[0].members[1].wins, 0u);
}

TEST(RouterSnapshot, MalformedSnapshotsRejected) {
  Router router({"sa-fast", "sa-deep"}, test_options());
  EXPECT_FALSE(router.load_snapshot(""));
  EXPECT_FALSE(router.load_snapshot("garbage"));
  // A member line before any bucket line is structurally invalid.
  EXPECT_FALSE(
      router.load_snapshot("qsmt-router-snapshot v1\nmember sa-fast 1 2\n"));
  // A rejected load leaves the ledger untouched.
  EXPECT_EQ(router.stats().buckets, 0u);
}

// ---------------------------------------------------------------------------
// Routed solves are byte-identical to full-race solves

// The 12 differential-fuzz op families, one easy representative each.
std::vector<strqubo::Constraint> family_representatives() {
  return {
      strqubo::Equality{"abc"},
      strqubo::Concat{"ab", "c"},
      strqubo::SubstringMatch{3, "ab"},
      strqubo::Includes{"abcab", "ca"},
      strqubo::IndexOf{3, "b", 1},
      strqubo::Length{3, 2},
      strqubo::ReplaceAll{"aba", 'a', 'b'},
      strqubo::Replace{"aba", 'a', 'c'},
      strqubo::Reverse{"abc"},
      strqubo::Palindrome{3},
      strqubo::RegexMatch{"a+b", 3},
      strqubo::CharAt{3, 1, 'b'},
  };
}

/// A router pre-trained to dispatch every given constraint's bucket to
/// `member` (decide() first so the bucket exists, then credit the win).
std::shared_ptr<Router> warmed_router(
    const std::vector<std::string>& names,
    const std::vector<strqubo::Constraint>& cases, std::size_t member) {
  RouterOptions options;
  options.min_observations = 1;
  options.min_win_rate = 0.5;
  options.explore_period = 0;  // Determinism: never explore.
  auto router = std::make_shared<Router>(names, options);
  for (const strqubo::Constraint& c : cases) {
    const JobFeatures f = route::extract_features(c);
    router->decide(f);
    router->record_win(f.bucket_key(), member, /*was_race=*/true);
  }
  return router;
}

TEST(RouterDifferential, RoutedByteIdenticalToFullRaceAcrossFamilies) {
  const std::vector<strqubo::Constraint> cases = family_representatives();

  // One worker makes the race deterministic: members are tried in index
  // order, and per-(member, attempt) seeds do not depend on dispatch mode.
  service::ServiceOptions race_options;
  race_options.num_workers = 1;
  service::SolveService race_service(race_options);

  service::ServiceOptions routed_options;
  routed_options.num_workers = 1;
  routed_options.router =
      warmed_router(race_service.portfolio_names(), cases, 0);
  service::SolveService routed_service(routed_options);

  service::JobOptions job;
  job.seed = 0x5EED;
  const std::vector<service::JobResult> raced =
      race_service.solve_constraints(cases, job);
  const std::vector<service::JobResult> routed =
      routed_service.solve_constraints(cases, job);

  ASSERT_EQ(raced.size(), routed.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 strqubo::describe(cases[i]));
    EXPECT_EQ(routed[i].status, raced[i].status);
    EXPECT_EQ(routed[i].text, raced[i].text);
    EXPECT_EQ(routed[i].position, raced[i].position);
    EXPECT_EQ(routed[i].winner, raced[i].winner);
    EXPECT_EQ(raced[i].route, "");
    EXPECT_TRUE(routed[i].route == "routed" ||
                routed[i].route == "routed+fallback")
        << routed[i].route;
  }
  EXPECT_GE(routed_service.stats().jobs_routed, cases.size());
}

TEST(RouterDifferential, FallbackReplaysRaceByteIdentically) {
  // A portfolio whose first member always throws: routing to it must fall
  // back to the remaining members and still produce the full race's
  // verdict (same seeds — under one worker the race IS the fallback
  // order after the broken member drops out).
  auto broken_portfolio = [] {
    std::vector<service::PortfolioMember> portfolio;
    service::PortfolioMember broken;
    broken.name = "broken";
    broken.make = [](std::uint64_t, CancelToken)
        -> std::unique_ptr<anneal::Sampler> {
      throw std::runtime_error("sampler exploded");
    };
    portfolio.push_back(std::move(broken));
    portfolio.push_back(service::simulated_annealing_member("sa-fast"));
    return portfolio;
  };

  const strqubo::Constraint constraint =
      test::declined(strqubo::NotContains{3, "abc"});

  service::ServiceOptions race_options;
  race_options.num_workers = 1;
  race_options.portfolio = broken_portfolio();
  service::SolveService race_service(race_options);

  service::ServiceOptions routed_options;
  routed_options.num_workers = 1;
  routed_options.portfolio = broken_portfolio();
  routed_options.router =
      warmed_router({"broken", "sa-fast"}, {constraint}, 0);
  service::SolveService routed_service(routed_options);

  service::JobOptions job;
  job.seed = 0xFA11;
  const service::JobResult raced =
      race_service.submit(constraint, job).get();
  const service::JobResult routed =
      routed_service.submit(constraint, job).get();

  EXPECT_EQ(raced.status, smtlib::CheckSatStatus::kSat);
  EXPECT_EQ(routed.status, raced.status);
  EXPECT_EQ(routed.text, raced.text);
  EXPECT_EQ(routed.winner, raced.winner);
  EXPECT_EQ(routed.winner, "sa-fast");
  EXPECT_EQ(routed.route, "routed+fallback");
  EXPECT_EQ(routed_service.stats().route_fallbacks, 1u);

  // The ledger learned from the failure: a fallback loss against the
  // broken member plus the fallback winner's win.
  const route::RouterStats stats = routed_options.router->stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.wins_recorded, 2u);  // Warmup win + fallback win.
}

TEST(RouterDifferential, ServiceLearnsAndRoutesLive) {
  service::ServiceOptions options;
  options.num_workers = 1;
  RouterOptions router_options;
  router_options.min_observations = 2;
  router_options.min_win_rate = 0.5;
  router_options.explore_period = 0;
  options.router = std::make_shared<Router>(
      std::vector<std::string>{"sa-fast", "sa-deep"}, router_options);
  service::SolveService service(options);

  const strqubo::Constraint constraint =
      test::declined(strqubo::NotContains{2, "ab"});
  service::JobOptions job;
  job.seed = 0x11;

  // Job 1 races (fresh bucket) and trains the table; job 2 routes.
  const service::JobResult first = service.submit(constraint, job).get();
  EXPECT_EQ(first.route, "race:low_confidence");
  ASSERT_EQ(first.status, smtlib::CheckSatStatus::kSat);
  const service::JobResult second = service.submit(constraint, job).get();
  EXPECT_EQ(second.route, "routed");
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(second.text, first.text);
  EXPECT_EQ(service.stats().jobs_routed, 1u);
}

TEST(RouterDifferential, ScriptJobsBypassRouter) {
  service::ServiceOptions options;
  options.num_workers = 1;
  options.router = std::make_shared<Router>(
      std::vector<std::string>{"sa-fast", "sa-deep"}, RouterOptions{});
  service::SolveService service(options);
  const service::JobResult result =
      service
          .submit_script(
              "(declare-const s String)(assert (= s \"ab\"))(check-sat)", {})
          .get();
  EXPECT_EQ(result.route, "");
  EXPECT_EQ(options.router->stats().decisions, 0u);
}

TEST(RouterDifferential, MismatchedRouterIgnored) {
  service::ServiceOptions options;
  options.num_workers = 1;
  // Three names against the default two-member portfolio: gated off.
  options.router = std::make_shared<Router>(
      std::vector<std::string>{"a", "b", "c"}, RouterOptions{});
  service::SolveService service(options);
  const service::JobResult result =
      service.submit(strqubo::Equality{"ab"}, {}).get();
  EXPECT_EQ(result.route, "");
  EXPECT_EQ(options.router->stats().decisions, 0u);
}

// ---------------------------------------------------------------------------
// Solution-chained pipelines

TEST(PipelineChaining, ChainsWarmStartsOncePerHop) {
  telemetry::reset();
  telemetry::set_mode(telemetry::Mode::kSummary);

  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);

  // Three stages whose witnesses are all "ab": every hop chains.
  service::PipelineJob pipeline;
  pipeline.stages = {strqubo::Equality{"ab"}, strqubo::Concat{"a", "b"},
                     strqubo::Reverse{"ba"}};
  pipeline.options.seed = 0xC4A1;
  const service::PipelineResult result =
      service.submit_pipeline(std::move(pipeline)).get();

  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_TRUE(result.all_sat);
  for (const service::JobResult& stage : result.stages) {
    ASSERT_EQ(stage.status, smtlib::CheckSatStatus::kSat);
    ASSERT_TRUE(stage.text.has_value());
    EXPECT_EQ(*stage.text, "ab");
  }
  // Exactly once per hop: two hops, two chained warm starts.
  EXPECT_EQ(result.chained_warm_starts, 2u);
  const service::SolveService::Stats stats = service.stats();
  EXPECT_EQ(stats.pipelines, 1u);
  EXPECT_EQ(stats.chain_warm_starts, 2u);

  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const telemetry::CounterStat* warm =
      snapshot.counter("route.chain.warm_starts");
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->value, 2u);
  const telemetry::CounterStat* stages = snapshot.counter("route.chain.stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->value, 3u);
  const telemetry::CounterStat* pipelines =
      snapshot.counter("route.chain.pipelines");
  ASSERT_NE(pipelines, nullptr);
  EXPECT_EQ(pipelines->value, 1u);

  telemetry::set_mode(telemetry::Mode::kOff);
  telemetry::reset();
}

TEST(PipelineChaining, ChainedPathMatchesColdPathVerdicts) {
  const std::vector<strqubo::Constraint> stages = {
      strqubo::Equality{"abc"}, strqubo::Reverse{"cba"},
      strqubo::ReplaceAll{"abc", 'c', 'a'}};

  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);

  // Cold path: the same constraints as independent jobs. solve_constraints
  // derives stage seeds exactly like submit_pipeline (mix_seed(seed, i)),
  // so chaining is the only difference between the two runs.
  service::JobOptions job;
  job.seed = 0xC01D;
  const std::vector<service::JobResult> cold =
      service.solve_constraints(stages, job);

  service::PipelineJob pipeline;
  pipeline.stages = stages;
  pipeline.options.seed = 0xC01D;
  const service::PipelineResult chained =
      service.submit_pipeline(std::move(pipeline)).get();

  ASSERT_EQ(chained.stages.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    ASSERT_EQ(cold[i].status, smtlib::CheckSatStatus::kSat);
    EXPECT_EQ(chained.stages[i].status, cold[i].status);
    // These ops have unique witnesses, so chaining cannot change them.
    EXPECT_EQ(chained.stages[i].text, cold[i].text);
  }
  EXPECT_TRUE(chained.all_sat);
}

TEST(PipelineChaining, WitnesslessHopRunsCold) {
  service::ServiceOptions options;
  options.num_workers = 1;
  service::SolveService service(options);

  // Includes yields a position, not a string: the hop after it has no
  // witness to chain and must run cold.
  service::PipelineJob pipeline;
  pipeline.stages = {strqubo::Equality{"ab"},
                     strqubo::Includes{"abcab", "ca"},
                     strqubo::Equality{"ba"}};
  pipeline.options.seed = 0x1D1E;
  const service::PipelineResult result =
      service.submit_pipeline(std::move(pipeline)).get();

  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_TRUE(result.all_sat);
  EXPECT_EQ(result.chained_warm_starts, 1u);  // Only hop 0 -> 1 chained.
  EXPECT_EQ(service.stats().chain_warm_starts, 1u);
}

TEST(PipelineChaining, EmptyPipelineResolvesImmediately) {
  service::SolveService service;
  const service::PipelineResult result =
      service.submit_pipeline(service::PipelineJob{}).get();
  EXPECT_TRUE(result.stages.empty());
  EXPECT_TRUE(result.all_sat);
  EXPECT_EQ(result.chained_warm_starts, 0u);
}

TEST(PipelineChaining, ChainedWitnessesVerifyClassically) {
  service::ServiceOptions options;
  options.num_workers = 2;
  service::SolveService service(options);

  service::PipelineJob pipeline;
  pipeline.stages = {strqubo::Equality{"abab"},
                     strqubo::ReplaceAll{"abab", 'b', 'a'},
                     strqubo::Reverse{"abab"}};
  pipeline.options.seed = 0x7E57;
  const service::PipelineResult result =
      service.submit_pipeline(std::move(pipeline)).get();

  ASSERT_EQ(result.stages.size(), 3u);
  const std::vector<strqubo::Constraint> stages = {
      strqubo::Equality{"abab"}, strqubo::ReplaceAll{"abab", 'b', 'a'},
      strqubo::Reverse{"abab"}};
  for (std::size_t i = 0; i < stages.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    ASSERT_EQ(result.stages[i].status, smtlib::CheckSatStatus::kSat);
    ASSERT_TRUE(result.stages[i].text.has_value());
    EXPECT_TRUE(strqubo::verify_string(stages[i], *result.stages[i].text));
  }
}

}  // namespace
}  // namespace qsmt
