// Routing must never change answers: seeded differential fuzzing of
// router-on vs router-off services over a mixed 216-job workload spanning
// every op family (ISSUE 9 satellite).
//
// Two router configurations are checked against the same router-off run:
//
//  * a pre-warmed router that dispatches every bucket to member 0 — under
//    one worker the full race tries members in index order with
//    per-(member, attempt) seeds, so this routed run (including its
//    fallbacks) replays the race's exact attempt sequence and every field
//    of every result must be byte-identical;
//  * a live-learning router that starts empty and trains on the stream —
//    the member it converges to per bucket is history-dependent, so the
//    contract is verdict identity plus classically verified witnesses
//    (and exact-text identity for unique-output operations), with the
//    router required to have actually routed most of the stream.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "presolve_declined.hpp"
#include "route/features.hpp"
#include "route/router.hpp"
#include "service/service.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/verify.hpp"
#include "util/rng.hpp"

namespace qsmt {
namespace {

constexpr std::size_t kCasesPerKind = 18;

std::string random_word(Xoshiro256& rng, std::size_t min_len,
                        std::size_t max_len) {
  std::string word(min_len + rng.below(max_len - min_len + 1), 'a');
  for (char& c : word) c = static_cast<char>('a' + rng.below(5));
  return word;
}

/// One seeded case for family `kind` (the differential_fuzz_test generator
/// shapes, one draw per call so families interleave round-robin).
strqubo::Constraint make_case(std::size_t kind, Xoshiro256& rng) {
  switch (kind) {
    case 0:
      return strqubo::Equality{random_word(rng, 2, 6)};
    case 1:
      return strqubo::Concat{random_word(rng, 1, 3), random_word(rng, 1, 3)};
    case 2: {
      const std::string text = random_word(rng, 3, 7);
      const std::size_t len =
          1 + rng.below(std::min<std::size_t>(3, text.size()));
      return strqubo::Includes{text,
                               text.substr(rng.below(text.size() - len + 1),
                                           len)};
    }
    case 3: {
      const std::size_t string_length = 2 + rng.below(5);
      return strqubo::Length{string_length, rng.below(string_length + 1)};
    }
    case 4:
      return strqubo::Replace{random_word(rng, 2, 6),
                              static_cast<char>('a' + rng.below(5)),
                              static_cast<char>('a' + rng.below(5))};
    case 5:
      return strqubo::Reverse{random_word(rng, 2, 6)};
    case 6:
      return strqubo::ReplaceAll{random_word(rng, 2, 6),
                                 static_cast<char>('a' + rng.below(5)),
                                 static_cast<char>('a' + rng.below(5))};
    case 7: {
      const std::size_t length = 3 + rng.below(3);
      return strqubo::SubstringMatch{length, random_word(rng, 1, 2)};
    }
    case 8: {
      const std::size_t length = 3 + rng.below(2);
      const std::string substring = random_word(rng, 1, 2);
      return strqubo::IndexOf{length, substring,
                              rng.below(length - substring.size() + 1)};
    }
    case 9: {
      const std::size_t length = 2 + rng.below(4);
      return strqubo::CharAt{length, rng.below(length),
                             static_cast<char>('a' + rng.below(5))};
    }
    case 10:
      return strqubo::Palindrome{1 + rng.below(5)};
    default: {
      // Patterns the default class encoding solves exactly (see
      // differential_fuzz_test.cpp's pool note).
      static const std::vector<std::pair<std::string, std::size_t>> kPool = {
          {"ab", 2},    {"abc", 3},   {"a+b", 2},    {"a+b", 3},
          {"ab+", 3},   {"a+", 3},    {"a+b+", 3},   {"[ac]b", 2},
          {"a[bc]", 2}, {"[ac]b+", 3}};
      const auto& [pattern, length] = kPool[rng.below(kPool.size())];
      return strqubo::RegexMatch{pattern, length};
    }
  }
}

/// The mixed workload: kCasesPerKind draws from each of the 12 families,
/// round-robin interleaved so every bucket accrues observations gradually
/// (the shape a live router actually trains on).
std::vector<strqubo::Constraint> mixed_workload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<strqubo::Constraint> cases;
  cases.reserve(12 * kCasesPerKind);
  for (std::size_t round = 0; round < kCasesPerKind; ++round) {
    for (std::size_t kind = 0; kind < 12; ++kind) {
      cases.push_back(make_case(kind, rng));
    }
  }
  return cases;
}

/// One seeded case the presolve declines, for family `kind`: not-contains
/// windows, bounded-length buffers and includes over long texts, at sizes
/// spread over the router's size buckets.
strqubo::Constraint declined_case(std::size_t kind, Xoshiro256& rng) {
  static const std::size_t kSizes[] = {2, 3, 5, 10};
  switch (kind) {
    case 0: {
      const std::size_t length = kSizes[rng.below(4)];
      return test::declined(strqubo::NotContains{
          length, random_word(rng, 2, std::min<std::size_t>(3, length))});
    }
    case 1: {
      // Two-character buffers whose minimum content length is 1 are one
      // small component, and the race budgets stop at about five.
      static const strqubo::BoundedLength kBuffers[] = {
          {2, 0, 1}, {2, 0, 2}, {3, 0, 2}, {3, 1, 3}, {5, 1, 4}, {5, 2, 5}};
      return test::declined(kBuffers[rng.below(6)]);
    }
    default: {
      static const std::size_t kTextLengths[] = {14, 20, 40, 70};
      const std::size_t length = kTextLengths[rng.below(4)];
      const std::string text = random_word(rng, length, length);
      return test::declined(strqubo::Includes{text, random_word(rng, 1, 2)});
    }
  }
}

/// The same round-robin shape over the three declined families.
std::vector<strqubo::Constraint> declined_workload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<strqubo::Constraint> cases;
  cases.reserve(12 * kCasesPerKind);
  for (std::size_t round = 0; round < 4 * kCasesPerKind; ++round) {
    for (std::size_t kind = 0; kind < 3; ++kind) {
      cases.push_back(declined_case(kind, rng));
    }
  }
  return cases;
}

/// Ops whose satisfying string (or Includes position) is unique, so any
/// winning member must produce it verbatim.
bool unique_output(const strqubo::Constraint& constraint) {
  return std::holds_alternative<strqubo::Equality>(constraint) ||
         std::holds_alternative<strqubo::Concat>(constraint) ||
         std::holds_alternative<strqubo::Length>(constraint) ||
         std::holds_alternative<strqubo::Replace>(constraint) ||
         std::holds_alternative<strqubo::ReplaceAll>(constraint) ||
         std::holds_alternative<strqubo::Reverse>(constraint);
}

void verify_witness(const strqubo::Constraint& constraint,
                    const service::JobResult& result) {
  if (const auto* includes = std::get_if<strqubo::Includes>(&constraint)) {
    EXPECT_TRUE(strqubo::verify_position(*includes, result.position));
    return;
  }
  ASSERT_TRUE(result.text.has_value());
  EXPECT_TRUE(strqubo::verify_string(constraint, *result.text));
}

TEST(RouterFuzz, WarmedRouterByteIdenticalToRace) {
  const std::vector<strqubo::Constraint> cases = mixed_workload(0xB00);
  ASSERT_GE(cases.size(), 200u);

  service::ServiceOptions base;
  base.num_workers = 1;
  service::SolveService race_service(base);

  // Every bucket pre-trained to member 0 — the member a one-worker race
  // tries first — with exploration off.
  route::RouterOptions router_options;
  router_options.min_observations = 1;
  router_options.min_win_rate = 0.5;
  router_options.explore_period = 0;
  auto router = std::make_shared<route::Router>(
      race_service.portfolio_names(), router_options);
  for (const strqubo::Constraint& c : cases) {
    const route::JobFeatures features = route::extract_features(c);
    router->decide(features);
    router->record_win(features.bucket_key(), 0, /*was_race=*/true);
  }

  service::ServiceOptions routed_options;
  routed_options.num_workers = 1;
  routed_options.router = router;
  service::SolveService routed_service(routed_options);

  service::JobOptions job;
  job.seed = 0xF077;
  const std::vector<service::JobResult> raced =
      race_service.solve_constraints(cases, job);
  const std::vector<service::JobResult> routed =
      routed_service.solve_constraints(cases, job);
  ASSERT_EQ(raced.size(), routed.size());

  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 strqubo::describe(cases[i]));
    EXPECT_EQ(routed[i].status, raced[i].status);
    EXPECT_EQ(routed[i].text, raced[i].text);
    EXPECT_EQ(routed[i].position, raced[i].position);
    EXPECT_EQ(routed[i].winner, raced[i].winner);
    ASSERT_EQ(routed[i].status, smtlib::CheckSatStatus::kSat);
    verify_witness(cases[i], routed[i]);
    if (routed[i].route == "routed+fallback") ++fallbacks;
  }
  // Every job consulted the router and was dispatched, not raced.
  EXPECT_EQ(routed_service.stats().jobs_routed, cases.size());
  EXPECT_EQ(routed_service.stats().route_fallbacks, fallbacks);
}

TEST(RouterFuzz, LiveLearningRouterKeepsVerdictsAndWitnesses) {
  // Only models that reach the race train a router: presolved verdicts are
  // member-independent and never touch the table.
  const std::vector<strqubo::Constraint> cases = declined_workload(0xB00);
  ASSERT_GE(cases.size(), 200u);

  service::ServiceOptions base;
  base.num_workers = 1;
  service::SolveService race_service(base);

  route::RouterOptions router_options;
  router_options.min_observations = 2;  // One full 2-member race suffices.
  router_options.min_win_rate = 0.55;
  router_options.explore_period = 16;
  auto router = std::make_shared<route::Router>(
      race_service.portfolio_names(), router_options);

  service::ServiceOptions routed_options;
  routed_options.num_workers = 1;
  routed_options.router = router;
  service::SolveService routed_service(routed_options);

  service::JobOptions batch;
  batch.seed = 0xF077;
  const std::vector<service::JobResult> raced =
      race_service.solve_constraints(cases, batch);

  // Live learning needs sequential submission: decide_route runs at
  // enqueue, so a whole batch submitted up front would be decided against
  // an untrained table. Seeds mirror solve_constraints (mix_seed by index)
  // so each job is the exact counterpart of its raced twin.
  std::vector<service::JobResult> routed;
  routed.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    service::JobOptions job;
    job.seed = mix_seed(batch.seed, i);
    job.tag = i;
    routed.push_back(routed_service.submit(cases[i], job).get());
  }
  ASSERT_EQ(raced.size(), routed.size());

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 strqubo::describe(cases[i]));
    // Verdict identity: these generators only emit satisfiable
    // constraints and the budgets solve them at 100% (the same contract
    // differential_fuzz_test.cpp holds the race to).
    ASSERT_EQ(raced[i].status, smtlib::CheckSatStatus::kSat);
    EXPECT_EQ(routed[i].status, raced[i].status);
    // Whatever member the router converged to, its witness must verify
    // classically — and unique-output ops leave it no freedom at all.
    verify_witness(cases[i], routed[i]);
    if (unique_output(cases[i])) {
      EXPECT_EQ(routed[i].text, raced[i].text);
    }
    if (std::holds_alternative<strqubo::Includes>(cases[i])) {
      EXPECT_EQ(routed[i].position, raced[i].position);
    }
  }

  // The differential is not vacuous: after warmup the router routed the
  // bulk of the stream single-member.
  const service::SolveService::Stats stats = routed_service.stats();
  EXPECT_GT(stats.jobs_routed, cases.size() / 2);
  const route::RouterStats router_stats = router->stats();
  EXPECT_EQ(router_stats.decisions, cases.size());
  EXPECT_GT(router_stats.buckets, 10u);
}

}  // namespace
}  // namespace qsmt
