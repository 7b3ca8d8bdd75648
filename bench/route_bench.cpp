// Route bench: the adaptive portfolio router's resource win over the full
// race (docs/routing.md).
//
// Three passes over one seeded workload:
//
//   1. training — a live router starts empty; each bucket's first job
//      races and trains the win/loss table (sequential submission, so
//      outcomes land before the next decision);
//   2. full race — a router-less service races every job across the whole
//      portfolio: the pre-router baseline, dispatching
//      portfolio_size member-tasks per job;
//   3. routed — the trained router dispatches almost every job to a single
//      member; only fallbacks and low-confidence buckets cost more.
//
// Passes 2 and 3 alternate kReps times and each keeps its fastest run, so
// one scheduler hiccup cannot decide the latency gate.
//
// The gated workload is presolve-declined traffic (bench/presolve_declined.hpp):
// a job the exact presolve decides never reaches a member, so it neither
// trains the router nor costs the race anything to save. The bench fails if
// a gated job was presolved. The old mixed stream over every op family,
// nearly all presolved now, is printed as an ungated row so what routing
// lost there stays visible.
//
// The headline metric is mean cores-per-job: member-tasks dispatched per
// job (the cycles the pool spends, whether or not cancellation reclaims
// them early). The acceptance gate for the router is a >= 1.5x reduction
// at byte-equal verdicts, with the fallback rate reported alongside.
// --smoke shrinks the workload and gates routed mean latency <= full-race
// (the JSON-writing full run owns the cores-per-job gate; BENCH_route.json
// is the tracked baseline).
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "presolve_declined.hpp"
#include "route/router.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "strqubo/constraint.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumWorkers = 4;
constexpr std::uint64_t kSeed = 0x40BE;
constexpr std::size_t kReps = 3;

/// One draw from op family `kind` (the differential-fuzz generator shapes).
strqubo::Constraint make_case(std::size_t kind, Xoshiro256& rng) {
  switch (kind) {
    case 0:
      return strqubo::Equality{bench::letters(rng, 2, 6)};
    case 1:
      return strqubo::Concat{bench::letters(rng, 1, 3), bench::letters(rng, 1, 3)};
    case 2: {
      const std::string text = bench::letters(rng, 3, 7);
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
      return strqubo::Replace{bench::letters(rng, 2, 6),
                              static_cast<char>('a' + rng.below(5)),
                              static_cast<char>('a' + rng.below(5))};
    case 5:
      return strqubo::Reverse{bench::letters(rng, 2, 6)};
    case 6:
      return strqubo::ReplaceAll{bench::letters(rng, 2, 6),
                                 static_cast<char>('a' + rng.below(5)),
                                 static_cast<char>('a' + rng.below(5))};
    case 7: {
      const std::size_t length = 3 + rng.below(3);
      return strqubo::SubstringMatch{length, bench::letters(rng, 1, 2)};
    }
    case 8: {
      const std::size_t length = 3 + rng.below(2);
      const std::string substring = bench::letters(rng, 1, 2);
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
      static const std::vector<std::pair<std::string, std::size_t>> kPool = {
          {"ab", 2},  {"abc", 3}, {"a+b", 2},  {"a+b", 3}, {"ab+", 3},
          {"a+", 3},  {"a+b+", 3}, {"[ac]b", 2}, {"a[bc]", 2}};
      const auto& [pattern, length] = kPool[rng.below(kPool.size())];
      return strqubo::RegexMatch{pattern, length};
    }
  }
}

/// The old mixed stream over every op family (ungated).
std::vector<strqubo::Constraint> make_workload(std::size_t num_jobs) {
  Xoshiro256 rng(kSeed);
  std::vector<strqubo::Constraint> jobs;
  jobs.reserve(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    jobs.push_back(make_case(i % 12, rng));
  }
  return jobs;
}

/// The gated stream: presolve-declined families, round-robin.
std::vector<strqubo::Constraint> make_declined_workload(std::size_t num_jobs) {
  Xoshiro256 rng(kSeed);
  std::vector<strqubo::Constraint> jobs;
  jobs.reserve(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    jobs.push_back(bench::declined_case(i, rng));
  }
  return jobs;
}

/// Member-tasks the pool dispatched for one result: a routed job ran one
/// member; a fallback re-raced the remaining portfolio; everything else
/// (no router, low-confidence, explore) raced all members.
std::size_t dispatched_members(const service::JobResult& result,
                               std::size_t portfolio_size) {
  if (result.route == "routed") return 1;
  if (result.route == "routed+fallback") return portfolio_size;
  return portfolio_size;
}

/// One training + race-vs-routed measurement over `jobs`.
struct Comparison {
  std::size_t num_jobs = 0;
  std::size_t portfolio_size = 0;
  double race_seconds = 0.0;    // Fastest of kReps race passes.
  double routed_seconds = 0.0;  // Fastest of kReps routed passes.
  std::size_t race_dispatched = 0;
  std::size_t routed_dispatched = 0;
  std::size_t routed_jobs = 0;
  std::size_t fallbacks = 0;
  std::size_t verdict_mismatches = 0;
  std::size_t presolved = 0;  // Jobs the presolve decided, either pass.

  double race_cores() const { return per_job(race_dispatched); }
  double routed_cores() const { return per_job(routed_dispatched); }
  double race_mean_ms() const { return race_seconds * 1e3 / num_jobs; }
  double routed_mean_ms() const { return routed_seconds * 1e3 / num_jobs; }
  double per_job(std::size_t count) const {
    return static_cast<double>(count) / static_cast<double>(num_jobs);
  }
};

Comparison compare(const std::vector<strqubo::Constraint>& jobs,
                   const route::RouterOptions& router_options) {
  Comparison c;
  c.num_jobs = jobs.size();

  // Training pass: sequential submission through a live router, so each
  // bucket's first race lands in the table before the next decision.
  service::ServiceOptions options;
  options.num_workers = kNumWorkers;
  service::SolveService trainer(options);
  c.portfolio_size = trainer.portfolio_size();
  auto router = std::make_shared<route::Router>(trainer.portfolio_names(),
                                                router_options);
  options.router = router;
  service::SolveService service(options);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    service::JobOptions job;
    job.seed = mix_seed(kSeed, i);
    service.submit(jobs[i], job).get();
  }

  // Full-race baseline (identical seeds, no router) against the routed
  // pass (the trained table dispatches single members), alternating.
  service::ServiceOptions race_options;
  race_options.num_workers = kNumWorkers;
  service::SolveService race_service(race_options);
  service::ServiceOptions routed_options;
  routed_options.num_workers = kNumWorkers;
  routed_options.router = router;
  service::SolveService routed_service(routed_options);
  service::JobOptions batch;
  batch.seed = kSeed;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Stopwatch race_timer;
    const std::vector<service::JobResult> raced =
        race_service.solve_constraints(jobs, batch);
    const double race_seconds = race_timer.elapsed_seconds();
    Stopwatch routed_timer;
    const std::vector<service::JobResult> routed =
        routed_service.solve_constraints(jobs, batch);
    const double routed_seconds = routed_timer.elapsed_seconds();
    if (rep == 0 || race_seconds < c.race_seconds) {
      c.race_seconds = race_seconds;
    }
    if (rep == 0 || routed_seconds < c.routed_seconds) {
      c.routed_seconds = routed_seconds;
    }

    // Equal verdicts are the precondition for every other number here.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (routed[i].status != raced[i].status) ++c.verdict_mismatches;
      if (bench::presolved(raced[i]) || bench::presolved(routed[i])) {
        ++c.presolved;
      }
    }
    if (rep > 0) continue;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      c.race_dispatched += dispatched_members(raced[i], c.portfolio_size);
      c.routed_dispatched += dispatched_members(routed[i], c.portfolio_size);
      if (routed[i].route == "routed") ++c.routed_jobs;
      if (routed[i].route == "routed+fallback") {
        ++c.routed_jobs;
        ++c.fallbacks;
      }
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t num_jobs = smoke ? 96 : 240;

  route::RouterOptions router_options;
  router_options.min_observations = 2;  // One 2-member race per bucket.
  router_options.min_win_rate = 0.5;
  router_options.explore_period = 0;  // Measurement passes stay routed.

  const Comparison gated =
      compare(make_declined_workload(num_jobs), router_options);
  const Comparison mixed = compare(make_workload(num_jobs), router_options);

  const double cores_ratio = gated.race_cores() / gated.routed_cores();
  const double fallback_rate = gated.per_job(gated.fallbacks);

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "route_bench: " << num_jobs << " presolve-declined jobs, "
            << kNumWorkers << " workers, portfolio size "
            << gated.portfolio_size << ", best of " << kReps
            << (smoke ? " (smoke)" : "") << "\n";
  std::cout << "  full race: " << gated.race_seconds << " s ("
            << gated.race_mean_ms() << " ms/job mean, " << gated.race_cores()
            << " cores/job)\n";
  std::cout << "  routed:    " << gated.routed_seconds << " s ("
            << gated.routed_mean_ms() << " ms/job mean, "
            << gated.routed_cores() << " cores/job, " << gated.routed_jobs
            << " routed, " << gated.fallbacks << " fallbacks)\n";
  std::cout << "  cores-per-job reduction: " << cores_ratio << "x, "
            << "verdict mismatches: " << gated.verdict_mismatches
            << ", presolved: " << gated.presolved << "\n";
  std::cout << "  mixed stream (ungated, " << mixed.presolved
            << " presolved job results): race " << mixed.race_mean_ms()
            << " ms/job, routed " << mixed.routed_mean_ms() << " ms/job, "
            << mixed.routed_jobs << " routed, cores-per-job reduction "
            << mixed.race_cores() / mixed.routed_cores() << "x\n";

  if (gated.verdict_mismatches != 0) {
    std::cerr << "route_bench: FAIL " << gated.verdict_mismatches
              << " routed verdicts differ from the full race\n";
    return 1;
  }
  if (gated.presolved != 0) {
    std::cerr << "route_bench: FAIL " << gated.presolved
              << " gated jobs were presolved, not routed\n";
    return 1;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (smoke) {
    // Seconds-scale CI stage: routing must never cost latency. Routed
    // dispatch does strictly less work per job, so its mean must stay at
    // or under the race's (small tolerance for scheduler noise); the
    // cores-per-job perf gate stays in the full, JSON-writing run. On a
    // single-core host the pool cannot overlap the race's members and
    // the comparison is noise, not signal (service_bench's idiom).
    if (hw < 2) {
      std::cout << "route_bench: latency gate skipped (single-core host)\n";
      return 0;
    }
    if (gated.routed_mean_ms() > gated.race_mean_ms() * 1.05) {
      std::cerr << "route_bench: FAIL routed mean latency "
                << gated.routed_mean_ms() << " ms > full-race "
                << gated.race_mean_ms() << " ms\n";
      return 1;
    }
    std::cout << "route_bench: PASS (routed mean latency <= full race)\n";
    return 0;
  }

  const char* gate = hw < 2            ? "skipped_single_core_host"
                     : cores_ratio >= 1.5 ? "pass"
                                          : "fail";
  std::ofstream out("BENCH_route.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"workload\": \"presolve-declined\",\n"
      << "  \"num_jobs\": " << num_jobs << ",\n"
      << "  \"num_workers\": " << kNumWorkers << ",\n"
      << "  \"portfolio_size\": " << gated.portfolio_size << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"gate\": \"" << gate << "\",\n"
      << "  \"race_seconds\": " << gated.race_seconds << ",\n"
      << "  \"race_mean_ms_per_job\": " << gated.race_mean_ms() << ",\n"
      << "  \"race_cores_per_job\": " << gated.race_cores() << ",\n"
      << "  \"routed_seconds\": " << gated.routed_seconds << ",\n"
      << "  \"routed_mean_ms_per_job\": " << gated.routed_mean_ms() << ",\n"
      << "  \"routed_cores_per_job\": " << gated.routed_cores() << ",\n"
      << "  \"cores_per_job_reduction\": " << cores_ratio << ",\n"
      << "  \"jobs_routed\": " << gated.routed_jobs << ",\n"
      << "  \"fallbacks\": " << gated.fallbacks << ",\n"
      << "  \"fallback_rate\": " << fallback_rate << ",\n"
      << "  \"verdict_mismatches\": " << gated.verdict_mismatches << ",\n"
      << "  \"mixed_stream_ungated\": {\"race_mean_ms_per_job\": "
      << mixed.race_mean_ms() << ", \"routed_mean_ms_per_job\": "
      << mixed.routed_mean_ms() << ", \"jobs_routed\": " << mixed.routed_jobs
      << ", \"presolved_results\": " << mixed.presolved << "}\n"
      << "}\n";

  if (hw < 2) {
    std::cout << "route_bench: cores gate skipped (single-core host)\n";
    return 0;
  }
  if (cores_ratio < 1.5) {
    std::cerr << "route_bench: FAIL cores-per-job reduction " << cores_ratio
              << " < 1.5\n";
    return 1;
  }
  std::cout << "route_bench: PASS (>= 1.5x cores-per-job reduction)\n";
  return 0;
}
