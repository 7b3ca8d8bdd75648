// Answer-cache bench: what alpha-equivalent memoization is worth on a
// duplicate-heavy stream (BENCH_answercache.json is the tracked baseline).
//
// Four passes over one seeded workload:
//
//   1. cold — a cache-less service solves the distinct set: the per-job
//      cost every duplicate would otherwise pay;
//   2. warming — a cache-backed service solves the same distinct set under
//      the same seeds (all misses; fills the cache and pins that the miss
//      path's verdicts are byte-identical to the cache-less service's);
//   3. warm — the duplicate stream (every distinct case repeated) through
//      the warmed service: every job must be served from the cache, so the
//      measured per-job cost IS the lookup + witness remap + one classical
//      verification that replaces a full anneal;
//   4. in flight — bursts of the duplicate stream, each submitted to a
//      fresh cache-backed service whose sampler factories are held closed
//      until the whole burst is in, so every repeat of a case arrives while
//      its first is still solving. Single flight parks the repeats behind
//      that first job, so a burst runs at most one cold ladder per distinct
//      answer key (gated in both modes); the ladder attempts it paid are
//      reported against the cold pass's.
//
// The gated workload is presolve-declined traffic
// (bench/presolve_declined.hpp): a job the exact presolve decides costs
// the cold pass microseconds, which leaves the cache nothing to save. The
// bench fails if a gated cold job was presolved. The old mixed stream over
// the op families, nearly all presolved now, runs the same passes as an
// ungated row so what caching lost there stays visible.
//
// Headline metrics: warm-vs-cold mean-latency speedup (acceptance gate
// >= 10x in the JSON-writing full run), hit rate (must be 1.0 on the warm
// stream), remap+verify cost per served hit, and annealer reads avoided
// (cold-pass sampling attempts the warm stream never dispatched). --smoke
// shrinks the workload and gates >= 3x with the same byte-equality checks,
// seconds-scale for CI.
#include <atomic>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "canon/answer_cache.hpp"
#include "canon/canon.hpp"
#include "presolve_declined.hpp"
#include "service/service.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/verify.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumWorkers = 4;
constexpr std::uint64_t kSeed = 0xA25C;
constexpr std::size_t kNumReads = 64;

/// One draw from op family `kind` (the differential-fuzz generator shapes;
/// the ungated mixed stream).
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
    default:
      return strqubo::Palindrome{1 + rng.below(5)};
  }
}

/// Single deterministic lane: witnesses are a function of (constraint,
/// seed), so the warming pass can demand byte-equality with the cache-less
/// reference and the warm stream with the warming pass.
service::ServiceOptions bench_service(
    std::shared_ptr<canon::AnswerCache> cache) {
  anneal::SimulatedAnnealerParams deep;
  deep.num_reads = kNumReads;
  deep.num_sweeps = 512;
  service::ServiceOptions options;
  options.num_workers = kNumWorkers;
  options.portfolio = {service::simulated_annealing_member("sa", deep)};
  options.answer_cache = std::move(cache);
  return options;
}

/// bench_service with its rung held closed until `open` is set: a burst
/// submitted while it is closed is wholly in flight before any job can
/// sample, let alone resolve.
service::ServiceOptions held_service(std::shared_ptr<canon::AnswerCache> cache,
                                     std::shared_ptr<std::atomic<bool>> open) {
  service::ServiceOptions options = bench_service(std::move(cache));
  const service::PortfolioMember sa = options.portfolio.front();
  options.portfolio.front().make = [sa, open](std::uint64_t seed,
                                              CancelToken cancel) {
    while (!open->load()) std::this_thread::yield();
    return sa.make(seed, cancel);
  };
  return options;
}

/// Pass 4 over every burst: jobs that ran a ladder of their own (attempts
/// > 0), the attempts they paid, and the most ladders any one burst ran
/// against its count of distinct answer keys.
struct InFlight {
  std::size_t bursts = 0;
  std::size_t jobs = 0;
  std::size_t keys = 0;
  std::size_t ladders = 0;
  std::size_t attempts = 0;
  std::size_t max_burst_ladders = 0;
  std::uint64_t coalesced = 0;
  std::size_t unverified_sat = 0;
  double seconds = 0.0;
};

/// A sat result checked against its own constraint.
bool verified(const strqubo::Constraint& constraint,
              const service::JobResult& result) {
  if (const auto* includes = std::get_if<strqubo::Includes>(&constraint)) {
    return strqubo::verify_position(*includes, result.position);
  }
  return result.text && strqubo::verify_string(constraint, *result.text);
}

InFlight measure_in_flight(const std::vector<strqubo::Constraint>& distinct,
                           std::size_t repeats, std::size_t bursts) {
  InFlight m;
  m.bursts = bursts;
  std::set<std::string> keys;
  for (const strqubo::Constraint& constraint : distinct) {
    keys.insert(canon::constraint_answer_key(constraint, {}));
  }
  m.keys = keys.size();
  for (std::size_t burst = 0; burst < bursts; ++burst) {
    auto open = std::make_shared<std::atomic<bool>>(false);
    service::SolveService service(
        held_service(std::make_shared<canon::AnswerCache>(), open));
    // Each case's first repeat is submitted first, under the cold pass's
    // seed in burst 0, then the rest: the repeats are its in-flight twins.
    std::vector<std::future<service::JobResult>> futures;
    std::vector<const strqubo::Constraint*> payloads;
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < distinct.size(); ++i) {
        service::JobOptions job;
        job.seed = mix_seed(kSeed + burst, r * distinct.size() + i);
        futures.push_back(service.submit(distinct[i], job));
        payloads.push_back(&distinct[i]);
      }
    }
    Stopwatch timer;
    open->store(true);
    std::size_t ladders = 0;
    for (std::size_t j = 0; j < futures.size(); ++j) {
      const service::JobResult result = futures[j].get();
      if (result.attempts > 0) {
        ++ladders;
        m.attempts += result.attempts;
      }
      if (result.status == smtlib::CheckSatStatus::kSat &&
          !verified(*payloads[j], result)) {
        ++m.unverified_sat;
      }
    }
    m.seconds += timer.elapsed_seconds();
    m.jobs += futures.size();
    m.ladders += ladders;
    m.max_burst_ladders = std::max(m.max_burst_ladders, ladders);
    m.coalesced += service.stats().answer_coalesced;
  }
  return m;
}

/// The cold, warming and warm passes over `distinct`, each case repeated
/// `repeats` times in the warm stream.
struct Measurement {
  std::size_t num_distinct = 0;
  std::size_t num_jobs = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  std::size_t cold_attempts = 0;
  std::size_t cold_presolved = 0;
  std::size_t served = 0;
  double hit_rate = 0.0;
  std::uint64_t answer_fallbacks = 0;
  std::size_t verdict_mismatches = 0;

  double cold_mean_ms() const { return cold_seconds * 1e3 / num_distinct; }
  double warm_mean_ms() const { return warm_seconds * 1e3 / num_jobs; }
  double speedup() const { return cold_mean_ms() / warm_mean_ms(); }
};

Measurement measure(const std::vector<strqubo::Constraint>& distinct,
                    std::size_t repeats) {
  Measurement m;
  m.num_distinct = distinct.size();
  // The duplicate stream: every distinct case, `repeats` times over —
  // the cross-job/cross-tenant duplication the cache exists for.
  std::vector<strqubo::Constraint> stream;
  stream.reserve(distinct.size() * repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const strqubo::Constraint& constraint : distinct) {
      stream.push_back(constraint);
    }
  }
  m.num_jobs = stream.size();

  service::JobOptions batch;
  batch.seed = kSeed;

  // Pass 1: cache-less reference over the distinct set.
  service::SolveService cold_service(bench_service(nullptr));
  Stopwatch cold_timer;
  const std::vector<service::JobResult> cold =
      cold_service.solve_constraints(distinct, batch);
  m.cold_seconds = cold_timer.elapsed_seconds();
  for (const service::JobResult& result : cold) {
    m.cold_attempts += result.attempts;
    if (bench::presolved(result)) ++m.cold_presolved;
  }

  // Pass 2: warming — same seeds through the cache-backed service.
  auto cache = std::make_shared<canon::AnswerCache>();
  service::SolveService warm_service(bench_service(cache));
  const std::vector<service::JobResult> warming =
      warm_service.solve_constraints(distinct, batch);

  for (std::size_t i = 0; i < distinct.size(); ++i) {
    // Generator collisions inside the distinct set legitimately hit; every
    // genuine miss must be byte-identical to the cache-less reference.
    if (warming[i].status != cold[i].status) ++m.verdict_mismatches;
    if (!warming[i].answer_cache_hit &&
        (warming[i].text != cold[i].text ||
         warming[i].position != cold[i].position)) {
      ++m.verdict_mismatches;
    }
  }

  // Pass 3: the duplicate stream through the warmed cache. Different batch
  // seed: only the cache can reproduce the warming pass's witnesses.
  const std::uint64_t hits_before = warm_service.stats().answer_hits;
  service::JobOptions warm_batch;
  warm_batch.seed = kSeed ^ 0xFFFF;
  Stopwatch warm_timer;
  const std::vector<service::JobResult> warm =
      warm_service.solve_constraints(stream, warm_batch);
  m.warm_seconds = warm_timer.elapsed_seconds();

  // Every repeat of a distinct case must be byte-identical to its first
  // warm serving (the cache can only ever hand out one retained witness),
  // and every verdict must agree with the cold reference. Witness bytes are
  // NOT compared against the per-index warming result: generator collisions
  // inside the distinct set race their concurrent cold solves, and the
  // entry that survives is whichever verified insert landed last.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const service::JobResult& first_serving = warm[i % distinct.size()];
    const service::JobResult& result = warm[i];
    if (result.answer_cache_hit) ++m.served;
    if (result.status != cold[i % distinct.size()].status) {
      ++m.verdict_mismatches;
    }
    if (result.status != first_serving.status ||
        result.text != first_serving.text ||
        result.position != first_serving.position) {
      ++m.verdict_mismatches;
    }
  }

  const service::SolveService::Stats stats = warm_service.stats();
  m.hit_rate = static_cast<double>(stats.answer_hits - hits_before) /
               static_cast<double>(m.num_jobs);
  m.answer_fallbacks = stats.answer_fallbacks;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t num_distinct = smoke ? 22 : 55;
  const std::size_t repeats = smoke ? 3 : 4;

  std::vector<strqubo::Constraint> declined;
  std::vector<strqubo::Constraint> mixed;
  declined.reserve(num_distinct);
  mixed.reserve(num_distinct);
  Xoshiro256 declined_rng(kSeed);
  Xoshiro256 mixed_rng(kSeed);
  for (std::size_t i = 0; i < num_distinct; ++i) {
    declined.push_back(bench::declined_case(i, declined_rng));
    mixed.push_back(make_case(i % 11, mixed_rng));
  }
  const Measurement gated = measure(declined, repeats);
  const Measurement ungated = measure(mixed, repeats);
  const InFlight in_flight =
      measure_in_flight(declined, repeats, smoke ? 1 : 3);
  const double speedup = gated.speedup();
  // Every served hit skipped the sampling the cold pass paid for the same
  // constraint: attempts * reads per attempt.
  const std::size_t reads_avoided = gated.cold_attempts * repeats * kNumReads;

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "answer_cache_bench: " << num_distinct
            << " distinct presolve-declined cases x " << repeats
            << " repeats = " << gated.num_jobs << " warm jobs, "
            << kNumWorkers << " workers" << (smoke ? " (smoke)" : "") << "\n";
  std::cout << "  cold solve: " << gated.cold_seconds << " s ("
            << gated.cold_mean_ms() << " ms/job mean, " << gated.cold_attempts
            << " attempts, " << gated.cold_presolved << " presolved)\n";
  std::cout << "  warm serve: " << gated.warm_seconds << " s ("
            << gated.warm_mean_ms() << " ms/job remap+verify, hit rate "
            << gated.hit_rate << ")\n";
  std::cout << "  speedup: " << speedup << "x, reads avoided ~"
            << reads_avoided << ", fallbacks " << gated.answer_fallbacks
            << ", verdict mismatches " << gated.verdict_mismatches << "\n";
  std::cout << "  mixed stream (ungated, " << ungated.cold_presolved << "/"
            << ungated.num_distinct << " presolved): cold "
            << ungated.cold_mean_ms() << " ms/job, warm "
            << ungated.warm_mean_ms() << " ms/job, speedup "
            << ungated.speedup() << "x, hit rate " << ungated.hit_rate
            << "\n";
  std::cout << "  in flight: " << in_flight.bursts << " burst(s) of "
            << in_flight.jobs / in_flight.bursts << " jobs over "
            << in_flight.keys << " answer keys: " << in_flight.ladders
            << " ladders (at most " << in_flight.max_burst_ladders
            << " per burst), " << in_flight.attempts << " attempts ("
            << static_cast<double>(in_flight.attempts) / in_flight.bursts
            << " per burst vs " << gated.cold_attempts << " cold), "
            << in_flight.coalesced << " coalesced, " << in_flight.seconds
            << " s\n";

  if (gated.verdict_mismatches != 0) {
    std::cerr << "answer_cache_bench: FAIL " << gated.verdict_mismatches
              << " warmed verdicts differ from the cold reference\n";
    return 1;
  }
  if (gated.cold_presolved != 0) {
    std::cerr << "answer_cache_bench: FAIL " << gated.cold_presolved
              << " gated cold jobs were presolved, not sampled\n";
    return 1;
  }
  if (gated.served != gated.num_jobs || gated.hit_rate < 1.0) {
    std::cerr << "answer_cache_bench: FAIL warm stream hit rate "
              << gated.hit_rate << " < 1.0 (" << gated.served << "/"
              << gated.num_jobs << " served)\n";
    return 1;
  }

  if (in_flight.max_burst_ladders > in_flight.keys ||
      in_flight.unverified_sat != 0) {
    std::cerr << "answer_cache_bench: FAIL in-flight burst ran "
              << in_flight.max_burst_ladders << " ladders over "
              << in_flight.keys << " answer keys ("
              << in_flight.unverified_sat << " unverified sat)\n";
    return 1;
  }

  const double gate_ratio = smoke ? 3.0 : 10.0;
  if (smoke) {
    if (speedup < gate_ratio) {
      std::cerr << "answer_cache_bench: FAIL smoke speedup " << speedup
                << "x < " << gate_ratio << "x\n";
      return 1;
    }
    std::cout << "answer_cache_bench: PASS (>= " << gate_ratio
              << "x warm-vs-cold, hit rate 1.0, <= 1 in-flight ladder per "
                 "key)\n";
    return 0;
  }

  const char* gate = speedup >= gate_ratio ? "pass" : "fail";
  std::ofstream out("BENCH_answercache.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"workload\": \"presolve-declined\",\n"
      << "  \"num_distinct\": " << num_distinct << ",\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"num_warm_jobs\": " << gated.num_jobs << ",\n"
      << "  \"num_workers\": " << kNumWorkers << ",\n"
      << "  \"gate\": \"" << gate << "\",\n"
      << "  \"cold_seconds\": " << gated.cold_seconds << ",\n"
      << "  \"cold_mean_ms_per_job\": " << gated.cold_mean_ms() << ",\n"
      << "  \"cold_attempts\": " << gated.cold_attempts << ",\n"
      << "  \"warm_seconds\": " << gated.warm_seconds << ",\n"
      << "  \"warm_mean_ms_per_job\": " << gated.warm_mean_ms() << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"hit_rate\": " << gated.hit_rate << ",\n"
      << "  \"reads_avoided\": " << reads_avoided << ",\n"
      << "  \"answer_fallbacks\": " << gated.answer_fallbacks << ",\n"
      << "  \"verdict_mismatches\": " << gated.verdict_mismatches << ",\n"
      << "  \"mixed_stream_ungated\": {\"cold_mean_ms_per_job\": "
      << ungated.cold_mean_ms() << ", \"warm_mean_ms_per_job\": "
      << ungated.warm_mean_ms() << ", \"speedup\": " << ungated.speedup()
      << ", \"presolved\": " << ungated.cold_presolved << "},\n"
      << "  \"in_flight\": {\"bursts\": " << in_flight.bursts
      << ", \"jobs\": " << in_flight.jobs << ", \"answer_keys\": "
      << in_flight.keys << ", \"ladders\": " << in_flight.ladders
      << ", \"max_ladders_per_burst\": " << in_flight.max_burst_ladders
      << ", \"attempts\": " << in_flight.attempts
      << ", \"cold_attempts_per_burst\": " << gated.cold_attempts
      << ", \"coalesced\": " << in_flight.coalesced << ", \"seconds\": "
      << in_flight.seconds << "}\n"
      << "}\n";

  if (speedup < gate_ratio) {
    std::cerr << "answer_cache_bench: FAIL speedup " << speedup << "x < "
              << gate_ratio << "x\n";
    return 1;
  }
  std::cout << "answer_cache_bench: PASS (>= " << gate_ratio
            << "x warm-vs-cold at hit rate 1.0, <= 1 in-flight ladder per "
               "key)\n";
  return 0;
}
