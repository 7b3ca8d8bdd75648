// Service bench: batch throughput of the escalating solve service against
// sequential engine::solve_scripts over the same generated workload.
//
// The sequential baseline is what applications did before src/service: one
// blocking solve_script per script with the default simulated annealer
// (64 reads x 256 sweeps). The service runs the same scripts on 8 workers
// with the default ladder — a cheap sa-fast rung (16 reads x 64 sweeps),
// then a deep sa-deep rung (64 reads x 512 sweeps) only for jobs sa-fast
// could not verify. The speedup therefore has two independent sources, and
// the bench reports both configurations so each is visible:
//
//   * escalation: sa-fast verifies the easy majority of jobs at a fraction
//     of the baseline's anneal budget, and sa-deep never runs for them —
//     this pays even on a single-core host;
//   * the worker pool overlaps jobs across cores when there are any.
//
// A third, single-rung configuration (one sa rung at the baseline's budget)
// isolates pure pool overlap, the number operators should expect from
// `--exact`-style single-rung deployments.
//
// Writes BENCH_service.json in the CWD (run from the repo root to refresh
// the tracked baseline). The acceptance bar for the serving layer is a
// >= 2x batch-throughput ratio at 8 workers.
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "anneal/simulated_annealer.hpp"
#include "engine/engine.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"
#include "workload/generator.hpp"
#include "workload/smt2_render.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumScripts = 48;
constexpr std::size_t kNumWorkers = 8;
constexpr std::uint64_t kSeed = 23;

std::vector<std::string> make_scripts() {
  workload::GeneratorParams params;
  params.min_length = 2;
  params.max_length = 6;
  params.seed = kSeed;
  workload::Generator generator(params);
  std::vector<std::string> scripts;
  while (scripts.size() < kNumScripts) {
    // Includes renders to nullopt (no free string variable); skip it so
    // both sides solve the identical script list.
    if (auto script = workload::to_smt2(generator.next())) {
      scripts.push_back(std::move(*script));
    }
  }
  return scripts;
}

std::size_t count_decided(const std::vector<engine::ScriptResult>& results) {
  std::size_t decided = 0;
  for (const engine::ScriptResult& result : results) {
    if (result.status != smtlib::CheckSatStatus::kUnknown) ++decided;
  }
  return decided;
}

std::size_t count_decided(const std::vector<service::JobResult>& results) {
  std::size_t decided = 0;
  for (const service::JobResult& result : results) {
    if (result.status != smtlib::CheckSatStatus::kUnknown) ++decided;
  }
  return decided;
}

// Completed annealing reads so far, from the process-global summary
// counters. Both sides of the bench record through the same annealer
// hot path, so deltas of this counter give a like-for-like headline
// reads/second for each configuration.
std::uint64_t total_anneal_reads() {
  const telemetry::Snapshot snapshot = telemetry::registry().snapshot();
  const telemetry::CounterStat* reads = snapshot.counter("anneal.reads");
  return reads != nullptr ? reads->value : 0;
}

}  // namespace

int main() {
  const std::vector<std::string> scripts = make_scripts();
  // Summary mode is counters-only (no per-span tracing), so it leaves the
  // kAuto sweep-mode routing on the batched substrate and adds only a
  // relaxed-atomic increment per read.
  telemetry::set_mode(telemetry::Mode::kSummary);

  // Sequential baseline: default annealer, one solve_script at a time.
  const std::uint64_t reads_before_sequential = total_anneal_reads();
  Stopwatch sequential_timer;
  const anneal::SimulatedAnnealer annealer{{}};
  const std::vector<engine::ScriptResult> sequential =
      engine::solve_scripts(scripts, annealer);
  const double sequential_seconds = sequential_timer.elapsed_seconds();
  const std::uint64_t sequential_reads =
      total_anneal_reads() - reads_before_sequential;

  // Escalating service: 8 workers, default sa-fast > sa-deep ladder.
  service::ServiceOptions options;
  options.num_workers = kNumWorkers;
  service::SolveService service(options);
  service::JobOptions job;
  job.seed = kSeed;
  const std::uint64_t reads_before_service = total_anneal_reads();
  Stopwatch service_timer;
  const std::vector<service::JobResult> laddered =
      service.solve_scripts(scripts, job);
  const double service_seconds = service_timer.elapsed_seconds();
  const std::uint64_t service_reads =
      total_anneal_reads() - reads_before_service;

  // Single-rung configuration: the same pool with a one-rung ladder (the
  // sequential baseline's annealer budget), so the ratio over sequential
  // isolates pure pool overlap.
  service::ServiceOptions solo_options;
  solo_options.num_workers = kNumWorkers;
  solo_options.portfolio = {service::simulated_annealing_member("sa-solo")};
  service::SolveService solo_service(solo_options);
  const std::uint64_t reads_before_solo = total_anneal_reads();
  Stopwatch solo_timer;
  const std::vector<service::JobResult> solo =
      solo_service.solve_scripts(scripts, job);
  const double solo_seconds = solo_timer.elapsed_seconds();
  const std::uint64_t solo_reads = total_anneal_reads() - reads_before_solo;

  const double sequential_rps =
      static_cast<double>(sequential_reads) / sequential_seconds;
  const double service_rps =
      static_cast<double>(service_reads) / service_seconds;
  const double solo_rps = static_cast<double>(solo_reads) / solo_seconds;
  const double solo_jps = static_cast<double>(scripts.size()) / solo_seconds;
  const double sequential_jps =
      static_cast<double>(scripts.size()) / sequential_seconds;
  const double service_jps =
      static_cast<double>(scripts.size()) / service_seconds;
  const double ratio = service_jps / sequential_jps;

  std::size_t fast_wins = 0;
  std::size_t cancelled = service.stats().members_cancelled;
  for (const service::JobResult& result : laddered) {
    if (result.winner == "sa-fast") ++fast_wins;
  }

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "service_bench: " << scripts.size() << " scripts, "
            << kNumWorkers << " workers, ladder sa-fast > sa-deep\n";
  std::cout << "  sequential solve_scripts: " << sequential_seconds << " s ("
            << sequential_jps << " jobs/s, " << sequential_rps
            << " reads/s, " << count_decided(sequential) << " decided)\n";
  std::cout << "  escalating service:       " << service_seconds << " s ("
            << service_jps << " jobs/s, " << service_rps << " reads/s, "
            << count_decided(laddered) << " decided, " << fast_wins
            << " sa-fast wins, " << cancelled << " cancelled)\n";
  std::cout << "  single-rung service:      " << solo_seconds << " s ("
            << solo_jps << " jobs/s, " << solo_rps << " reads/s, "
            << count_decided(solo) << " decided)\n";
  std::cout << "  throughput ratio:         " << ratio << "x\n";

  const unsigned hw = std::thread::hardware_concurrency();
  const char* gate = hw < 2              ? "skipped_single_core_host"
                     : ratio >= 2.0 ? "pass"
                                    : "fail";

  std::ofstream out("BENCH_service.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"num_scripts\": " << scripts.size() << ",\n"
      << "  \"num_workers\": " << kNumWorkers << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"gate\": \"" << gate << "\",\n"
      << "  \"sequential_seconds\": " << sequential_seconds << ",\n"
      << "  \"sequential_jobs_per_second\": " << sequential_jps << ",\n"
      << "  \"sequential_reads_per_second\": " << sequential_rps << ",\n"
      << "  \"service_seconds\": " << service_seconds << ",\n"
      << "  \"service_jobs_per_second\": " << service_jps << ",\n"
      << "  \"service_reads_per_second\": " << service_rps << ",\n"
      << "  \"single_member_seconds\": " << solo_seconds << ",\n"
      << "  \"single_member_jobs_per_second\": " << solo_jps << ",\n"
      << "  \"single_member_reads_per_second\": " << solo_rps << ",\n"
      << "  \"single_member_ratio\": " << solo_jps / sequential_jps << ",\n"
      << "  \"throughput_ratio\": " << ratio << ",\n"
      << "  \"sa_fast_wins\": " << fast_wins << ",\n"
      << "  \"members_cancelled\": " << cancelled << "\n"
      << "}\n";

  // The serving layer exists to beat one-at-a-time solving; fail loudly
  // when the escalation + pooling win disappears. The gate measures
  // parallelism, so it only binds on hosts that have some: on a
  // single-core box the 8-worker pool can only interleave jobs and the
  // ratio is noise, not signal.
  if (hw < 2) {
    std::cout << "service_bench: gate skipped (single-core host; ratio "
              << ratio << "x not meaningful)\n";
    return 0;
  }
  if (ratio < 2.0) {
    std::cerr << "service_bench: FAIL ratio " << ratio << " < 2.0\n";
    return 1;
  }
  std::cout << "service_bench: PASS (>= 2x)\n";
  return 0;
}
