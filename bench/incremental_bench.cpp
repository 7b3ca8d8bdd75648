// Incremental bench: hot re-solve against fresh-driver re-solve over the
// same mutate-one-conjunct chain.
//
// The workload is the editing loop the incremental layer exists for: a
// stable base formula (length pin, suffix conjunct and a not-contains
// conjunct) and a sequence of rounds that each swap the prefix and
// middle-character conjuncts, then check twice (editors re-check after
// no-op edits). Every round's witness is fully forced by prefix + char-at
// + suffix, so the two configurations must agree byte-for-byte on every
// verdict and model:
//
//   * warm: one persistent SmtDriver carries its SolveContext across the
//     whole chain — compiled fragments are reused, unchanged re-checks
//     re-verify the previous witness without sampling, and changed rounds
//     warm-start a small reverse-anneal pass from the last model before
//     falling back to the full-budget sampler;
//   * cold: every check constructs a fresh driver and replays the current
//     assertion set from scratch with the same full-budget simulated
//     annealer — the non-incremental baseline.
//
// The not-contains conjunct's window gadget is one component over the
// exact presolve's cap, so no check is presolved: every check must be a
// witness reuse, a warm start or a cold start, or the bench fails. The
// old chain without that conjunct, now presolved on every changed round,
// runs as an ungated row so what the incremental layer lost there stays
// visible.
//
// Writes BENCH_incremental.json in the CWD (run from the repo root to
// refresh the tracked baseline). Acceptance bar: the warm chain must beat
// the cold chain by >= 3x end to end. `--smoke` runs a short parity-only
// pass without touching the tracked JSON — the CI gate.
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "anneal/simulated_annealer.hpp"
#include "smtlib/driver.hpp"
#include "smtlib/incremental.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qsmt;

constexpr std::uint64_t kSeed = 41;

anneal::SimulatedAnnealerParams full_budget() {
  anneal::SimulatedAnnealerParams params;
  params.num_reads = 64;
  params.num_sweeps = 512;
  params.seed = kSeed;
  return params;
}

std::string base_script(bool declined) {
  return std::string("(set-logic QF_S)"
                     "(declare-const x String)"
                     "(assert (= (str.len x) 3))"
                     "(assert (str.suffixof \"a\" x))") +
         (declined ? "(assert (not (str.contains x \"zz\")))" : "");
}

struct Round {
  char prefix;
  char middle;
  std::string expected() const {
    return std::string{prefix, middle, 'a'};
  }
  std::string assumptions() const {
    return std::string("(str.prefixof \"") + prefix + "\" x) (= (str.at x 1) \"" +
           std::string(1, middle) + "\")";
  }
};

std::vector<Round> make_rounds(std::size_t count) {
  std::vector<Round> rounds;
  rounds.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    rounds.push_back({static_cast<char>('a' + r % 3),
                      static_cast<char>('a' + r % 2)});
  }
  return rounds;
}

/// One sat record of one driver, reduced to "verdict:model".
std::string record_key(const smtlib::CheckSatRecord& record) {
  const char* verdict =
      record.status == smtlib::CheckSatStatus::kSat     ? "sat"
      : record.status == smtlib::CheckSatStatus::kUnsat ? "unsat"
                                                        : "unknown";
  return std::string(verdict) + ":" + record.model_value;
}

/// The warm and cold chains over one base formula.
struct Chain {
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  std::vector<smtlib::CheckSatRecord> warm_history;
  std::vector<smtlib::CheckSatRecord> cold_history;
  smtlib::IncrementalStats warm_stats;
  smtlib::FragmentCache::Stats warm_fragments;
  /// Checks that reached no sampler, witness reuse or warm start: the
  /// exact presolve answered them.
  std::size_t warm_presolved = 0;
  std::size_t cold_presolved = 0;

  double speedup() const { return cold_seconds / warm_seconds; }
};

Chain run_chain(const std::string& base, const std::vector<Round>& rounds,
                const anneal::Sampler& sampler) {
  Chain chain;
  // Warm chain: one driver, one context, assumptions mutate the formula.
  smtlib::SmtDriver warm_driver(sampler);
  Stopwatch warm_timer;
  warm_driver.run_script(base);
  for (const Round& round : rounds) {
    const std::string check =
        "(check-sat-assuming (" + round.assumptions() + "))";
    // The second run is the unchanged re-check: witness reuse. A driver
    // keeps only its last record, so each one is collected as it lands.
    for (int repeat = 0; repeat < 2; ++repeat) {
      warm_driver.run_script(check);
      chain.warm_history.push_back(warm_driver.history().back());
    }
  }
  chain.warm_seconds = warm_timer.elapsed_seconds();
  chain.warm_stats = warm_driver.solve_context().stats();
  chain.warm_fragments = warm_driver.solve_context().fragments().stats();
  chain.warm_presolved =
      chain.warm_history.size() -
      (chain.warm_stats.witness_reuses + chain.warm_stats.warm_starts +
       chain.warm_stats.cold_starts);

  // Cold chain: a fresh driver replays the mutated formula per check.
  Stopwatch cold_timer;
  for (const Round& round : rounds) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      smtlib::SmtDriver fresh(sampler);
      fresh.run_script(base + "(check-sat-assuming (" + round.assumptions() +
                       "))");
      chain.cold_history.push_back(fresh.history().back());
      if (fresh.solve_context().stats().cold_starts == 0) {
        ++chain.cold_presolved;
      }
    }
  }
  chain.cold_seconds = cold_timer.elapsed_seconds();
  return chain;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t num_rounds = smoke ? 6 : 24;
  const std::vector<Round> rounds = make_rounds(num_rounds);
  const anneal::SimulatedAnnealer sampler(full_budget());

  const Chain gated = run_chain(base_script(true), rounds, sampler);
  const Chain old_chain = run_chain(base_script(false), rounds, sampler);

  // Parity: every witness is forced, so verdicts AND models must match.
  std::size_t mismatches = 0;
  if (gated.warm_history.size() != gated.cold_history.size()) {
    std::cerr << "incremental_bench: FAIL history size mismatch\n";
    return 1;
  }
  for (std::size_t i = 0; i < gated.warm_history.size(); ++i) {
    const std::string expected = "sat:" + rounds[i / 2].expected();
    const std::string warm_key = record_key(gated.warm_history[i]);
    const std::string cold_key = record_key(gated.cold_history[i]);
    if (warm_key != expected || cold_key != expected) {
      std::cerr << "incremental_bench: check " << i << " expected '"
                << expected << "' warm '" << warm_key << "' cold '"
                << cold_key << "'\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "incremental_bench: FAIL " << mismatches
              << " parity mismatches\n";
    return 1;
  }

  const double speedup = gated.speedup();
  const smtlib::IncrementalStats& warm_stats = gated.warm_stats;
  std::cout << std::fixed << std::setprecision(4);
  std::cout << "incremental_bench: " << num_rounds << " rounds x 2 checks, "
            << "forced witnesses, full budget " << full_budget().num_reads
            << "x" << full_budget().num_sweeps << "\n";
  std::cout << "  cold (fresh driver/check): " << gated.cold_seconds << " s\n";
  std::cout << "  warm (persistent context): " << gated.warm_seconds << " s\n";
  std::cout << "  speedup:                   " << speedup << "x\n";
  std::cout << "  warm path: " << warm_stats.witness_reuses << " reuses, "
            << warm_stats.warm_starts << " warm starts ("
            << warm_stats.warm_hits << " hits), " << warm_stats.cold_starts
            << " cold; fragments " << gated.warm_fragments.hits << " hits / "
            << gated.warm_fragments.misses << " misses\n";
  std::cout << "  chain without not-contains (ungated): cold "
            << old_chain.cold_seconds << " s, warm " << old_chain.warm_seconds
            << " s, speedup " << old_chain.speedup() << "x, presolved "
            << old_chain.warm_presolved << " warm / "
            << old_chain.cold_presolved << " cold checks\n";

  if (gated.warm_presolved != 0 || gated.cold_presolved != 0) {
    std::cerr << "incremental_bench: FAIL " << gated.warm_presolved
              << " warm and " << gated.cold_presolved
              << " cold checks were presolved, not re-solved\n";
    return 1;
  }

  if (smoke) {
    std::cout << "incremental_bench: SMOKE PASS (" << gated.warm_history.size()
              << " checks, byte parity, no timing gate)\n";
    return 0;
  }

  const char* gate = speedup >= 3.0 ? "pass" : "fail";
  std::ofstream out("BENCH_incremental.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n"
      << "  \"workload\": \"presolve-declined\",\n"
      << "  \"num_rounds\": " << num_rounds << ",\n"
      << "  \"checks_per_side\": " << gated.warm_history.size() << ",\n"
      << "  \"full_budget_reads\": " << full_budget().num_reads << ",\n"
      << "  \"full_budget_sweeps\": " << full_budget().num_sweeps << ",\n"
      << "  \"gate\": \"" << gate << "\",\n"
      << "  \"cold_seconds\": " << gated.cold_seconds << ",\n"
      << "  \"warm_seconds\": " << gated.warm_seconds << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"witness_reuses\": " << warm_stats.witness_reuses << ",\n"
      << "  \"warm_starts\": " << warm_stats.warm_starts << ",\n"
      << "  \"warm_hits\": " << warm_stats.warm_hits << ",\n"
      << "  \"cold_starts\": " << warm_stats.cold_starts << ",\n"
      << "  \"fragment_hits\": " << gated.warm_fragments.hits << ",\n"
      << "  \"fragment_misses\": " << gated.warm_fragments.misses << ",\n"
      << "  \"presolvable_chain_ungated\": {\"cold_seconds\": "
      << old_chain.cold_seconds << ", \"warm_seconds\": "
      << old_chain.warm_seconds << ", \"speedup\": " << old_chain.speedup()
      << "}\n"
      << "}\n";
  std::cout << "incremental_bench: wrote BENCH_incremental.json (gate "
            << gate << ")\n";
  return gate[0] == 'p' ? 0 : 1;
}
