// Hot-path bench: measures the three surfaces the annealing overhaul
// touched and writes BENCH_hotpath.json (in the CWD; run from the repo
// root so the tracked baseline gets refreshed in place).
//
//   1. Sweep throughput — the post-overhaul read path (screened exp-free
//      kernel + anneal-then-quench default schedule + zero-flip early
//      exit) vs the pre-overhaul read path (per-flip std::exp kernel on
//      the plain geometric schedule, anneal_read_reference below).
//      Both sides run num_reads=32 / num_sweeps=256 single-threaded with
//      the greedy polish sample() applies, and report best/mean energies
//      so quality parity is visible next to the speedup. Timings are the
//      minimum over interleaved repetitions — this host's wall-clock
//      noise is far larger than the effect floor, and min-of-reps is the
//      standard estimator for the undisturbed run.
//
// Measurement bookkeeping (min-of-reps, energy best/mean) goes through a
// bench-local always-enabled telemetry::Registry rather than hand-rolled
// accumulators: per-rep seconds and per-read energies are recorded into
// histograms and the minima/means read back from one snapshot. The
// process-global registry (QSMT_TELEMETRY) stays untouched, so running
// this bench with telemetry off still measures the instrumented library's
// disabled-path overhead honestly.
//   2. Adjacency (CSR) build time from a QuboModel.
//   3. QUBO assembly — QuboBuilder's COO sort/merge fast path vs
//      incremental QuboModel::add_quadratic on the same term stream.
//
// Workloads mirror bench/sampler_bench.cpp: palindrome(8) and
// palindrome(16) (mirror couplings, dense quadratic structure) and the
// one-hot regex a[bd]+ at length 3 (selector variables with pairwise
// one-hot exclusion penalties). The default paper-averaged regex encoding
// is purely linear, so the one-hot encoding is the quadratic workload.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/schedule.hpp"
#include "anneal/simulated_annealer.hpp"
#include "qubo/adjacency.hpp"
#include "qubo/builder.hpp"
#include "qubo/qubo_model.hpp"
#include "strqubo/builders.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumReads = 32;
constexpr std::size_t kNumSweeps = 256;
constexpr std::size_t kReps = 7;
constexpr std::uint64_t kSeed = 17;

struct EnergyStats {
  double best = std::numeric_limits<double>::infinity();
  double mean = 0.0;
};

// Bench-local metrics registry; always enabled, independent of the
// QSMT_TELEMETRY gate on the process-global registry.
telemetry::Registry& bench_registry() {
  static telemetry::Registry registry;
  return registry;
}

// Exact minimum of everything recorded under `name` (HistogramStat tracks
// true min/max alongside the buckets, so min-of-reps loses no precision).
double recorded_min(const telemetry::Snapshot& snapshot,
                    const std::string& name) {
  const telemetry::HistogramStat* h = snapshot.histogram(name);
  return (h != nullptr && h->count > 0)
             ? h->min
             : std::numeric_limits<double>::infinity();
}

EnergyStats recorded_energy(const telemetry::Snapshot& snapshot,
                            const std::string& name) {
  EnergyStats stats;
  const telemetry::HistogramStat* h = snapshot.histogram(name);
  if (h != nullptr && h->count > 0) {
    stats.best = h->min;
    stats.mean = h->mean();
  }
  return stats;
}

struct KernelResult {
  std::string workload;
  std::size_t num_variables = 0;
  double reference_seconds = 0.0;
  double new_seconds = 0.0;
  double reference_attempts_per_second = 0.0;
  double new_attempts_per_second = 0.0;
  /// Headline serving metric: completed annealing reads per second (the
  /// unit the batched substrate is benched in — see bench/batch_bench.cpp).
  double reference_reads_per_second = 0.0;
  double new_reads_per_second = 0.0;
  double speedup = 0.0;
  EnergyStats reference_energy;
  EnergyStats new_energy;
};

// The pre-overhaul kernel: per-flip std::exp, a uniform drawn only on
// uphill candidates, no early exit. The baseline of the sweep-throughput
// comparison.
void anneal_read_reference(const qubo::QuboAdjacency& adjacency,
                           std::span<const double> betas, Xoshiro256& rng,
                           std::vector<std::uint8_t>& bits) {
  const std::size_t n = adjacency.num_variables();
  std::vector<double> field(n);
  for (std::size_t i = 0; i < n; ++i) field[i] = adjacency.local_field(bits, i);

  for (double beta : betas) {
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = bits[i] ? -field[i] : field[i];
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta * beta)) {
        const double step = bits[i] ? -1.0 : 1.0;
        bits[i] ^= 1u;
        for (const auto& nb : adjacency.neighbors(i)) {
          field[nb.index] += nb.coefficient * step;
        }
      }
    }
  }
}

// One timed repetition of the pre-overhaul read path: per-flip-exp kernel,
// plain geometric schedule, greedy polish — what sample() did before the
// overhaul. Records wall seconds and per-read energies (energy recording
// happens outside the timed region).
void run_reference(const qubo::QuboAdjacency& adjacency,
                   std::span<const double> betas,
                   telemetry::Histogram seconds_hist,
                   telemetry::Histogram energy_hist) {
  const std::size_t n = adjacency.num_variables();
  std::vector<std::uint8_t> bits(n);
  std::vector<double> energies(kNumReads);
  Stopwatch timer;
  for (std::size_t read = 0; read < kNumReads; ++read) {
    Xoshiro256 rng(kSeed, read);
    for (std::size_t i = 0; i < n; ++i) bits[i] = rng.coin() ? 1 : 0;
    anneal_read_reference(adjacency, betas, rng, bits);
    anneal::detail::greedy_descend(adjacency, bits);
    energies[read] = adjacency.energy(bits);
  }
  seconds_hist.record(timer.elapsed_seconds());
  for (const double e : energies) energy_hist.record(e);
}

// One timed repetition of the post-overhaul read path: screened kernel,
// quench schedule, early exit, context reuse, polish off the maintained
// field — what sample() does now.
void run_new(const qubo::QuboAdjacency& adjacency,
             std::span<const double> betas, anneal::AnnealContext& ctx,
             telemetry::Histogram seconds_hist,
             telemetry::Histogram energy_hist) {
  std::vector<double> energies(kNumReads);
  Stopwatch timer;
  for (std::size_t read = 0; read < kNumReads; ++read) {
    Xoshiro256 rng(kSeed, read);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;
    anneal::detail::anneal_read(adjacency, betas, rng, ctx);
    anneal::detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    energies[read] = adjacency.energy(ctx.bits);
  }
  seconds_hist.record(timer.elapsed_seconds());
  for (const double e : energies) energy_hist.record(e);
}

KernelResult bench_kernels(const std::string& workload,
                           const qubo::QuboModel& model) {
  KernelResult result;
  result.workload = workload;
  const std::size_t n = model.num_variables();
  result.num_variables = n;

  const qubo::QuboAdjacency adjacency(model);
  const anneal::BetaRange range = anneal::default_beta_range(adjacency);
  const std::vector<double> plain = anneal::make_schedule(
      range.hot, range.cold, kNumSweeps, anneal::Interpolation::kGeometric);
  const std::vector<double> quench = anneal::make_quench_schedule(
      range.hot, range.cold, kNumSweeps, anneal::Interpolation::kGeometric);

  anneal::AnnealContext ctx;
  ctx.prepare(n);

  telemetry::Registry& registry = bench_registry();
  const std::string prefix = "sweep." + workload;
  const auto ref_seconds = registry.histogram(prefix + ".reference.seconds",
                                              telemetry::Unit::kSeconds);
  const auto new_seconds =
      registry.histogram(prefix + ".new.seconds", telemetry::Unit::kSeconds);
  const auto ref_energy = registry.histogram(prefix + ".reference.energy");
  const auto new_energy = registry.histogram(prefix + ".new.energy");

  // Interleave the two sides so slow drift on the host hits both equally;
  // the registry keeps exact per-side minima across the reps.
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    run_reference(adjacency, plain, ref_seconds, ref_energy);
    run_new(adjacency, quench, ctx, new_seconds, new_energy);
  }
  const telemetry::Snapshot snapshot = registry.snapshot();
  result.reference_seconds = recorded_min(snapshot, prefix + ".reference.seconds");
  result.new_seconds = recorded_min(snapshot, prefix + ".new.seconds");
  result.reference_energy = recorded_energy(snapshot, prefix + ".reference.energy");
  result.new_energy = recorded_energy(snapshot, prefix + ".new.energy");

  const double attempts =
      static_cast<double>(kNumReads) * static_cast<double>(kNumSweeps) *
      static_cast<double>(n);
  result.reference_attempts_per_second = attempts / result.reference_seconds;
  result.new_attempts_per_second = attempts / result.new_seconds;
  result.reference_reads_per_second =
      static_cast<double>(kNumReads) / result.reference_seconds;
  result.new_reads_per_second =
      static_cast<double>(kNumReads) / result.new_seconds;
  result.speedup = result.reference_seconds / result.new_seconds;
  return result;
}

struct AdjacencyResult {
  std::string workload;
  std::size_t num_variables = 0;
  std::size_t num_interactions = 0;
  double seconds_per_build = 0.0;
};

AdjacencyResult bench_adjacency(const std::string& workload,
                                const qubo::QuboModel& model) {
  constexpr std::size_t kBuilds = 200;
  AdjacencyResult result;
  result.workload = workload;
  result.num_variables = model.num_variables();
  telemetry::Registry& registry = bench_registry();
  const std::string name = "adjacency." + workload + ".seconds_per_build";
  const auto per_build = registry.histogram(name, telemetry::Unit::kSeconds);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Stopwatch timer;
    std::size_t checksum = 0;
    for (std::size_t b = 0; b < kBuilds; ++b) {
      const qubo::QuboAdjacency adjacency(model);
      checksum += adjacency.num_interactions();
    }
    per_build.record(timer.elapsed_seconds() / static_cast<double>(kBuilds));
    result.num_interactions = checksum / kBuilds;
  }
  result.seconds_per_build = recorded_min(registry.snapshot(), name);
  return result;
}

struct AssemblyResult {
  std::size_t num_variables = 0;
  std::size_t num_terms = 0;
  double incremental_seconds = 0.0;
  double builder_seconds = 0.0;
  double speedup = 0.0;
  bool models_equal = false;
};

// Same synthetic term stream (duplicates, unsorted index pairs) fed to
// incremental QuboModel inserts and to the flat QuboBuilder; both paths
// must produce equal models.
AssemblyResult bench_assembly() {
  constexpr std::size_t kVars = 256;  // a 32-char string at 8 bits/char
  constexpr std::size_t kTerms = 200000;

  struct Term {
    std::size_t i;
    std::size_t j;
    double value;
  };
  std::vector<Term> terms;
  terms.reserve(kTerms);
  Xoshiro256 rng(11, 0);
  for (std::size_t t = 0; t < kTerms; ++t) {
    const auto i = static_cast<std::size_t>(rng.uniform() * kVars);
    const auto j = static_cast<std::size_t>(rng.uniform() * kVars);
    terms.push_back(Term{std::min(i, kVars - 1), std::min(j, kVars - 1),
                         rng.uniform() * 2.0 - 1.0});
  }

  AssemblyResult result;
  result.num_variables = kVars;
  result.num_terms = kTerms;

  telemetry::Registry& registry = bench_registry();
  const auto incremental_hist = registry.histogram(
      "assembly.incremental.seconds", telemetry::Unit::kSeconds);
  const auto builder_hist = registry.histogram("assembly.builder.seconds",
                                               telemetry::Unit::kSeconds);

  // Assembly runs are cheap but allocation-heavy, which makes them the
  // noisiest section; extra repetitions keep the minima stable.
  constexpr std::size_t kAssemblyReps = 3 * kReps;
  qubo::QuboModel incremental(0);
  qubo::QuboModel built(0);
  for (std::size_t rep = 0; rep < kAssemblyReps; ++rep) {
    {
      Stopwatch timer;
      qubo::QuboModel model(kVars);
      for (const Term& t : terms) {
        if (t.i == t.j) {
          model.add_linear(t.i, t.value);
        } else {
          model.add_quadratic(t.i, t.j, t.value);
        }
      }
      incremental_hist.record(timer.elapsed_seconds());
      incremental = std::move(model);
    }
    {
      Stopwatch timer;
      qubo::QuboBuilder builder(kVars);
      builder.reserve_terms(kTerms);
      for (const Term& t : terms) builder.add_quadratic(t.i, t.j, t.value);
      built = builder.build();
      builder_hist.record(timer.elapsed_seconds());
    }
  }
  const telemetry::Snapshot snapshot = registry.snapshot();
  result.incremental_seconds =
      recorded_min(snapshot, "assembly.incremental.seconds");
  result.builder_seconds = recorded_min(snapshot, "assembly.builder.seconds");

  result.speedup = result.incremental_seconds / result.builder_seconds;
  result.models_equal = incremental == built;
  return result;
}

void write_json(const std::vector<KernelResult>& kernels,
                const std::vector<AdjacencyResult>& adjacencies,
                const AssemblyResult& assembly) {
  std::ofstream out("BENCH_hotpath.json");
  out << std::setprecision(6);
  out << "{\n";
  out << "  \"config\": {\"num_reads\": " << kNumReads
      << ", \"num_sweeps\": " << kNumSweeps << ", \"reps\": " << kReps
      << ", \"seed\": " << kSeed << ", \"timing\": \"min_of_reps\"},\n";
  out << "  \"sweep_kernel\": [\n";
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const KernelResult& r = kernels[k];
    out << "    {\"workload\": \"" << r.workload << "\", \"num_variables\": "
        << r.num_variables << ",\n     \"reference_seconds\": "
        << r.reference_seconds << ", \"new_seconds\": " << r.new_seconds
        << ",\n     \"reference_attempts_per_second\": "
        << r.reference_attempts_per_second
        << ", \"new_attempts_per_second\": " << r.new_attempts_per_second
        << ",\n     \"reference_reads_per_second\": "
        << r.reference_reads_per_second
        << ", \"new_reads_per_second\": " << r.new_reads_per_second
        << ",\n     \"speedup\": " << r.speedup
        << ",\n     \"reference_best_energy\": " << r.reference_energy.best
        << ", \"new_best_energy\": " << r.new_energy.best
        << ",\n     \"reference_mean_energy\": " << r.reference_energy.mean
        << ", \"new_mean_energy\": " << r.new_energy.mean << "}"
        << (k + 1 < kernels.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"adjacency_build\": [\n";
  for (std::size_t k = 0; k < adjacencies.size(); ++k) {
    const AdjacencyResult& r = adjacencies[k];
    out << "    {\"workload\": \"" << r.workload << "\", \"num_variables\": "
        << r.num_variables << ", \"num_interactions\": " << r.num_interactions
        << ", \"seconds_per_build\": " << r.seconds_per_build << "}"
        << (k + 1 < adjacencies.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"qubo_assembly\": {\"num_variables\": " << assembly.num_variables
      << ", \"num_terms\": " << assembly.num_terms
      << ",\n    \"incremental_seconds\": " << assembly.incremental_seconds
      << ", \"builder_seconds\": " << assembly.builder_seconds
      << ",\n    \"speedup\": " << assembly.speedup << ", \"models_equal\": "
      << (assembly.models_equal ? "true" : "false") << "}\n";
  out << "}\n";
}

}  // namespace

int main() {
  strqubo::BuildOptions onehot;
  onehot.regex_encoding = strqubo::RegexClassEncoding::kOneHotSelectors;
  const qubo::QuboModel palindrome8 = strqubo::build_palindrome(8);
  const qubo::QuboModel palindrome16 = strqubo::build_palindrome(16);
  const qubo::QuboModel regex = strqubo::build_regex("a[bd]+", 3, onehot);

  std::vector<KernelResult> kernels;
  kernels.push_back(bench_kernels("palindrome_8", palindrome8));
  kernels.push_back(bench_kernels("palindrome_16", palindrome16));
  kernels.push_back(bench_kernels("regex_onehot_abd_3", regex));

  std::vector<AdjacencyResult> adjacencies;
  adjacencies.push_back(bench_adjacency("palindrome_16", palindrome16));
  adjacencies.push_back(bench_adjacency("regex_onehot_abd_3", regex));

  const AssemblyResult assembly = bench_assembly();

  std::cout << std::fixed << std::setprecision(3);
  bool palindrome_2x = true;
  for (const KernelResult& r : kernels) {
    std::cout << r.workload << " (" << r.num_variables
              << " vars): reference " << r.reference_seconds * 1e3
              << " ms, new " << r.new_seconds * 1e3 << " ms, speedup "
              << r.speedup << "x, best " << r.reference_energy.best << " -> "
              << r.new_energy.best << ", mean " << r.reference_energy.mean
              << " -> " << r.new_energy.mean << "\n";
    if (r.workload.rfind("palindrome", 0) == 0 && r.speedup < 2.0) {
      palindrome_2x = false;
    }
  }
  for (const AdjacencyResult& r : adjacencies) {
    std::cout << r.workload << ": adjacency build "
              << r.seconds_per_build * 1e6 << " us ("
              << r.num_interactions << " interactions)\n";
  }
  std::cout << "assembly (" << assembly.num_terms << " terms): incremental "
            << assembly.incremental_seconds * 1e3 << " ms, builder "
            << assembly.builder_seconds * 1e3 << " ms, speedup "
            << assembly.speedup << "x, equal="
            << (assembly.models_equal ? "yes" : "NO") << "\n";
  if (!palindrome_2x) {
    std::cout << "WARNING: palindrome sweep speedup below the tracked 2x "
                 "target (noisy host? rerun)\n";
  }

  write_json(kernels, adjacencies, assembly);
  std::cout << "wrote BENCH_hotpath.json\n";
  return assembly.models_equal ? 0 : 1;
}
