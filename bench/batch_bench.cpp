// Batched-substrate bench: reads/second of the bit-packed multi-replica
// sweep kernel against the scalar per-read loop it replaced. A full run
// writes BENCH_batch.json (in the CWD; run from the repo root to refresh
// the tracked baseline); `--smoke` writes no JSON.
//
// Replica sweep — at num_reads in {1, 4, 8, 16, 32}, a scalar read loop
// over detail::anneal_read (the oracle, i.e. the pre-substrate single-read
// path run per read) vs SimulatedAnnealer::sample, which always runs the
// batched kernel, on the string-QUBO workloads palindrome(8) and
// palindrome(16). Both sides run on the calling thread, as every sampler
// does, so this bench measures per-core substrate throughput. Thread
// scaling comes from the SolveService pool and is covered by the service
// bench. Every (workload, reads) cell asserts full bit-identity of the two
// sample sets before its timing is trusted.
//
// Timings are min-of-reps (see bench/hotpath_bench.cpp for the rationale).
// The acceptance bar for the substrate is >= 3x reads/second over the
// scalar path at 16 replicas on a string-QUBO workload; the gate is
// enforced in full runs and skipped under --smoke (CI runs --smoke for
// wiring + identity coverage, not for timing fidelity).
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "anneal/batched_kernel.hpp"
#include "anneal/context.hpp"
#include "anneal/greedy.hpp"
#include "anneal/sample_set.hpp"
#include "anneal/schedule.hpp"
#include "anneal/simulated_annealer.hpp"
#include "qubo/adjacency.hpp"
#include "qubo/qubo_model.hpp"
#include "strqubo/builders.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qsmt;

constexpr std::size_t kNumSweeps = 256;
constexpr std::uint64_t kSeed = 29;
const std::vector<std::size_t> kReplicaCounts = {1, 4, 8, 16, 32};

struct Workload {
  std::string name;
  qubo::QuboAdjacency adjacency;
};

struct ReplicaCell {
  std::string workload;
  std::size_t num_variables = 0;
  std::size_t num_reads = 0;
  double scalar_seconds = 0.0;
  double batched_seconds = 0.0;
  double scalar_reads_per_second = 0.0;
  double batched_reads_per_second = 0.0;
  double speedup = 0.0;
  double best_energy = 0.0;
  bool bit_identical = false;
};

bool same_sample_sets(const anneal::SampleSet& a, const anneal::SampleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits != b[i].bits) return false;
    // Bit-for-bit: the substrates replay the same arithmetic, so even the
    // floating-point energies must match exactly.
    if (std::memcmp(&a[i].energy, &b[i].energy, sizeof(double)) != 0) {
      return false;
    }
    if (a[i].num_occurrences != b[i].num_occurrences) return false;
  }
  return true;
}

anneal::SimulatedAnnealerParams base_params(std::size_t num_reads) {
  anneal::SimulatedAnnealerParams params;
  params.num_reads = num_reads;
  params.num_sweeps = kNumSweeps;
  params.seed = kSeed;
  return params;
}

/// The scalar baseline: sample()'s reads run one at a time through
/// detail::anneal_read on the same Xoshiro256(seed, read) streams and the
/// default quench schedule, then the same polish and energy.
anneal::SampleSet scalar_read_loop(
    const qubo::QuboAdjacency& adjacency,
    const anneal::SimulatedAnnealerParams& params) {
  const anneal::BetaRange range = anneal::default_beta_range(adjacency);
  const std::vector<double> betas = anneal::make_quench_schedule(
      range.hot, range.cold, params.num_sweeps, params.beta_interpolation);
  anneal::AnnealContext& ctx = anneal::thread_local_context();
  ctx.prepare(adjacency.num_variables());
  anneal::SampleSet set;
  for (std::size_t r = 0; r < params.num_reads; ++r) {
    Xoshiro256 rng(params.seed, r);
    for (auto& b : ctx.bits) b = rng.coin() ? 1 : 0;
    anneal::detail::anneal_read(adjacency, betas, rng, ctx);
    anneal::detail::greedy_descend(adjacency, ctx.bits, ctx.field);
    anneal::Sample out;
    out.energy = adjacency.energy(ctx.bits);
    out.bits.assign(ctx.bits.begin(), ctx.bits.end());
    set.add(std::move(out));
  }
  set.aggregate();
  return set;
}

/// Min-of-reps wall time of `fn()` (first call also returns its result via
/// the out param so identity checks reuse the timed work).
template <typename Fn, typename Result>
double time_min(std::size_t reps, Fn&& fn, Result& out) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    Result result = fn();
    best = std::min(best, timer.elapsed_seconds());
    if (rep == 0) out = std::move(result);
  }
  return best;
}

ReplicaCell bench_replicas(const Workload& workload, std::size_t num_reads,
                           std::size_t reps) {
  ReplicaCell cell;
  cell.workload = workload.name;
  cell.num_variables = workload.adjacency.num_variables();
  cell.num_reads = num_reads;

  const anneal::SimulatedAnnealerParams params = base_params(num_reads);
  const anneal::SimulatedAnnealer batched(params);

  anneal::SampleSet scalar_set;
  cell.scalar_seconds = time_min(
      reps, [&] { return scalar_read_loop(workload.adjacency, params); },
      scalar_set);
  anneal::SampleSet batched_set;
  cell.batched_seconds = time_min(
      reps, [&] { return batched.sample(workload.adjacency); }, batched_set);

  cell.scalar_reads_per_second =
      static_cast<double>(num_reads) / cell.scalar_seconds;
  cell.batched_reads_per_second =
      static_cast<double>(num_reads) / cell.batched_seconds;
  cell.speedup = cell.scalar_seconds / cell.batched_seconds;
  cell.best_energy = batched_set.lowest_energy();
  cell.bit_identical = same_sample_sets(scalar_set, batched_set);
  return cell;
}

void write_json(const std::vector<ReplicaCell>& replica_sweep,
                std::size_t reps, double gate_speedup) {
  std::ofstream out("BENCH_batch.json");
  out << std::fixed << std::setprecision(4);
  out << "{\n  \"config\": {\"num_sweeps\": " << kNumSweeps
      << ", \"reps\": " << reps << ", \"seed\": " << kSeed
      << ", \"smoke\": false"
      << ", \"avx2\": " << (anneal::batched_avx2_enabled() ? "true" : "false")
      << ", \"threads\": 1},\n";
  out << "  \"replica_sweep\": [\n";
  for (std::size_t i = 0; i < replica_sweep.size(); ++i) {
    const ReplicaCell& c = replica_sweep[i];
    out << "    {\"workload\": \"" << c.workload << "\""
        << ", \"num_variables\": " << c.num_variables
        << ", \"num_reads\": " << c.num_reads
        << ",\n     \"scalar_seconds\": " << c.scalar_seconds
        << ", \"batched_seconds\": " << c.batched_seconds
        << ",\n     \"scalar_reads_per_second\": " << c.scalar_reads_per_second
        << ", \"batched_reads_per_second\": " << c.batched_reads_per_second
        << ",\n     \"speedup\": " << c.speedup
        << ", \"best_energy\": " << c.best_energy << ", \"bit_identical\": "
        << (c.bit_identical ? "true" : "false") << "}"
        << (i + 1 < replica_sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gate_speedup_at_16_replicas\": " << gate_speedup
      << ",\n  \"gate_threshold\": 3.0\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t reps = smoke ? 2 : 7;

  std::vector<Workload> workloads;
  workloads.push_back(
      {"palindrome_8", qubo::QuboAdjacency(strqubo::build_palindrome(8))});
  workloads.push_back(
      {"palindrome_16", qubo::QuboAdjacency(strqubo::build_palindrome(16))});

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "batch_bench: sweeps=" << kNumSweeps << " reps=" << reps
            << " avx2=" << (anneal::batched_avx2_enabled() ? "on" : "off")
            << (smoke ? " (smoke)" : "") << "\n";

  bool all_identical = true;
  double gate_speedup = 0.0;
  std::vector<ReplicaCell> replica_sweep;
  for (const Workload& workload : workloads) {
    for (std::size_t num_reads : kReplicaCounts) {
      ReplicaCell cell = bench_replicas(workload, num_reads, reps);
      all_identical = all_identical && cell.bit_identical;
      if (num_reads == 16) gate_speedup = std::max(gate_speedup, cell.speedup);
      std::cout << "  " << cell.workload << " reads=" << cell.num_reads
                << ": scalar " << cell.scalar_reads_per_second
                << " reads/s, batched " << cell.batched_reads_per_second
                << " reads/s (" << cell.speedup << "x, "
                << (cell.bit_identical ? "bit-identical" : "MISMATCH")
                << ")\n";
      replica_sweep.push_back(std::move(cell));
    }
  }

  if (!smoke) write_json(replica_sweep, reps, gate_speedup);

  // Identity is non-negotiable in every mode: a fast-but-different kernel
  // would silently change solver verdicts.
  if (!all_identical) {
    std::cerr << "batch_bench: FAIL batched/scalar outputs diverged\n";
    return 1;
  }
  std::cout << "  speedup at 16 replicas: " << gate_speedup << "x\n";
  if (!smoke && gate_speedup < 3.0) {
    std::cerr << "batch_bench: FAIL speedup " << gate_speedup << " < 3.0\n";
    return 1;
  }
  std::cout << "batch_bench: PASS ("
            << (smoke ? "identity only" : ">= 3x at 16 replicas") << ")\n";
  return 0;
}
