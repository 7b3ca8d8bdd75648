// StringConstraintSolver: the public facade of the library, and the solve
// stages every front end shares.
//
// Implements the paper's Figure 1 pipeline end to end: constraint ->
// binary variables -> QUBO matrix -> (simulated/quantum/embedded) annealer
// -> decode -> classical consistency check. The stages are written once
// here and called in one order by the in-process driver
// (smtlib::solve_conjunction*), the SolveService and, through the service,
// the qsmt-server daemon:
//
//   prepare -> presolve -> warm_refine -> sample -> decode_and_verify
//
// Each stage takes a conjunction (one string variable; a single constraint
// is the one-element case). Every candidate a stage produces goes through
// the verify stage before a caller may report it, so the presolve and the
// warm refine can reach a verdict sooner but never change it. StringConstraintSolver::solve is the sample + verify pair
// alone, with no presolve, which keeps the paper-faithful harnesses
// (table1_repro, the E-studies) on the samplers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anneal/reverse.hpp"
#include "anneal/sampler.hpp"
#include "qubo/adjacency.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"
#include "util/lru_cache.hpp"

namespace qsmt::strqubo {

struct SolveResult {
  /// Decoded string for string-producing constraints.
  std::optional<std::string> text;
  /// Decoded first-occurrence position for Includes (nullopt = "none
  /// selected", i.e. the annealer asserts the substring does not occur).
  std::optional<std::size_t> position;
  /// Classical verification verdict on the decoded answer.
  bool satisfied = false;
  /// Energy of the sample the answer was decoded from (the lowest-energy
  /// sample whose decoding verifies, else the overall lowest; warm_refine
  /// reports its first verified read instead).
  double energy = 0.0;
  /// Number of QUBO variables in the built model.
  std::size_t num_variables = 0;
  /// Number of quadratic terms in the built model.
  std::size_t num_interactions = 0;
  /// Wall-clock seconds spent building the model / sampling.
  double build_seconds = 0.0;
  double sample_seconds = 0.0;
  /// All samples, best-first (aggregated).
  anneal::SampleSet samples;
};

/// Extra check a decoded witness must pass besides every conjunct (the
/// DPLL(T) engine's false-atom filter). Empty accepts every witness.
using WitnessFilter = std::function<bool(const std::string&)>;

/// Cache key of one compiled fragment: the constraint's structural key
/// plus a fingerprint of every BuildOptions field that changes the QUBO.
std::string fragment_key(const Constraint& constraint,
                         const BuildOptions& options);

/// Thread-safe LRU (util::LruCache) of built QUBO blocks, shareable across
/// drivers and server sessions (blocks are immutable; per-session state
/// never enters the cache, so sharing cannot leak anything between
/// tenants). prepare() takes its blocks from one when the caller has one,
/// so a re-solve with one mutated conjunct rebuilds exactly one block.
class FragmentCache {
 public:
  explicit FragmentCache(std::size_t capacity = 256);

  /// Returns the cached block for `constraint` under `options`, building
  /// and inserting it on a miss. Emits incremental.fragment.{hits,misses}.
  std::shared_ptr<const qubo::QuboModel> get_or_build(
      const Constraint& constraint, const BuildOptions& options);

  std::size_t size() const;
  /// Retained footprint (LRU nodes, keys and block coefficient storage),
  /// the value published as the incremental.fragment.bytes gauge.
  std::size_t bytes() const;

  /// The incremental.fragment.* counts and occupancy.
  using Stats = util::CacheStats;
  Stats stats() const;

 private:
  util::LruCache<std::string, std::shared_ptr<const qubo::QuboModel>> cache_;
};

/// A conjunction with its QUBO model and CSR adjacency prebuilt: the unit
/// of reuse for re-solvers. Retry loops, sweep escalation, and the
/// escalating solve service (src/service) build one of these per distinct
/// conjunction and re-sample it across samplers, attempts, and jobs without
/// paying the build again. Immutable after prepare(); safe to share across
/// threads.
struct PreparedConstraint {
  /// The conjuncts the model encodes, in merge order (one for a single
  /// constraint).
  std::vector<Constraint> conjuncts;
  /// Leading string bits shared by every conjunct (0 for a lone Includes,
  /// whose variables are positions); auxiliary variables follow them.
  std::size_t string_bits = 0;
  qubo::QuboModel model;
  qubo::QuboAdjacency adjacency;
  /// Wall-clock seconds the one-time build took (steady clock).
  double build_seconds = 0.0;
};

/// Why `conjuncts` cannot be prepared as one model, or "" when they can: a
/// conjunction must be non-empty, and several conjuncts must all produce
/// strings of one common length so their matrices sum variable for
/// variable. A lone conjunct of any kind is admitted.
std::string conjunction_refusal(const std::vector<Constraint>& conjuncts);

/// Build stage, under the `strqubo.build` telemetry span. One conjunct is
/// built exactly as build() builds it (its block comes from `fragments`
/// when given). Several are merged: string bits share indices, and each
/// conjunct's auxiliary block (regex one-hot selectors, not-contains
/// ancillas) is re-linked to a fresh range past the string block. Throws
/// std::invalid_argument with conjunction_refusal()'s reason when the
/// conjunction cannot be merged.
PreparedConstraint prepare(std::vector<Constraint> conjuncts,
                           const BuildOptions& options = {},
                           FragmentCache* fragments = nullptr);

/// Single-constraint build: prepare({constraint}, options).
PreparedConstraint prepare(const Constraint& constraint,
                           const BuildOptions& options = {});

class StringConstraintSolver {
 public:
  /// `sampler` must outlive the solver.
  explicit StringConstraintSolver(const anneal::Sampler& sampler,
                                  BuildOptions options = {});

  /// Builds the constraint's QUBO, samples it, decodes and verifies the
  /// best sample.
  SolveResult solve(const Constraint& constraint) const;

  /// Sample stage plus verify stage over a PreparedConstraint (no
  /// presolve, no warm refine); build_seconds is copied from the
  /// preparation (the one-time cost the caller already paid).
  SolveResult solve(const PreparedConstraint& prepared) const;

  /// Builds without solving (for inspection and the Table 1 harness).
  qubo::QuboModel build_model(const Constraint& constraint) const;

  const BuildOptions& options() const noexcept { return options_; }
  const anneal::Sampler& sampler() const noexcept { return *sampler_; }

 private:
  const anneal::Sampler* sampler_;
  BuildOptions options_;
};

/// Decodes the best sample of an Includes model: the selected position, or
/// nullopt when no position variable is set. When several are set (one-hot
/// penalty violated), the smallest selected index is reported.
std::optional<std::size_t> decode_includes_position(
    std::span<const std::uint8_t> bits);

/// True when `text` satisfies every conjunct and `accept`: one classical
/// check of one string, the test the verify stage applies per sample.
bool verify_conjunction(const std::vector<Constraint>& conjuncts,
                        const std::string& text,
                        const WitnessFilter& accept = {});

/// Verify stage: decodes `samples` in energy order and keeps the first
/// decoding that satisfies every conjunct and `accept` (under the
/// strqubo.verify telemetry span) — the paper's "transformed back to the
/// original theory, and checked for consistency" step applied per sample.
/// When none verifies, the best sample's decoding is reported with
/// satisfied = false. A one-element Includes conjunction decodes the
/// selected position instead of a string. Returns a SolveResult with
/// satisfied / text / position / energy filled in; model-size, timing, and
/// samples fields are left for the caller.
SolveResult decode_and_verify(const std::vector<Constraint>& conjuncts,
                              const anneal::SampleSet& samples,
                              const WitnessFilter& accept = {});

/// Single-constraint verify stage: decode_and_verify({constraint}, samples).
SolveResult decode_and_verify(const Constraint& constraint,
                              const anneal::SampleSet& samples);

/// Sample stage: one call of `sampler` on the prepared model (through the
/// CSR adjacency when the sampler has a native path), under the
/// strqubo.sample telemetry span.
anneal::SampleSet sample(const anneal::Sampler& sampler,
                         const PreparedConstraint& prepared);

/// Presolve stage: the exact component presolve (anneal::presolve) of the
/// prepared model. Returns nullopt when it declines; otherwise its ground
/// state run through the verify stage (counted presolve.decided, or
/// presolve.unverified when the decoding fails verification and the
/// caller samples as if nothing ran). Never evidence of unsatisfiability.
std::optional<SolveResult> presolve(const PreparedConstraint& prepared,
                                    const WitnessFilter& accept = {});

/// Budget of the warm refine stage: at most 8 reverse-anneal reads of 64
/// sweeps, run one at a time and stopped at the first read that verifies.
/// Deliberately small: it either polishes the old witness into the new
/// constraints in a few sweeps or the samplers take over. warm_refine
/// replaces the seed with its caller's.
inline constexpr anneal::ReverseAnnealerParams kWarmRefine{
    .num_reads = 8, .num_sweeps = 64, .reheat_fraction = 0.35};

/// Warm refine stage: one small reverse-anneal pass over the prepared
/// model with every read seeded from a previously verified `witness`
/// (auxiliary bits start at 0). Each read goes through the verify step as
/// soon as it finishes, and the pass stops at the first read that
/// verifies, so it verifies exactly when one of its reads does; the
/// answer is that first verified read (not necessarily the lowest-energy
/// one), or the last read when none verifies. `samples` is left empty. Returns nullopt without running when `witness` is not 7-bit
/// ASCII or does not encode to exactly `prepared.string_bits` bits;
/// otherwise the verdict. The caller counts the pass
/// (incremental.warm.starts, and incremental.warm.hits when it decided the
/// query): one fact, counted where its stats() reports it.
std::optional<SolveResult> warm_refine(const PreparedConstraint& prepared,
                                       const std::string& witness,
                                       std::uint64_t seed,
                                       const WitnessFilter& accept = {});

/// Enumerates distinct verified solutions of a string-producing constraint
/// from a sample set, best-energy first, up to `limit`. Open constraints
/// (palindromes, regex, substring placement) often have many satisfying
/// strings and a multi-read annealer visits several per call — this is how
/// the suite exposes them (the paper: annealing "would produce a different
/// string every time, while still obeying the given constraints").
std::vector<std::string> enumerate_solutions(const Constraint& constraint,
                                             const anneal::SampleSet& samples,
                                             std::size_t limit = 16);

}  // namespace qsmt::strqubo
