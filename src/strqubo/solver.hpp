// StringConstraintSolver: the public facade of the library.
//
// Implements the paper's Figure 1 pipeline end to end: constraint ->
// binary variables -> QUBO matrix -> (simulated/quantum/embedded) annealer
// -> decode -> classical consistency check.
#pragma once

#include <optional>
#include <string>

#include "anneal/sampler.hpp"
#include "qubo/adjacency.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"

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
  /// sample whose decoding verifies, else the overall lowest).
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

/// A constraint with its QUBO model and CSR adjacency prebuilt: the unit of
/// reuse for re-solvers. Retry loops, sweep escalation, and the portfolio
/// racing service (src/service) build one of these per distinct constraint
/// and re-sample it across samplers, attempts, and jobs without paying the
/// build again. Immutable after prepare(); safe to share across threads.
struct PreparedConstraint {
  Constraint constraint;
  qubo::QuboModel model;
  qubo::QuboAdjacency adjacency;
  /// Wall-clock seconds the one-time build took (steady clock).
  double build_seconds = 0.0;
};

/// Builds `constraint`'s model and adjacency once, under the `strqubo.build`
/// telemetry span — the entry point of the prebuilt-adjacency hot path.
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

  /// Hot path: same, but with the model and its CSR adjacency prebuilt by
  /// the caller — re-solvers (retry loops, sweep escalation) build both once
  /// and re-sample at different budgets. `model`/`adjacency` must correspond
  /// to `constraint` under this solver's options; build_seconds is reported
  /// as 0 (the caller already paid it).
  SolveResult solve(const Constraint& constraint, const qubo::QuboModel& model,
                    const qubo::QuboAdjacency& adjacency) const;

  /// Hot path over a PreparedConstraint; build_seconds is copied from the
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

/// The post-sampling half of StringConstraintSolver::solve: decodes
/// `samples` (best-energy first, falling through the set in energy order)
/// and classically verifies each decoding against `constraint`, under the
/// strqubo.verify telemetry span. Returns a SolveResult with satisfied /
/// text / position / energy filled in; model-size, timing, and samples
/// fields are left for the caller. Exposed so the service's warm-start
/// refinement can verify its samples without re-entering the solver facade.
SolveResult decode_and_verify(const Constraint& constraint,
                              const anneal::SampleSet& samples);

/// Solves with escalating annealer effort: runs the simulated annealer at a
/// doubling sweep budget (initial_sweeps, 2x, 4x, ...) until the decoded
/// answer verifies or max_attempts budgets were tried — the retry loop a
/// production deployment wraps around an incomplete sampler. Each attempt
/// uses a fresh RNG stream, so retries are genuinely independent.
struct RetryParams {
  std::size_t num_reads = 48;
  std::size_t initial_sweeps = 64;
  std::size_t max_attempts = 4;
  std::uint64_t seed = 0;
};
struct RetryResult {
  SolveResult result;          ///< The final (first verified) attempt.
  std::size_t attempts = 0;    ///< Budgets tried.
  std::size_t final_sweeps = 0;
};
RetryResult solve_with_retries(const Constraint& constraint,
                               const RetryParams& params = {},
                               const BuildOptions& options = {});

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
