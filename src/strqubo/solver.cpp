#include "strqubo/solver.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "anneal/exact.hpp"
#include "anneal/reverse.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace qsmt::strqubo {

namespace {

void record_solve_verdict(bool satisfied) {
  static const auto sat = telemetry::counter("strqubo.solve.satisfied");
  static const auto unsat = telemetry::counter("strqubo.solve.unsatisfied");
  (satisfied ? sat : unsat).add();
}

/// Sums per-conjunct blocks into one model: string bits share indices,
/// auxiliary blocks are re-linked to fresh ranges past the string block.
qubo::QuboModel merge_conjunction(const std::vector<Constraint>& conjuncts,
                                  const BuildOptions& options,
                                  FragmentCache* fragments,
                                  std::size_t string_bits) {
  qubo::QuboModel merged(string_bits);
  std::size_t aux_base = string_bits;
  telemetry::Span merge_span("smtlib.merge_qubo");
  for (const Constraint& constraint : conjuncts) {
    std::shared_ptr<const qubo::QuboModel> cached;
    const qubo::QuboModel* part = nullptr;
    qubo::QuboModel built{0};
    if (fragments != nullptr) {
      cached = fragments->get_or_build(constraint, options);
      part = cached.get();
    } else {
      built = build(constraint, options);
      part = &built;
    }
    const std::size_t part_aux = part->num_variables() > string_bits
                                     ? part->num_variables() - string_bits
                                     : 0;
    auto remap = [&](std::size_t v) {
      return v < string_bits ? v : aux_base + (v - string_bits);
    };
    merged.add_offset(part->offset());
    for (std::size_t v = 0; v < part->num_variables(); ++v) {
      const double lin = part->linear_terms()[v];
      if (lin != 0.0) merged.add_linear(remap(v), lin);
    }
    for (const auto& [key, value] : part->quadratic_terms()) {
      if (value == 0.0) continue;
      merged.add_quadratic(remap(key >> 32), remap(key & 0xffffffffULL),
                           value);
    }
    aux_base += part_aux;
  }
  return merged;
}

}  // namespace

std::string fragment_key(const Constraint& constraint,
                         const BuildOptions& options) {
  std::ostringstream out;
  out << structure_key(constraint) << '\x1e' << options_fingerprint(options);
  return out.str();
}

FragmentCache::FragmentCache(std::size_t capacity)
    : cache_("incremental.fragment", capacity) {}

std::shared_ptr<const qubo::QuboModel> FragmentCache::get_or_build(
    const Constraint& constraint, const BuildOptions& options) {
  std::string key = fragment_key(constraint, options);
  if (auto cached = cache_.get(key)) return std::move(*cached);
  // Build outside the lock: builders dominate and would serialise every
  // session otherwise. Two threads may race the same key; the loser's
  // insert keeps the first block and its build is wasted once.
  auto block =
      std::make_shared<const qubo::QuboModel>(build(constraint, options));
  const std::size_t heap = util::heap_bytes(key) +
                           util::shared_block_bytes<qubo::QuboModel>() +
                           block->heap_bytes();
  cache_.insert(std::move(key), block, heap, util::OnExisting::kKeep);
  return block;
}

std::size_t FragmentCache::size() const { return cache_.stats().entries; }

std::size_t FragmentCache::bytes() const { return cache_.stats().bytes; }

FragmentCache::Stats FragmentCache::stats() const { return cache_.stats(); }

StringConstraintSolver::StringConstraintSolver(const anneal::Sampler& sampler,
                                               BuildOptions options)
    : sampler_(&sampler), options_(options) {}

std::string conjunction_refusal(const std::vector<Constraint>& conjuncts) {
  if (conjuncts.empty()) return "an empty conjunction has no model";
  if (conjuncts.size() == 1) return "";
  for (const Constraint& constraint : conjuncts) {
    if (!produces_string(constraint)) {
      return "includes-style atoms cannot join a generation conjunction";
    }
  }
  const std::size_t string_bits = constraint_num_variables(conjuncts.front());
  for (const Constraint& constraint : conjuncts) {
    if (constraint_num_variables(constraint) != string_bits) {
      return "conjuncts disagree on string length; cannot merge QUBO models";
    }
  }
  return "";
}

PreparedConstraint prepare(std::vector<Constraint> conjuncts,
                           const BuildOptions& options,
                           FragmentCache* fragments) {
  const std::string refusal = conjunction_refusal(conjuncts);
  if (!refusal.empty()) throw std::invalid_argument(refusal);
  Stopwatch build_timer;
  telemetry::Span build_span("strqubo.build");
  const Constraint& first = conjuncts.front();
  const std::size_t string_bits =
      produces_string(first) ? constraint_num_variables(first) : 0;
  qubo::QuboModel model;
  if (conjuncts.size() > 1) {
    model = merge_conjunction(conjuncts, options, fragments, string_bits);
  } else if (fragments != nullptr) {
    model = *fragments->get_or_build(first, options);
  } else {
    model = build(first, options);
  }
  qubo::QuboAdjacency adjacency(model);
  build_span.close();
  return PreparedConstraint{std::move(conjuncts), string_bits,
                            std::move(model), std::move(adjacency),
                            build_timer.elapsed_seconds()};
}

PreparedConstraint prepare(const Constraint& constraint,
                           const BuildOptions& options) {
  return prepare(std::vector<Constraint>{constraint}, options);
}

qubo::QuboModel StringConstraintSolver::build_model(
    const Constraint& constraint) const {
  return build(constraint, options_);
}

std::optional<std::size_t> decode_includes_position(
    std::span<const std::uint8_t> bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) return i;
  }
  return std::nullopt;
}

std::vector<std::string> enumerate_solutions(const Constraint& constraint,
                                             const anneal::SampleSet& samples,
                                             std::size_t limit) {
  require(produces_string(constraint),
          "enumerate_solutions: constraint must produce a string");
  const std::size_t string_bits = constraint_num_variables(constraint);
  std::vector<std::string> solutions;
  for (const anneal::Sample& sample : samples) {
    if (solutions.size() >= limit) break;
    if (sample.bits.size() < string_bits) continue;
    const std::string candidate = strenc::decode_string(
        std::span(sample.bits).subspan(0, string_bits));
    if (!verify_string(constraint, candidate)) continue;
    if (std::find(solutions.begin(), solutions.end(), candidate) !=
        solutions.end()) {
      continue;
    }
    solutions.push_back(candidate);
  }
  return solutions;
}

SolveResult StringConstraintSolver::solve(const Constraint& constraint) const {
  return solve(prepare(constraint, options_));
}

SolveResult StringConstraintSolver::solve(
    const PreparedConstraint& prepared) const {
  SolveResult result;
  Stopwatch sample_timer;
  result.samples = sample(*sampler_, prepared);
  result.sample_seconds = sample_timer.elapsed_seconds();
  require(!result.samples.empty(),
          "StringConstraintSolver::solve: sampler returned no samples");

  SolveResult verdict = decode_and_verify(prepared.conjuncts, result.samples);
  result.text = std::move(verdict.text);
  result.position = verdict.position;
  result.satisfied = verdict.satisfied;
  result.energy = verdict.energy;
  result.num_variables = prepared.model.num_variables();
  result.num_interactions = prepared.model.num_interactions();
  result.build_seconds = prepared.build_seconds;
  return result;
}

anneal::SampleSet sample(const anneal::Sampler& sampler,
                         const PreparedConstraint& prepared) {
  telemetry::Span sample_span("strqubo.sample");
  sample_span.arg("num_variables",
                  static_cast<double>(prepared.model.num_variables()));
  return sampler.supports_adjacency_sampling()
             ? sampler.sample(prepared.adjacency)
             : sampler.sample(prepared.model);
}

bool verify_conjunction(const std::vector<Constraint>& conjuncts,
                        const std::string& text, const WitnessFilter& accept) {
  for (const Constraint& constraint : conjuncts) {
    if (!verify_string(constraint, text)) return false;
  }
  return !accept || accept(text);
}

namespace {

/// The verify stage's per-sample step, set up once per conjunction.
class SampleVerifier {
 public:
  SampleVerifier(const std::vector<Constraint>& conjuncts,
                 const WitnessFilter& accept)
      : conjuncts_(conjuncts),
        accept_(accept),
        includes_(conjuncts.size() == 1
                      ? std::get_if<Includes>(&conjuncts.front())
                      : nullptr),
        // String-producing conjunctions: the first 7 * length bits are the
        // string; auxiliary variables (one-hot regex selectors,
        // not-contains ancillas) follow them and the decoder ignores them.
        string_bits_(includes_ != nullptr
                         ? 0
                         : constraint_num_variables(conjuncts.front())) {}

  /// Decodes `bits` and verifies the decoding. Writes it and `energy` into
  /// `result` when it verifies or when `keep` is set; returns whether it
  /// verified (and then sets result.satisfied).
  bool check(std::span<const std::uint8_t> bits, double energy, bool keep,
             SolveResult& result) const {
    bool satisfied = false;
    if (includes_ != nullptr) {
      const auto position = decode_includes_position(bits);
      satisfied = verify_position(*includes_, position);
      if (keep || satisfied) result.position = position;
    } else {
      std::string text = strenc::decode_string(
          bits.subspan(0, std::min(string_bits_, bits.size())));
      satisfied = verify_conjunction(conjuncts_, text, accept_);
      if (keep || satisfied) result.text = std::move(text);
    }
    if (keep || satisfied) result.energy = energy;
    if (satisfied) result.satisfied = true;
    return satisfied;
  }

 private:
  const std::vector<Constraint>& conjuncts_;
  const WitnessFilter& accept_;
  const Includes* includes_;
  std::size_t string_bits_;
};

}  // namespace

SolveResult decode_and_verify(const std::vector<Constraint>& conjuncts,
                              const anneal::SampleSet& samples,
                              const WitnessFilter& accept) {
  require(!samples.empty(), "decode_and_verify: sample set is empty");
  require(!conjuncts.empty(), "decode_and_verify: empty conjunction");
  telemetry::Span verify_span("strqubo.verify");
  SolveResult result;

  // Decode the best-energy sample first; when several states tie at the
  // bottom of the landscape (common for class encodings), fall through the
  // sample set in energy order and keep the first decoding that passes the
  // classical consistency check.
  const SampleVerifier verifier(conjuncts, accept);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    if (verifier.check(samples[s].bits, samples[s].energy, s == 0, result)) {
      break;
    }
  }
  record_solve_verdict(result.satisfied);
  return result;
}

SolveResult decode_and_verify(const Constraint& constraint,
                              const anneal::SampleSet& samples) {
  return decode_and_verify(std::vector<Constraint>{constraint}, samples);
}

std::optional<SolveResult> presolve(const PreparedConstraint& prepared,
                                    const WitnessFilter& accept) {
  std::optional<std::vector<std::uint8_t>> bits =
      anneal::presolve(prepared.adjacency, prepared.string_bits);
  if (!bits) return std::nullopt;
  anneal::SampleSet ground;
  const double energy = prepared.adjacency.energy(*bits);
  ground.add(std::move(*bits), energy);
  SolveResult solved = decode_and_verify(prepared.conjuncts, ground, accept);
  static const auto decided = telemetry::counter("presolve.decided");
  static const auto unverified = telemetry::counter("presolve.unverified");
  (solved.satisfied ? decided : unverified).add();
  return solved;
}

std::optional<SolveResult> warm_refine(const PreparedConstraint& prepared,
                                       const std::string& witness,
                                       std::uint64_t seed,
                                       const WitnessFilter& accept) {
  if (strenc::num_variables(witness.size()) != prepared.string_bits ||
      !strenc::is_ascii7(witness)) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> initial = strenc::encode_string(witness);
  initial.resize(prepared.model.num_variables(), 0);
  anneal::ReverseAnnealerParams params = kWarmRefine;
  params.seed = seed;
  const anneal::ReverseAnnealer refiner(std::move(initial), params);
  // Each read is verified as it finishes and the first verified one ends
  // the pass; every caller ignores the decoding of a pass that missed.
  const SampleVerifier verifier(prepared.conjuncts, accept);
  SolveResult result;
  const std::size_t reads = refiner.sample_until(
      prepared.adjacency,
      [&](std::span<const std::uint8_t> bits, double energy) {
        return verifier.check(bits, energy, true, result);
      });
  static const auto reads_per_pass = telemetry::histogram(
      "strqubo.warm_refine.reads", telemetry::Unit::kCount);
  reads_per_pass.record(static_cast<double>(reads));
  record_solve_verdict(result.satisfied);
  return result;
}

}  // namespace qsmt::strqubo
