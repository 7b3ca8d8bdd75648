#include "smtlib/incremental.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "anneal/exact.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace qsmt::smtlib {

namespace {

/// Merged conjunction model plus the layout facts the scan needs.
struct MergedConjunction {
  qubo::QuboModel model{0};
  std::size_t string_bits = 0;
  std::size_t num_variables = 0;
};

/// Sums per-constraint blocks into one model: string bits share indices,
/// auxiliary blocks (regex one-hot selectors, not-contains ancillas) are
/// re-linked to fresh ranges past the string block. When `fragments` is
/// given, blocks come from the cache — a re-solve with one mutated
/// assertion rebuilds exactly one block.
MergedConjunction merge_conjunction(
    const std::vector<strqubo::Constraint>& constraints,
    const strqubo::BuildOptions& options, FragmentCache* fragments,
    std::size_t string_bits) {
  MergedConjunction merged;
  merged.string_bits = string_bits;
  merged.model = qubo::QuboModel(string_bits);
  std::size_t aux_base = string_bits;
  telemetry::Span merge_span("smtlib.merge_qubo");
  for (const auto& constraint : constraints) {
    std::shared_ptr<const qubo::QuboModel> cached;
    const qubo::QuboModel* part = nullptr;
    qubo::QuboModel built{0};
    if (fragments != nullptr) {
      cached = fragments->get_or_build(constraint, options);
      part = cached.get();
    } else {
      built = strqubo::build(constraint, options);
      part = &built;
    }
    const std::size_t part_aux =
        part->num_variables() > string_bits
            ? part->num_variables() - string_bits
            : 0;
    auto remap = [&](std::size_t v) {
      return v < string_bits ? v : aux_base + (v - string_bits);
    };
    merged.model.add_offset(part->offset());
    for (std::size_t v = 0; v < part->num_variables(); ++v) {
      const double lin = part->linear_terms()[v];
      if (lin != 0.0) merged.model.add_linear(remap(v), lin);
    }
    for (const auto& [key, value] : part->quadratic_terms()) {
      if (value == 0.0) continue;
      merged.model.add_quadratic(remap(key >> 32), remap(key & 0xffffffffULL),
                                 value);
    }
    aux_base += part_aux;
  }
  merged.num_variables = std::max(merged.model.num_variables(), string_bits);
  return merged;
}

/// True when `value` satisfies every conjunct and the caller's filter.
bool witness_verifies(const std::string& value,
                      const std::vector<strqubo::Constraint>& constraints,
                      const std::function<bool(const std::string&)>& accept) {
  for (const auto& constraint : constraints) {
    if (!strqubo::verify_string(constraint, value)) return false;
  }
  return !accept || accept(value);
}

/// Scans samples best-first for a verified witness; fills `result` on hit.
bool scan_samples(const anneal::SampleSet& samples, std::size_t string_bits,
                  const std::vector<strqubo::Constraint>& constraints,
                  const std::function<bool(const std::string&)>& accept,
                  ConjunctionResult& result) {
  telemetry::Span verify_span("smtlib.verify");
  for (const auto& sample : samples) {
    const std::string value = strenc::decode_string(
        std::span(sample.bits).subspan(0, string_bits));
    if (!witness_verifies(value, constraints, accept)) continue;
    result.solved = true;
    result.value = value;
    if (telemetry::enabled()) {
      telemetry::counter("smtlib.conjunction.solved").add();
    }
    return true;
  }
  return false;
}

/// Exact component presolve of the merged model (anneal::presolve): a
/// decided ground state goes through the same classical scan as a sample.
/// Returns true when it verified and filled `result`; a decline or an
/// unverified decoding leaves the caller's sampling path to run unchanged.
bool try_presolve(const qubo::QuboAdjacency& adjacency, std::size_t string_bits,
                  const std::vector<strqubo::Constraint>& constraints,
                  const std::function<bool(const std::string&)>& accept,
                  ConjunctionResult& result) {
  std::optional<std::vector<std::uint8_t>> bits =
      anneal::presolve(adjacency, string_bits);
  if (!bits) return false;
  anneal::SampleSet ground;
  const double energy = adjacency.energy(*bits);
  ground.add(std::move(*bits), energy);
  const bool solved =
      scan_samples(ground, string_bits, constraints, accept, result);
  if (telemetry::enabled()) {
    telemetry::counter(solved ? "presolve.decided" : "presolve.unverified")
        .add();
  }
  return solved;
}

/// The caller's sampler on the merged model, through the adjacency the
/// presolve already built when the sampler has a native CSR path.
anneal::SampleSet sample_merged(const anneal::Sampler& sampler,
                                const MergedConjunction& merged,
                                const qubo::QuboAdjacency& adjacency) {
  return sampler.supports_adjacency_sampling() ? sampler.sample(adjacency)
                                               : sampler.sample(merged.model);
}

/// Shared admission checks; returns false (with result.note/solved set)
/// when the conjunction cannot be merged at all.
bool admit_conjunction(const std::vector<strqubo::Constraint>& constraints,
                       const std::function<bool(const std::string&)>& accept,
                       std::size_t& string_bits, ConjunctionResult& result) {
  if (constraints.empty()) {
    result.solved = !accept || accept(std::string());
    if (!result.solved) result.note = "empty witness rejected by filter";
    return false;
  }
  for (const auto& constraint : constraints) {
    if (!strqubo::produces_string(constraint)) {
      result.note = "includes-style atoms cannot join a generation conjunction";
      return false;
    }
  }
  // All conjuncts must generate the same number of characters so their QUBO
  // matrices can be summed variable-for-variable.
  string_bits = strqubo::constraint_num_variables(constraints.front());
  for (const auto& constraint : constraints) {
    if (strqubo::constraint_num_variables(constraint) != string_bits) {
      result.note =
          "conjuncts disagree on string length; cannot merge QUBO models";
      return false;
    }
  }
  return true;
}

void publish_model_size(ConjunctionResult& result,
                        const MergedConjunction& merged) {
  result.num_qubo_variables = merged.num_variables;
  if (telemetry::enabled()) {
    telemetry::gauge("smtlib.qubo_variables")
        .set(static_cast<double>(result.num_qubo_variables));
  }
}

}  // namespace

std::string fragment_key(const strqubo::Constraint& constraint,
                         const strqubo::BuildOptions& options) {
  std::ostringstream out;
  out << strqubo::structure_key(constraint) << '\x1e'
      << strqubo::options_fingerprint(options);
  return out.str();
}

namespace {

/// Approximate retained footprint of one cached block: its key plus the
/// model's linear and quadratic coefficient storage.
std::size_t block_bytes(const std::string& key, const qubo::QuboModel& block) {
  return key.size() + block.num_variables() * sizeof(double) +
         block.num_interactions() *
             (sizeof(std::uint64_t) + sizeof(double)) +
         64;  // list/map node overhead.
}

}  // namespace

FragmentCache::FragmentCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const qubo::QuboModel> FragmentCache::get_or_build(
    const strqubo::Constraint& constraint,
    const strqubo::BuildOptions& options) {
  const std::string key = fragment_key(constraint, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      if (telemetry::enabled()) {
        telemetry::counter("incremental.fragment.hits").add();
      }
      return it->second->block;
    }
  }
  // Build outside the lock: builders dominate and would serialise every
  // session otherwise. Two threads may race the same key; the loser's
  // insert is a no-op and its build is wasted once.
  auto block = std::make_shared<const qubo::QuboModel>(
      strqubo::build(constraint, options));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  if (telemetry::enabled()) {
    telemetry::counter("incremental.fragment.misses").add();
  }
  auto it = index_.find(key);
  if (it != index_.end()) return it->second->block;
  const std::size_t entry_bytes = block_bytes(key, *block);
  lru_.push_front(Entry{key, block, entry_bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += entry_bytes;
  while (index_.size() > capacity_) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  publish_occupancy_locked();
  return block;
}

void FragmentCache::publish_occupancy_locked() {
  if (telemetry::enabled()) {
    telemetry::gauge("incremental.fragment.entries")
        .set(static_cast<double>(index_.size()));
    telemetry::gauge("incremental.fragment.bytes", telemetry::Unit::kBytes)
        .set(static_cast<double>(bytes_));
  }
}

std::size_t FragmentCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

std::size_t FragmentCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

FragmentCache::Stats FragmentCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.entries = index_.size();
  stats.bytes = bytes_;
  return stats;
}

void ClauseMemory::remember(
    std::size_t depth, std::vector<std::pair<std::string, bool>> literals) {
  TheoryLemma lemma;
  lemma.depth = depth;
  lemma.literals = std::move(literals);
  lemmas_.push_back(std::move(lemma));
}

void ClauseMemory::drop_deeper_than(std::size_t depth) {
  lemmas_.erase(std::remove_if(lemmas_.begin(), lemmas_.end(),
                               [&](const TheoryLemma& lemma) {
                                 return lemma.depth > depth;
                               }),
                lemmas_.end());
}

SolveContext::SolveContext(IncrementalParams params,
                           std::shared_ptr<FragmentCache> fragments)
    : params_(params),
      fragments_(fragments ? std::move(fragments)
                           : std::make_shared<FragmentCache>(
                                 params.fragment_capacity)) {}

void SolveContext::pop(std::size_t levels) {
  depth_ = levels >= depth_ ? 0 : depth_ - levels;
  // Invalidate only what the removed frames recorded; shallower state
  // survives the pop untouched.
  while (!witnesses_.empty() && witnesses_.back().first > depth_) {
    witnesses_.pop_back();
  }
  clauses_.drop_deeper_than(depth_);
}

void SolveContext::note_witness(std::string value) {
  if (!witnesses_.empty() && witnesses_.back().first == depth_) {
    witnesses_.back().second = std::move(value);
    return;
  }
  witnesses_.emplace_back(depth_, std::move(value));
}

const std::string* SolveContext::last_witness() const {
  return witnesses_.empty() ? nullptr : &witnesses_.back().second;
}

void SolveContext::clear() {
  depth_ = 0;
  witnesses_.clear();
  clauses_.clear();
}

ConjunctionResult solve_conjunction(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    const std::function<bool(const std::string&)>& accept) {
  ConjunctionResult result;
  telemetry::Span span("smtlib.solve_conjunction");
  span.arg("num_constraints", static_cast<double>(constraints.size()));
  std::size_t string_bits = 0;
  if (!admit_conjunction(constraints, accept, string_bits, result)) {
    return result;
  }

  const MergedConjunction merged =
      merge_conjunction(constraints, options, nullptr, string_bits);
  publish_model_size(result, merged);
  const qubo::QuboAdjacency adjacency(merged.model);
  if (try_presolve(adjacency, string_bits, constraints, accept, result)) {
    return result;
  }

  const anneal::SampleSet samples = sample_merged(sampler, merged, adjacency);
  if (samples.empty()) {
    result.note = "sampler returned no samples";
    return result;
  }
  if (scan_samples(samples, string_bits, constraints, accept, result)) {
    return result;
  }
  result.note = "no sample satisfied every conjunct";
  if (telemetry::enabled()) {
    telemetry::counter("smtlib.conjunction.unsolved").add();
  }
  return result;
}

ConjunctionResult solve_conjunction_incremental(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    SolveContext& context,
    const std::function<bool(const std::string&)>& accept) {
  if (!context.params().enabled) {
    ConjunctionResult result =
        solve_conjunction(constraints, sampler, options, accept);
    if (result.solved) context.note_witness(result.value);
    return result;
  }

  ConjunctionResult result;
  telemetry::Span span("smtlib.solve_conjunction");
  span.arg("num_constraints", static_cast<double>(constraints.size()));
  std::size_t string_bits = 0;
  if (!admit_conjunction(constraints, accept, string_bits, result)) {
    return result;
  }

  // Fast path 0: the previous witness still satisfies everything — a
  // re-check after an assumption retraction or a pop costs one classical
  // verification, no QUBO and no sampling at all.
  const std::string* previous = context.last_witness();
  if (previous != nullptr &&
      strenc::num_variables(previous->size()) == string_bits &&
      witness_verifies(*previous, constraints, accept)) {
    ++context.stats().witness_reuses;
    if (telemetry::enabled()) {
      telemetry::counter("incremental.witness.reuse").add();
      telemetry::counter("smtlib.conjunction.solved").add();
    }
    result.solved = true;
    result.value = *previous;
    result.num_qubo_variables = 0;  // No model was assembled.
    context.note_witness(result.value);
    return result;
  }

  const MergedConjunction merged = merge_conjunction(
      constraints, options, &context.fragments(), string_bits);
  publish_model_size(result, merged);
  const qubo::QuboAdjacency adjacency(merged.model);
  if (try_presolve(adjacency, string_bits, constraints, accept, result)) {
    context.note_witness(result.value);
    return result;
  }

  // Fast path 1: warm start — seed a small reverse-anneal pass from the
  // previous witness when it still type-checks against the new variable
  // map (same string block; auxiliary bits start at zero).
  if (previous != nullptr &&
      strenc::num_variables(previous->size()) == string_bits &&
      strenc::is_ascii7(*previous)) {
    ++context.stats().warm_starts;
    if (telemetry::enabled()) {
      telemetry::counter("incremental.warm.starts").add();
    }
    std::vector<std::uint8_t> initial = strenc::encode_string(*previous);
    initial.resize(merged.num_variables, 0);
    anneal::ReverseAnnealerParams warm = context.params().warm;
    warm.seed = mix_seed(warm.seed, context.stats().warm_starts);
    const anneal::ReverseAnnealer refiner(std::move(initial), warm);
    const anneal::SampleSet refined = refiner.sample(adjacency);
    if (scan_samples(refined, string_bits, constraints, accept, result)) {
      ++context.stats().warm_hits;
      if (telemetry::enabled()) {
        telemetry::counter("incremental.warm.hits").add();
      }
      context.note_witness(result.value);
      return result;
    }
  }

  // Cold fallback: the caller's full-budget sampler.
  ++context.stats().cold_starts;
  if (telemetry::enabled()) {
    telemetry::counter("incremental.cold.starts").add();
  }
  const anneal::SampleSet samples = sample_merged(sampler, merged, adjacency);
  if (samples.empty()) {
    result.note = "sampler returned no samples";
    return result;
  }
  if (scan_samples(samples, string_bits, constraints, accept, result)) {
    context.note_witness(result.value);
    return result;
  }
  result.note = "no sample satisfied every conjunct";
  if (telemetry::enabled()) {
    telemetry::counter("smtlib.conjunction.unsolved").add();
  }
  return result;
}

}  // namespace qsmt::smtlib
