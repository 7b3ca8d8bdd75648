#include "smtlib/incremental.hpp"

#include <algorithm>

#include "strenc/ascii7.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace qsmt::smtlib {

namespace {

/// The one stage order of both conjunction solves. With a `context`:
/// witness reuse first, blocks from its fragment cache, and a warm refine
/// from its witness between the presolve and the cold sampler.
ConjunctionResult solve_stages(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    SolveContext* context, const strqubo::WitnessFilter& accept) {
  ConjunctionResult result;
  telemetry::Span span("smtlib.solve_conjunction");
  span.arg("num_constraints", static_cast<double>(constraints.size()));
  if (constraints.empty()) {
    result.solved = !accept || accept(std::string());
    if (!result.solved) result.note = "empty witness rejected by filter";
    return result;
  }
  result.note = strqubo::conjunction_refusal(constraints);
  if (result.note.empty() && !strqubo::produces_string(constraints.front())) {
    result.note = "an includes-style atom has no string model";
  }
  if (!result.note.empty()) return result;
  const auto solved = [&](std::string value) {
    result.solved = true;
    result.value = std::move(value);
    if (context != nullptr) context->note_witness(result.value);
    static const auto count = telemetry::counter("smtlib.conjunction.solved");
    count.add();
    return result;
  };

  // Witness reuse: the previous witness still satisfies everything — a
  // re-check after an assumption retraction or a pop costs one classical
  // verification, no QUBO and no sampling at all.
  const std::string* previous =
      context != nullptr ? context->last_witness() : nullptr;
  if (previous != nullptr &&
      strenc::num_variables(previous->size()) ==
          strqubo::constraint_num_variables(constraints.front()) &&
      strqubo::verify_conjunction(constraints, *previous, accept)) {
    context->tallies().witness_reuses.add();
    return solved(*previous);  // No model was assembled.
  }

  const strqubo::PreparedConstraint prepared = strqubo::prepare(
      constraints, options,
      context != nullptr ? &context->fragments() : nullptr);
  result.num_qubo_variables = prepared.model.num_variables();
  static const auto variables = telemetry::gauge("smtlib.qubo_variables");
  variables.set(static_cast<double>(result.num_qubo_variables));
  if (const auto presolved = strqubo::presolve(prepared, accept);
      presolved && presolved->satisfied) {
    return solved(*presolved->text);
  }
  if (previous != nullptr) {
    // The n-th warm start of a context draws seed mix_seed(0, n).
    SolveContext::Tallies& tallies = context->tallies();
    if (const auto refined = strqubo::warm_refine(
            prepared, *previous, mix_seed(0, tallies.warm_starts.value() + 1),
            accept)) {
      tallies.warm_starts.add();
      if (refined->satisfied) {
        tallies.warm_hits.add();
        return solved(*refined->text);
      }
    }
  }

  // Cold: the caller's full-budget sampler.
  if (context != nullptr) context->tallies().cold_starts.add();
  const anneal::SampleSet samples = strqubo::sample(sampler, prepared);
  if (samples.empty()) {
    result.note = "sampler returned no samples";
    return result;
  }
  telemetry::Span verify_span("smtlib.verify");
  const strqubo::SolveResult verdict =
      strqubo::decode_and_verify(constraints, samples, accept);
  verify_span.close();
  if (verdict.satisfied) return solved(*verdict.text);
  result.note = "no sample satisfied every conjunct";
  static const auto unsolved =
      telemetry::counter("smtlib.conjunction.unsolved");
  unsolved.add();
  return result;
}

}  // namespace

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

SolveContext::SolveContext(std::shared_ptr<FragmentCache> fragments)
    : fragments_(fragments ? std::move(fragments)
                           : std::make_shared<FragmentCache>()) {}

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

IncrementalStats SolveContext::stats() const noexcept {
  IncrementalStats stats;
  stats.witness_reuses = tallies_.witness_reuses.value();
  stats.warm_starts = tallies_.warm_starts.value();
  stats.warm_hits = tallies_.warm_hits.value();
  stats.cold_starts = tallies_.cold_starts.value();
  stats.clauses_retained = tallies_.clauses_retained.value();
  return stats;
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
    const strqubo::WitnessFilter& accept) {
  return solve_stages(constraints, sampler, options, nullptr, accept);
}

ConjunctionResult solve_conjunction_incremental(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    SolveContext& context, const strqubo::WitnessFilter& accept) {
  return solve_stages(constraints, sampler, options, &context, accept);
}

}  // namespace qsmt::smtlib
