// Incremental solving substrate: compiled-fragment reuse, witness memory,
// retained theory lemmas, and warm-started re-annealing.
//
// The paper's workload is chains of near-identical queries (each §5
// benchmark is solved as a sequence of mutated instances), and the server
// exposes push/pop sessions, so repeated check-sats should cost a delta:
//
//  * FragmentCache (strqubo/solver.hpp) — a thread-safe LRU mapping each
//    assertion's constraint to its built QUBO block. An N-assertion
//    re-solve with one mutated constraint rebuilds ONE block; the others
//    are re-linked at their offsets during the merge.
//  * SolveContext — per-session state an SmtDriver keeps across check-sats,
//    keyed to the push/pop stack: a (pop) invalidates only the witnesses
//    and lemmas recorded in the frames it removes. Holds the last verified
//    witness (warm-start seed), the retained exact theory lemmas
//    (ClauseMemory), and the context's incremental.* counters.
//  * solve_conjunction_incremental — the hot re-solve: try the remembered
//    witness outright, then the shared solve stages (strqubo/solver.hpp)
//    with the warm refine seeded from it. Every answer is classically
//    verified, so the shortcuts can never change a verdict, only reach it
//    faster.
//
// Invalidation rules and warm-start semantics: docs/incremental.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anneal/sampler.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/solver.hpp"
#include "telemetry/telemetry.hpp"

namespace qsmt::smtlib {

using strqubo::FragmentCache;
using strqubo::fragment_key;

/// One retained theory lemma: a clause over (printed atom, polarity)
/// pairs, valid in any solve whose atom set contains every one of them.
/// Only *exact* conflicts (ground-fact refutations) are remembered —
/// heuristic blocks (the annealer merely gave up) are not sound lemmas.
struct TheoryLemma {
  /// Push/pop depth at which the lemma was learned; a pop below this
  /// depth drops it (conservative: the lemma may mention assumption
  /// atoms that only exist in the popped frames).
  std::size_t depth = 0;
  /// (printed atom form, polarity): true = the atom appears positively.
  std::vector<std::pair<std::string, bool>> literals;
};

/// Learned-lemma store carried across DPLL(T) calls by a SolveContext.
class ClauseMemory {
 public:
  void remember(std::size_t depth,
                std::vector<std::pair<std::string, bool>> literals);

  /// Drops every lemma learned at a depth greater than `depth` (the
  /// frames a pop removes).
  void drop_deeper_than(std::size_t depth);

  void clear() { lemmas_.clear(); }
  std::size_t size() const noexcept { return lemmas_.size(); }
  const std::vector<TheoryLemma>& lemmas() const noexcept { return lemmas_; }

 private:
  std::vector<TheoryLemma> lemmas_;
};

/// One context's incremental.* counts (SolveContext::stats()), kept with
/// telemetry off too, so tests and benches can assert cache behaviour.
struct IncrementalStats {
  std::uint64_t witness_reuses = 0;   ///< Old witness still verified.
  std::uint64_t warm_starts = 0;      ///< Reverse-anneal passes attempted.
  std::uint64_t warm_hits = 0;        ///< ... that produced the verdict.
  std::uint64_t cold_starts = 0;      ///< Full-budget sampler passes.
  std::uint64_t clauses_retained = 0; ///< Lemmas re-added to a later solve.
};

/// Per-session incremental state, keyed to the push/pop stack.
class SolveContext {
 public:
  /// `fragments` shares a compiled-fragment cache across contexts; by
  /// default the context owns a private one.
  explicit SolveContext(std::shared_ptr<FragmentCache> fragments = nullptr);

  FragmentCache& fragments() noexcept { return *fragments_; }
  const std::shared_ptr<FragmentCache>& shared_fragments() const noexcept {
    return fragments_;
  }

  /// Push/pop bookkeeping (mirrors the driver's frame stack).
  void push(std::size_t levels) { depth_ += levels; }
  void pop(std::size_t levels);
  std::size_t depth() const noexcept { return depth_; }

  /// Records a verified witness at the current depth; it seeds witness
  /// reuse and warm starts until a pop drops its frame.
  void note_witness(std::string value);
  /// Deepest surviving witness, if any.
  const std::string* last_witness() const;

  ClauseMemory& clause_memory() noexcept { return clauses_; }

  /// Full reset — the (reset) command and tests.
  void clear();

  /// Each fact the stats report, counted once into both.
  struct Tallies {
    telemetry::Tally witness_reuses{"incremental.witness.reuse"};
    telemetry::Tally warm_starts{"incremental.warm.starts"};
    telemetry::Tally warm_hits{"incremental.warm.hits"};
    telemetry::Tally cold_starts{"incremental.cold.starts"};
    telemetry::Tally clauses_retained{"incremental.clauses.retained"};
  };
  Tallies& tallies() noexcept { return tallies_; }
  IncrementalStats stats() const noexcept;

 private:
  std::shared_ptr<FragmentCache> fragments_;
  std::size_t depth_ = 0;
  /// (depth, witness), shallowest first; pops truncate from the back.
  std::vector<std::pair<std::size_t, std::string>> witnesses_;
  ClauseMemory clauses_;
  Tallies tallies_;
};

/// Result of a conjunction solve (cold or incremental). Declared here —
/// driver.hpp re-exports it — so the incremental layer has no dependency
/// on the driver.
struct ConjunctionResult {
  bool solved = false;      ///< A sample satisfying all conjuncts was found.
  std::string value;        ///< The witness when solved.
  std::string note;         ///< Why not, otherwise.
  std::size_t num_qubo_variables = 0;
};

/// Cold-path conjunction solve: the shared stages (prepare, presolve,
/// sample with `sampler`, verify) over the merged conjunction, returning
/// the lowest-energy sample whose decoding classically verifies every
/// conjunct (and `accept`, when given).
ConjunctionResult solve_conjunction(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    const strqubo::WitnessFilter& accept = {});

/// Incremental conjunction solve: the previous witness is tried outright;
/// otherwise the same stages run with per-assertion blocks from the
/// context's FragmentCache (one rebuilt block on a single-constraint
/// mutation) and a warm refine seeded from the previous witness between
/// the presolve and the cold sampler. Verified-sat witnesses are recorded
/// back into the context.
ConjunctionResult solve_conjunction_incremental(
    const std::vector<strqubo::Constraint>& constraints,
    const anneal::Sampler& sampler, const strqubo::BuildOptions& options,
    SolveContext& context, const strqubo::WitnessFilter& accept = {});

}  // namespace qsmt::smtlib
