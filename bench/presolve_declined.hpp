// Presolve-declined traffic for the benches whose gates need jobs that
// reach the samplers: which ladder rung decides (quantum_bench) and answer
// caching against a cold solve (answer_cache_bench).
//
// The exact component presolve (anneal::presolve) decides separable and
// small-component models without sampling, so on such traffic a cold solve
// costs microseconds and the mechanism has nothing left to win. These
// families keep a connected component over kMaxPresolveComponent
// variables — not-contains windows, bounded-length selectors, and the
// position one-hot of an includes over a long text — so every gated job
// still reaches the samplers. Each bench fails if one was presolved.
#pragma once

#include <cstddef>
#include <string>

#include "service/service.hpp"
#include "strqubo/constraint.hpp"
#include "util/rng.hpp"

namespace qsmt::bench {

inline std::string letters(Xoshiro256& rng, std::size_t min_len,
                           std::size_t max_len) {
  std::string word(min_len + rng.below(max_len - min_len + 1), 'a');
  for (char& c : word) c = static_cast<char>('a' + rng.below(5));
  return word;
}

/// One draw from presolve-declined family `kind` (taken mod 3).
inline strqubo::Constraint declined_case(std::size_t kind, Xoshiro256& rng) {
  switch (kind % 3) {
    case 0: {
      const std::size_t length = 3 + rng.below(3);
      return strqubo::NotContains{length, letters(rng, 2, 3)};
    }
    case 1: {
      static const strqubo::BoundedLength kBuffers[] = {
          {3, 0, 2}, {3, 1, 3}, {5, 1, 4}, {5, 2, 5}};
      return kBuffers[rng.below(4)];
    }
    default:
      return strqubo::Includes{letters(rng, 14, 20), letters(rng, 1, 2)};
  }
}

/// True when the exact presolve, not a sampler, decided the job.
inline bool presolved(const service::JobResult& result) {
  return result.winner == "presolve";
}

}  // namespace qsmt::bench
