// Reverse annealing: iterative refinement from a known starting state.
//
// D-Wave hardware supports "reverse anneal": start from a classical state,
// partially re-heat (lower β / raise the transverse field), then re-cool.
// The classical analogue implemented here seeds every read with a given
// initial assignment, runs a β schedule that dips from cold down to
// β_cold * reheat_fraction and back (a V-shaped schedule), and returns the
// refined samples. Used for local refinement around a good-but-imperfect
// solution — e.g. polishing the output of a previous solver stage.
//
// The reads run one after another on the calling thread. sample() keeps
// all of them; sample_until() hands each finished read to the caller and
// stops at the first one the caller accepts, so a caller that can check a
// read on its own (the warm refine stage) pays only for the reads it needs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "anneal/sampler.hpp"
#include "anneal/schedule.hpp"

namespace qsmt::anneal {

struct ReverseAnnealerParams {
  std::size_t num_reads = 32;
  std::size_t num_sweeps = 256;  ///< Total sweeps across the V schedule.
  /// How far to re-heat: β dips to reheat_fraction * β_cold (0 = full
  /// re-randomisation, 1 = no reheat). Typical: 0.1–0.5.
  double reheat_fraction = 0.25;
  std::uint64_t seed = 0;
  bool polish_with_greedy = true;
};

class ReverseAnnealer final : public Sampler {
 public:
  /// `initial_state` seeds every read; its size must match the sampled
  /// model's variable count.
  ReverseAnnealer(std::vector<std::uint8_t> initial_state,
                  ReverseAnnealerParams params);

  SampleSet sample(const qubo::QuboModel& model) const override;
  SampleSet sample(const qubo::QuboAdjacency& adjacency) const override;

  /// Sees one finished read: its (polished) bits, valid only for the
  /// call, and their energy. Returns true to stop after this read.
  using ReadVisitor =
      std::function<bool(std::span<const std::uint8_t> bits, double energy)>;

  /// Runs reads 0, 1, ... in order, exactly the reads sample() runs, and
  /// hands each to `visit` as it finishes; read r runs only when `visit`
  /// returned false for reads 0..r-1. Returns the number of reads run.
  std::size_t sample_until(const qubo::QuboAdjacency& adjacency,
                           const ReadVisitor& visit) const;

  std::string name() const override { return "reverse-annealing"; }
  bool supports_adjacency_sampling() const noexcept override { return true; }

 private:
  std::vector<std::uint8_t> initial_state_;
  ReverseAnnealerParams params_;
};

/// The V-shaped β schedule reverse annealing uses: cold → dip → cold,
/// geometric in both legs. Exposed for tests.
std::vector<double> make_reverse_schedule(double beta_cold, double dip_beta,
                                          std::size_t num_sweeps);

}  // namespace qsmt::anneal
