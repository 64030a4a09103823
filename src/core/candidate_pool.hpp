#pragma once
// Acquisition maximization over a candidate pool. Spearmint evaluates the
// acquisition on a dense grid plus random points and picks the argmax; we
// use a scrambled-Halton lattice (space-filling) plus uniform random
// candidates, regenerated each iteration.

#include <cstdint>
#include <vector>

#include "core/acquisition.hpp"
#include "core/search_space.hpp"
#include "stats/rng.hpp"

namespace hp::parallel {
class ThreadPool;
}  // namespace hp::parallel

namespace hp::core {

/// Pool generation options.
struct CandidatePoolOptions {
  std::size_t lattice_points = 600;  ///< Halton lattice size
  std::size_t random_points = 400;   ///< fresh uniform candidates per call
  std::uint64_t lattice_seed = 99;
  /// Candidates handed to AcquisitionFunction::score_block per call. Purely
  /// a performance knob (cache-sized chunks); any value >= 1 produces
  /// identical results.
  std::size_t score_block_size = 128;
};

/// Generates candidate unit-cube points for acquisition maximization.
class CandidatePool {
 public:
  CandidatePool(const HyperParameterSpace& space,
                CandidatePoolOptions options = {});

  /// The fixed lattice part (generated once).
  [[nodiscard]] const std::vector<std::vector<double>>& lattice() const noexcept {
    return lattice_;
  }

  /// Result of one acquisition maximization.
  struct Maximizer {
    std::vector<double> unit;
    Configuration config;
    double score = 0.0;
    std::size_t evaluated = 0;  ///< candidates scored
  };

  /// Scores lattice + fresh random candidates under @p acquisition and
  /// returns the best. If every candidate scores zero (e.g. the entire
  /// pool is predicted-infeasible under HW-IECI), returns the
  /// highest-feasibility random candidate instead, so the optimizer always
  /// has a next point.
  ///
  /// Every random candidate is drawn from @p rng first. Candidates are then
  /// decoded and scored through AcquisitionFunction::score_block in blocks
  /// of options.score_block_size, each block with its own round-scoped
  /// scratch. With @p workers (an idle pool), the blocks fan out over its
  /// workers and the calling thread; without, they run in order on the
  /// calling thread. Either way the selection replays the candidates
  /// strictly in order: lattice first, then random candidates in generation
  /// order. Equal scores break toward the LOWEST candidate index — a pinned
  /// tie-breaking contract (see tests/core/acquisition_test.cpp) that keeps
  /// traces reproducible across the scalar and blocked scoring paths — so
  /// the result is bit-identical at any worker count.
  ///
  /// Non-const: reuses internal scratch buffers across rounds. Results are
  /// independent of any prior call.
  [[nodiscard]] Maximizer maximize(const AcquisitionFunction& acquisition,
                                   const AcquisitionContext& ctx,
                                   stats::Rng& rng,
                                   parallel::ThreadPool* workers = nullptr);

 private:
  const HyperParameterSpace& space_;
  CandidatePoolOptions options_;
  std::vector<std::vector<double>> lattice_;

  // Round-scoped buffers reused across maximize() calls: fresh random
  // units, decoded configurations (lattice + random), per-candidate scores,
  // and one GP-prediction scratch per block. Sized once per round; inner
  // vectors keep their capacity between rounds.
  std::vector<std::vector<double>> random_units_;
  std::vector<Configuration> configs_;
  std::vector<double> scores_;
  std::vector<AcquisitionScratch> scratch_;
};

}  // namespace hp::core
