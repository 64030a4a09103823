#include "core/candidate_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "stats/halton.hpp"

namespace hp::core {

CandidatePool::CandidatePool(const HyperParameterSpace& space,
                             CandidatePoolOptions options)
    : space_(space), options_(options) {
  if (options_.lattice_points + options_.random_points == 0) {
    throw std::invalid_argument("CandidatePool: empty pool");
  }
  if (options_.score_block_size == 0) {
    throw std::invalid_argument("CandidatePool: score_block_size must be >= 1");
  }
  if (options_.lattice_points > 0) {
    stats::HaltonSequence halton(space_.dimension(), options_.lattice_seed);
    lattice_ = halton.take(options_.lattice_points);
  }
}

CandidatePool::Maximizer CandidatePool::maximize(
    const AcquisitionFunction& acquisition, const AcquisitionContext& ctx,
    stats::Rng& rng, parallel::ThreadPool* workers) {
  const std::size_t num_lattice = lattice_.size();
  const std::size_t total = num_lattice + options_.random_points;

  // Draw every random candidate up front. The historical scalar path
  // interleaved the draws with scoring, but scoring consumes no RNG, so the
  // draw sequence — and therefore every trace — is unchanged.
  random_units_.resize(options_.random_points);
  for (auto& unit : random_units_) {
    unit.resize(space_.dimension());
    for (double& u : unit) u = rng.uniform();
  }

  // Decode and score block by block through the batched acquisition path:
  // lattice blocks first, then random ones. A block writes only its own
  // configs_/scores_ slots and uses its own scratch, so blocks may run in
  // any order on any thread; a candidate's score does not depend on its
  // block (the score_block contract), so neither do the scores nor the
  // in-order selection below.
  const std::size_t block_size = options_.score_block_size;
  const std::size_t lattice_blocks =
      (num_lattice + block_size - 1) / block_size;
  const std::size_t num_blocks =
      lattice_blocks + (options_.random_points + block_size - 1) / block_size;
  configs_.resize(total);
  scores_.resize(total);
  scratch_.resize(num_blocks);
  const auto score_block = [&](std::size_t b) {
    const bool lattice = b < lattice_blocks;
    const std::vector<std::vector<double>>& units =
        lattice ? lattice_ : random_units_;
    const std::size_t begin = (lattice ? b : b - lattice_blocks) * block_size;
    const std::size_t count = std::min(block_size, units.size() - begin);
    const std::size_t offset = (lattice ? 0 : num_lattice) + begin;
    for (std::size_t i = 0; i < count; ++i) {
      configs_[offset + i] = space_.decode(units[begin + i]);
    }
    acquisition.score_block(
        std::span<const std::vector<double>>(units).subspan(begin, count),
        std::span<const Configuration>(configs_).subspan(offset, count), ctx,
        scratch_[b], std::span<double>(scores_).subspan(offset, count));
  };
  if (workers != nullptr) {
    workers->parallel_for(num_blocks, score_block);
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) score_block(b);
  }

  // Selection replays candidates strictly in index order with the exact
  // historical state machine. Strict > means equal scores keep the earlier
  // candidate: the lowest-index tie-break pinned by the maximize() contract.
  Maximizer best;
  best.score = -1.0;
  Maximizer fallback;  // highest feasibility probability among zero-scorers
  double fallback_prob = -1.0;
  for (std::size_t i = 0; i < total; ++i) {
    const std::vector<double>& unit =
        i < num_lattice ? lattice_[i] : random_units_[i - num_lattice];
    const double score = scores_[i];
    ++best.evaluated;
    if (score > best.score) {
      best.score = score;
      best.unit = unit;
      best.config = configs_[i];
      continue;
    }
    if (best.score <= 0.0 && ctx.constraints != nullptr) {
      // Track a constraint-respecting fallback in case nothing scores > 0.
      // (Kept operation-for-operation equal to the pre-blocked scalar loop:
      // a candidate that *raises* best.score to 0 is deliberately not
      // considered as a fallback, exactly as before.)
      const std::vector<double> z = ctx.space.structural_vector(configs_[i]);
      const double prob = ctx.constraints->feasibility_probability(z);
      if (prob > fallback_prob) {
        fallback_prob = prob;
        fallback.unit = unit;
        fallback.config = configs_[i];
      }
    }
  }

  if (best.score <= 0.0 && !fallback.unit.empty()) {
    fallback.score = 0.0;
    fallback.evaluated = best.evaluated;
    return fallback;
  }
  if (best.score <= 0.0) {
    // Every candidate scored zero and no constraint-based fallback exists
    // (e.g. early default-mode iterations where the surrogate sees no
    // improvement anywhere): explore with a fresh random point rather than
    // deterministically re-proposing the first lattice point.
    std::vector<double> unit(space_.dimension());
    for (double& u : unit) u = rng.uniform();
    best.unit = unit;
    best.config = space_.decode(unit);
    best.score = 0.0;
    best.evaluated += 1;
  }
  return best;
}

}  // namespace hp::core
