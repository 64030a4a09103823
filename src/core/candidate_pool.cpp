#include "core/candidate_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "stats/halton.hpp"

namespace hp::core {

namespace {

/// Candidates handed to AcquisitionFunction::score_block per call:
/// cache-sized chunks, and enough blocks to spread over a pool. A
/// candidate's score does not depend on its block, so any size gives the
/// same bits.
constexpr std::size_t kBlockSize = 32;
/// Scrambles the Halton lattice; every pool of a space has the same one.
constexpr std::uint64_t kLatticeSeed = 99;

std::size_t blocks_of(std::size_t count) {
  return (count + kBlockSize - 1) / kBlockSize;
}

}  // namespace

CandidatePool::CandidatePool(const HyperParameterSpace& space,
                             CandidatePoolOptions options)
    : space_(space), options_(options) {
  if (options_.lattice_points + options_.random_points == 0) {
    throw std::invalid_argument("CandidatePool: empty pool");
  }
  if (options_.lattice_points > 0) {
    stats::HaltonSequence halton(space_.dimension(), kLatticeSeed);
    lattice_ = halton.take(options_.lattice_points);
  }
  // The lattice never changes, so its configurations are decoded here once;
  // maximize() decodes only the fresh random candidates behind them.
  configs_.reserve(lattice_.size() + options_.random_points);
  for (const std::vector<double>& unit : lattice_) {
    configs_.push_back(space_.decode(unit));
  }
  configs_.resize(lattice_.size() + options_.random_points);
  random_units_.assign(options_.random_points,
                       std::vector<double>(space_.dimension()));
  scores_.resize(configs_.size());
  lattice_blocks_ = blocks_of(lattice_.size());
  scratch_.resize(lattice_blocks_ + blocks_of(options_.random_points));
}

CandidatePool::Maximizer CandidatePool::maximize(
    const AcquisitionFunction& acquisition, const AcquisitionContext& ctx,
    stats::Rng& rng, parallel::ThreadPool* workers) {
  const std::size_t num_lattice = lattice_.size();
  const std::size_t total = configs_.size();

  // Task 0 draws the random candidates block by block, in the historical
  // order; scoring consumes no RNG, so the draw sequence (and every trace)
  // is unchanged. After each block it publishes, with release order, how
  // many blocks are drawn, so random block r starts as soon as its own
  // candidates exist. When the draw throws it publishes kDrawFailed, so no
  // random block waits forever; parallel_for then rethrows the draw's
  // exception, index 0 being the lowest.
  constexpr std::size_t kDrawFailed = std::numeric_limits<std::size_t>::max();
  const std::size_t random_blocks = scratch_.size() - lattice_blocks_;
  std::atomic<std::size_t> drawn{0};
  const auto publish_draw = [&](std::size_t blocks) {
    drawn.store(blocks, std::memory_order_release);
    drawn.notify_all();
  };
  const auto draw = [&] {
    try {
      for (std::size_t r = 0; r < random_blocks; ++r) {
        const std::size_t end =
            std::min(random_units_.size(), (r + 1) * kBlockSize);
        for (std::size_t i = r * kBlockSize; i < end; ++i) {
          for (double& u : random_units_[i]) u = rng.uniform();
        }
        publish_draw(r + 1);
      }
    } catch (...) {
      publish_draw(kDrawFailed);
      throw;
    }
  };

  // Tasks 1.. score one block each: lattice blocks first, then random ones.
  // A block writes only its own configs_/scores_ slots and uses its own
  // scratch, so blocks may run in any order on any thread; a candidate's
  // score does not depend on its block (the score_block contract), so
  // neither do the scores nor the in-order selection below. parallel_for
  // hands out indices in ascending order, so whenever a random block waits,
  // the draw is already running on some thread.
  const auto run_task = [&](std::size_t task) {
    if (task == 0) {
      draw();
      return;
    }
    const std::size_t b = task - 1;
    const bool lattice = b < lattice_blocks_;
    const std::vector<std::vector<double>>& units =
        lattice ? lattice_ : random_units_;
    const std::size_t begin = (lattice ? b : b - lattice_blocks_) * kBlockSize;
    const std::size_t count = std::min(kBlockSize, units.size() - begin);
    const std::size_t offset = (lattice ? 0 : num_lattice) + begin;
    if (!lattice) {
      const std::size_t r = b - lattice_blocks_;
      std::size_t seen = drawn.load(std::memory_order_acquire);
      while (seen <= r) {
        drawn.wait(seen, std::memory_order_acquire);
        seen = drawn.load(std::memory_order_acquire);
      }
      if (seen == kDrawFailed) return;
      for (std::size_t i = 0; i < count; ++i) {
        space_.decode_into(units[begin + i], configs_[offset + i]);
      }
    }
    acquisition.score_block(
        std::span<const std::vector<double>>(units).subspan(begin, count),
        std::span<const Configuration>(configs_).subspan(offset, count), ctx,
        scratch_[b], std::span<double>(scores_).subspan(offset, count));
  };
  const std::size_t num_tasks = 1 + scratch_.size();
  if (workers != nullptr) {
    workers->parallel_for(num_tasks, run_task);
  } else {
    for (std::size_t task = 0; task < num_tasks; ++task) run_task(task);
  }

  // Selection replays candidates strictly in index order with the exact
  // historical state machine. Strict > means equal scores keep the earlier
  // candidate: the lowest-index tie-break pinned by the maximize() contract.
  double best_score = -1.0;
  std::size_t best = 0;
  std::optional<std::size_t> fallback;  // most probably feasible zero-scorer
  double fallback_prob = -1.0;
  for (std::size_t i = 0; i < total; ++i) {
    const double score = scores_[i];
    if (score > best_score) {
      best_score = score;
      best = i;
      continue;
    }
    if (best_score <= 0.0 && ctx.constraints != nullptr) {
      // Track a constraint-respecting fallback in case nothing scores > 0.
      // (Kept operation-for-operation equal to the pre-blocked scalar loop:
      // a candidate that *raises* the best score to 0 is deliberately not
      // considered as a fallback, exactly as before.)
      // Scoring is over, so any block's z buffer is free.
      std::vector<double>& z = scratch_.front().z;
      ctx.space.structural_into(configs_[i], z);
      const double prob = ctx.constraints->feasibility_probability(z);
      if (prob > fallback_prob) {
        fallback_prob = prob;
        fallback = i;
      }
    }
  }

  const auto unit_of = [&](std::size_t i) -> const std::vector<double>& {
    return i < num_lattice ? lattice_[i] : random_units_[i - num_lattice];
  };
  Maximizer result;
  result.evaluated = total;
  if (best_score > 0.0 || fallback.has_value()) {
    const std::size_t chosen = best_score > 0.0 ? best : *fallback;
    result.unit = unit_of(chosen);
    result.config = configs_[chosen];
    result.score = best_score > 0.0 ? best_score : 0.0;
    return result;
  }
  // Every candidate scored zero and no constraint-based fallback exists
  // (e.g. early default-mode iterations where the surrogate sees no
  // improvement anywhere): explore with a fresh random point rather than
  // deterministically re-proposing the first lattice point.
  result.unit.resize(space_.dimension());
  for (double& u : result.unit) u = rng.uniform();
  result.config = space_.decode(result.unit);
  result.evaluated += 1;
  return result;
}

}  // namespace hp::core
