#pragma once
// Grid search baseline. The paper's introduction singles out grid search
// as the traditional technique that "yields poor results in terms of
// performance and training time" — this proposer makes that comparison
// runnable. The grid enumerates a fixed number of levels per dimension in
// lexicographic order (the standard practice the paper argues against);
// HyperPower's enhancements still apply through the Study.

#include <string>
#include <vector>

#include "core/proposer.hpp"

namespace hp::core {

/// Grid-search options.
struct GridSearchOptions {
  /// Levels per dimension; the grid has levels^D points (visited
  /// lexicographically). Integer parameters with fewer distinct values
  /// than levels simply repeat, which mirrors naive gridding practice.
  std::size_t levels_per_dimension = 3;
};

/// Exhaustive lexicographic grid enumeration. The cursor is sequential
/// state, so grid search is a non-parallel proposer: batched rounds are
/// produced up front on the driver thread (which also makes journal
/// replay re-advance the cursor correctly).
class GridSearchProposer final : public Proposer {
 public:
  /// Throws std::invalid_argument on fewer than 2 levels per dimension.
  GridSearchProposer(const HyperParameterSpace& space,
                     GridSearchOptions grid_options = {});

  [[nodiscard]] std::string name() const override { return "Grid"; }
  [[nodiscard]] Configuration propose(stats::Rng& rng) override;
  [[nodiscard]] bool supports_parallel_proposals() const override {
    return false;
  }
  [[nodiscard]] double proposal_overhead_s() const override { return 0.1; }
  /// True once the final grid point has been proposed; the study stops
  /// the run (and truncates a final short batch to the remaining points)
  /// instead of repeating points.
  [[nodiscard]] bool exhausted() const override { return visited_all_; }

  /// Total number of grid points.
  [[nodiscard]] std::size_t grid_size() const noexcept;

 private:
  GridSearchOptions grid_options_;
  std::vector<std::size_t> cursor_;  ///< per-dimension level index
  bool visited_all_ = false;
};

}  // namespace hp::core
