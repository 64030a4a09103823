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
  /// When true the cursor wraps past the last grid point and re-proposes
  /// from the start, so a large budget revisits points (historic
  /// behavior). When false (the default) the strategy reports exhausted()
  /// after its last point and the study stops the run — a final short
  /// batch is truncated to the remaining points, never padded with
  /// wrapped-around repeats.
  bool wrap_around = false;
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
  /// Without wrap-around, true once the final grid point has been
  /// proposed; the study stops the run (and truncates a partial batch)
  /// instead of repeating points. Always false with wrap-around.
  [[nodiscard]] bool exhausted() const override {
    return !grid_options_.wrap_around && visited_all_;
  }

  /// Total number of grid points.
  [[nodiscard]] std::size_t grid_size() const noexcept;
  /// True once every grid point has been proposed at least once
  /// (regardless of the wrap-around policy).
  [[nodiscard]] bool visited_all() const noexcept { return visited_all_; }

 private:
  GridSearchOptions grid_options_;
  std::vector<std::size_t> cursor_;  ///< per-dimension level index
  bool visited_all_ = false;
};

}  // namespace hp::core
