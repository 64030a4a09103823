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

/// Exhaustive lexicographic grid enumeration. Sample i gets grid point i,
/// so the proposer keeps no cursor: its only state is how many records it
/// has observed. Points come from the sample index rather than
/// the sample's stream, so the grid overrides propose_batch.
class GridSearchProposer final : public Proposer {
 public:
  /// Throws std::invalid_argument on fewer than 2 levels per dimension.
  GridSearchProposer(const HyperParameterSpace& space,
                     GridSearchOptions grid_options = {});

  [[nodiscard]] std::string name() const override { return "Grid"; }
  /// Sequential mode: the point after the records observed so far (past
  /// the last point the grid wraps around; the study stops first).
  [[nodiscard]] Configuration propose(stats::Rng& rng) override;
  /// Points first_sample_index, first_sample_index + 1, ..., stopping at
  /// grid_size(): the study truncates a final short round instead of
  /// repeating points.
  [[nodiscard]] std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count) override;
  RecordedKernelFit observe(const EvaluationRecord& record) override;
  [[nodiscard]] double proposal_overhead_s() const override { return 0.1; }
  /// True once the final grid point has been observed; the study stops
  /// the run.
  [[nodiscard]] bool exhausted() const override {
    return observed_ >= grid_size();
  }

  /// Total number of grid points.
  [[nodiscard]] std::size_t grid_size() const noexcept;

 private:
  /// Grid point @p index in lexicographic order (the last dimension
  /// varies fastest).
  [[nodiscard]] Configuration point(std::size_t index) const;

  GridSearchOptions grid_options_;
  std::size_t observed_ = 0;  ///< records observed
};

}  // namespace hp::core
