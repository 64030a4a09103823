#include "core/grid_search.hpp"

#include <stdexcept>

namespace hp::core {

GridSearchProposer::GridSearchProposer(const HyperParameterSpace& space,
                                       GridSearchOptions grid_options)
    : Proposer(space), grid_options_(grid_options) {
  if (grid_options_.levels_per_dimension < 2) {
    throw std::invalid_argument(
        "GridSearchProposer: need >= 2 levels per dimension");
  }
}

std::size_t GridSearchProposer::grid_size() const noexcept {
  std::size_t total = 1;
  for (std::size_t d = 0; d < space().dimension(); ++d) {
    total *= grid_options_.levels_per_dimension;
  }
  return total;
}

Configuration GridSearchProposer::point(std::size_t index) const {
  const std::size_t levels = grid_options_.levels_per_dimension;
  std::vector<double> unit(space().dimension());
  for (std::size_t d = unit.size(); d-- > 0;) {
    // Level centers: (i + 0.5) / levels, covering the box evenly.
    unit[d] = (static_cast<double>(index % levels) + 0.5) /
              static_cast<double>(levels);
    index /= levels;
  }
  return space().decode(unit);
}

Configuration GridSearchProposer::propose(stats::Rng& rng) {
  (void)rng;  // grid search is fully deterministic
  return point(observed_ % grid_size());
}

std::vector<Configuration> GridSearchProposer::propose_batch(
    std::size_t first_sample_index, std::size_t count) {
  std::vector<Configuration> points;
  for (std::size_t i = first_sample_index;
       i < grid_size() && i - first_sample_index < count; ++i) {
    points.push_back(point(i));
  }
  return points;
}

RecordedKernelFit GridSearchProposer::observe(const EvaluationRecord& record) {
  (void)record;
  ++observed_;
  return {};
}

}  // namespace hp::core
