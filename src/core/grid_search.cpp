#include "core/grid_search.hpp"

#include <stdexcept>

namespace hp::core {

GridSearchProposer::GridSearchProposer(const HyperParameterSpace& space,
                                       GridSearchOptions grid_options)
    : Proposer(space),
      grid_options_(grid_options),
      cursor_(space.dimension(), 0) {
  if (grid_options_.levels_per_dimension < 2) {
    throw std::invalid_argument(
        "GridSearchProposer: need >= 2 levels per dimension");
  }
}

std::size_t GridSearchProposer::grid_size() const noexcept {
  std::size_t total = 1;
  for (std::size_t d = 0; d < cursor_.size(); ++d) {
    total *= grid_options_.levels_per_dimension;
  }
  return total;
}

Configuration GridSearchProposer::propose(stats::Rng& rng) {
  (void)rng;  // grid search is fully deterministic
  const std::size_t levels = grid_options_.levels_per_dimension;
  std::vector<double> unit(cursor_.size());
  for (std::size_t d = 0; d < cursor_.size(); ++d) {
    // Level centers: (i + 0.5) / levels, covering the box evenly.
    unit[d] = (static_cast<double>(cursor_[d]) + 0.5) /
              static_cast<double>(levels);
  }
  // Advance the lexicographic cursor. Past the last point it wraps to the
  // start, and exhausted() stops the study from asking again.
  for (std::size_t d = cursor_.size(); d-- > 0;) {
    if (++cursor_[d] < levels) break;
    cursor_[d] = 0;
    if (d == 0) visited_all_ = true;
  }
  return space().decode(unit);
}

}  // namespace hp::core
