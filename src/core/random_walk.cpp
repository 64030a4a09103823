#include "core/random_walk.hpp"

#include <stdexcept>

namespace hp::core {

RandomWalkProposer::RandomWalkProposer(const HyperParameterSpace& space,
                                       RandomWalkOptions walk_options)
    : Proposer(space), walk_options_(walk_options) {
  if (walk_options_.sigma0 <= 0.0) {
    throw std::invalid_argument("RandomWalkProposer: sigma0 must be > 0");
  }
}

Configuration RandomWalkProposer::propose(stats::Rng& rng) {
  if (!incumbent()) return space().sample(rng);
  return space().neighbor(incumbent()->config, walk_options_.sigma0, rng);
}

}  // namespace hp::core
