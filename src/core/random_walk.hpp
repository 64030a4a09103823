#pragma once
// Rand-Walk (Section 3.5): the next point is drawn from a Gaussian
// neighbourhood of the incumbent, x_{n+1} ~ N(x+, sigma_0^2), trading
// exploration for exploitation [Smithson et al. 2016]. The paper highlights
// that performance is sensitive to the choice of sigma_0 — exposed here as
// an option (and swept by the ablation bench).

#include <string>

#include "core/proposer.hpp"

namespace hp::core {

/// Random-walk options.
struct RandomWalkOptions {
  /// Proposal spread in unit-cube coordinates.
  double sigma0 = 0.1;
};

/// Gaussian random walk around the best point observed so far (read from
/// the study's incumbent through the run context); uniform sampling until
/// a first incumbent exists.
class RandomWalkProposer final : public Proposer {
 public:
  /// Throws std::invalid_argument on a non-positive sigma0.
  RandomWalkProposer(const HyperParameterSpace& space,
                     RandomWalkOptions walk_options = {});

  [[nodiscard]] std::string name() const override { return "Rand-Walk"; }
  [[nodiscard]] Configuration propose(stats::Rng& rng) override;
  [[nodiscard]] double proposal_overhead_s() const override { return 0.5; }

 private:
  RandomWalkOptions walk_options_;
};

}  // namespace hp::core
