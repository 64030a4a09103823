#pragma once
// Rand (Section 3.5): uniform random search [Bergstra & Bengio 2012], with
// the HyperPower enhancements applied by the Study when enabled.

#include <string>

#include "core/proposer.hpp"

namespace hp::core {

/// Uniform random candidate selection.
class RandomSearchProposer final : public Proposer {
 public:
  using Proposer::Proposer;

  [[nodiscard]] std::string name() const override { return "Rand"; }
  [[nodiscard]] Configuration propose(stats::Rng& rng) override {
    return space().sample(rng);
  }
  [[nodiscard]] double proposal_overhead_s() const override { return 0.5; }
};

}  // namespace hp::core
