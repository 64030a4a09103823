#pragma once
// One candidate's acquisition score: AcquisitionFunction::score_block on a
// block of one, with a scratch of its own. The per-candidate reference the
// acquisition tests compare blocks and closed forms against.

#include <span>
#include <vector>

#include "core/acquisition.hpp"

namespace hp::core::testing {

inline double score_one(const AcquisitionFunction& acquisition,
                        const std::vector<double>& unit_x,
                        const Configuration& config,
                        const AcquisitionContext& ctx) {
  AcquisitionScratch scratch;
  double out = 0.0;
  acquisition.score_block(std::span<const std::vector<double>>(&unit_x, 1),
                          std::span<const Configuration>(&config, 1), ctx,
                          scratch, std::span<double>(&out, 1));
  return out;
}

}  // namespace hp::core::testing
