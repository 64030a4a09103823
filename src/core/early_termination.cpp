#include "core/early_termination.hpp"

namespace hp::core {

double EarlyTerminationRule::convergence_threshold() const noexcept {
  return chance_error_ * (1.0 - margin_);
}

bool EarlyTerminationRule::should_terminate(std::size_t epochs_done,
                                            double current_test_error) const {
  if (epochs_done < check_after_epochs_) return false;
  return current_test_error >= convergence_threshold();
}

}  // namespace hp::core
