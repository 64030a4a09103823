#pragma once
// Early termination of diverging candidates (Section 3.2): "candidate
// architectures that diverge during training can be quickly identified only
// after a few training epochs". The rule deliberately identifies
// *diverging* cases rather than predicting final error for converging ones
// (which would risk the overestimation artifacts of learning-curve
// extrapolation the paper cautions about).

#include <cstddef>
#include <stdexcept>

namespace hp::core {

/// Decision rule applied to the per-epoch test error of a training run.
class EarlyTerminationRule {
 public:
  /// @param check_after_epochs number of epochs to observe before the rule
  ///        activates (the "few training epochs" of the paper).
  /// @param chance_error the error of random guessing (0.9 for 10 classes).
  /// @param margin how far below chance the error must have moved for the
  ///        candidate to be considered converging (fraction of chance).
  /// Throws std::invalid_argument on a zero window, a chance error
  /// outside (0, 1] or a margin outside [0, 1).
  constexpr explicit EarlyTerminationRule(std::size_t check_after_epochs = 2,
                                          double chance_error = 0.9,
                                          double margin = 0.05)
      : check_after_epochs_(check_after_epochs),
        chance_error_(chance_error),
        margin_(margin) {
    if (check_after_epochs_ == 0) {
      throw std::invalid_argument(
          "EarlyTerminationRule: need at least one observation epoch");
    }
    if (chance_error_ <= 0.0 || chance_error_ > 1.0) {
      throw std::invalid_argument(
          "EarlyTerminationRule: chance error must be in (0,1]");
    }
    if (margin_ < 0.0 || margin_ >= 1.0) {
      throw std::invalid_argument(
          "EarlyTerminationRule: margin must be in [0,1)");
    }
  }

  /// Returns true if training should STOP: the run has seen at least
  /// check_after_epochs epochs and the test error is still at chance level
  /// (not more than margin*chance below it), i.e. the candidate shows no
  /// sign of convergence. Divergence (non-finite loss) is handled by the
  /// trainer itself and always stops.
  [[nodiscard]] bool should_terminate(std::size_t epochs_done,
                                      double current_test_error) const;

  [[nodiscard]] std::size_t check_after_epochs() const noexcept {
    return check_after_epochs_;
  }
  [[nodiscard]] double chance_error() const noexcept { return chance_error_; }
  [[nodiscard]] double convergence_threshold() const noexcept;

 private:
  std::size_t check_after_epochs_;
  double chance_error_;
  double margin_;
};

/// The rule HyperPower mode applies on every evaluation path: the
/// in-process Optimizer, the fleet's hpo-worker and bench_fleet. A fleet
/// run matches its in-process run bit for bit only because they share it.
inline constexpr EarlyTerminationRule kEarlyTermination{};

}  // namespace hp::core
