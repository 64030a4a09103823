#pragma once
// A cheap deterministic objective used by the optimizer unit tests:
//   error(x) = (x0_unit - 0.3)^2 + 0.5 * (x1_unit - 0.7)^2   (minimum 0)
//   measured power = 100 * x0_unit  (so a budget of 60 W means x0 <= 0.6)
// Every evaluation costs a fixed amount of virtual time.

#include <atomic>
#include <cmath>

#include "core/objective.hpp"
#include "core/search_space.hpp"

namespace hp::core::testing {

inline HyperParameterSpace fake_space() {
  return HyperParameterSpace({
      {"a", ParameterKind::Continuous, 0.0, 1.0, true},
      {"b", ParameterKind::Continuous, 0.0, 1.0, false},
  });
}

class FakeObjective final : public Objective {
 public:
  explicit FakeObjective(HyperParameterSpace space, double cost_s = 10.0,
                         double chance_error = 0.9)
      : space_(std::move(space)), cost_s_(cost_s), chance_(chance_error) {}

  [[nodiscard]] EvaluationRecord evaluate(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override {
    EvaluationRecord r = evaluate_detached(config, early_termination);
    clock_.advance(r.cost_s);
    return r;
  }

  // The fake is a pure function of the configuration, so the detached path
  // is the whole computation; evaluate() just adds the clock charge.
  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return concurrent_;
  }
  [[nodiscard]] EvaluationRecord evaluate_detached(
      const Configuration& config,
      const EarlyTerminationRule* early_termination) override {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    EvaluationRecord r;
    r.config = config;
    const std::vector<double> u = space_.encode(config);
    const bool diverges = u[1] > diverge_above_;
    if (diverges && early_termination != nullptr) {
      r.status = EvaluationStatus::EarlyTerminated;
      r.test_error = chance_;
      r.diverged = true;
      r.cost_s = cost_s_ * 0.1;
    } else {
      r.status = EvaluationStatus::Completed;
      r.diverged = diverges;
      r.test_error = diverges ? chance_
                              : (u[0] - 0.3) * (u[0] - 0.3) +
                                    0.5 * (u[1] - 0.7) * (u[1] - 0.7);
      r.cost_s = cost_s_;
      r.measured_power_w = 100.0 * u[0];
      r.measured_memory_mb = 1000.0 * u[1];
    }
    return r;
  }

  [[nodiscard]] Clock& clock() override { return clock_; }

  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }
  void set_diverge_above(double threshold) { diverge_above_ = threshold; }
  /// Tests covering the serial-objective fallback turn this off.
  void set_supports_concurrent(bool on) { concurrent_ = on; }

 private:
  HyperParameterSpace space_;
  double cost_s_;
  double chance_;
  double diverge_above_ = 2.0;  // no divergence by default
  bool concurrent_ = true;
  Clock clock_;
  std::atomic<std::size_t> evaluations_{0};
};

}  // namespace hp::core::testing
