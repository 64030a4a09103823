#pragma once
// Per-run sample trace plus the derived series the paper's figures and
// tables are built from (best-error-vs-evaluations, cumulative violations,
// time to reach N samples, time to reach a target error, ...).

#include <cstddef>
#include <optional>
#include <ostream>
#include <vector>

#include "core/objective.hpp"

namespace hp::core {

/// Ordered record of every sample a method queried during one run. Each
/// record is counted once, as it is added, so the count queries are O(1).
class RunTrace {
 public:
  /// Appends @p record and adds it to the counts below.
  void add(EvaluationRecord record);

  [[nodiscard]] const std::vector<EvaluationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Number of samples that invoked the objective (completed or
  /// early-terminated trainings) — the paper's "function evaluations".
  [[nodiscard]] std::size_t function_evaluations() const noexcept {
    return completed_ + early_terminated_;
  }
  /// Completed trainings only.
  [[nodiscard]] std::size_t completed_count() const noexcept {
    return completed_;
  }
  /// Samples rejected a priori by the hardware models.
  [[nodiscard]] std::size_t model_filtered_count() const noexcept {
    return model_filtered_;
  }
  /// Samples terminated early as diverging.
  [[nodiscard]] std::size_t early_terminated_count() const noexcept {
    return early_terminated_;
  }
  /// Samples whose network could not be generated.
  [[nodiscard]] std::size_t infeasible_count() const noexcept {
    return infeasible_;
  }
  /// Function evaluations whose *measured* metrics violate the budgets
  /// (EvaluationRecord::measured_violation; the constraint-violating
  /// evaluations of Figure 4 center).
  [[nodiscard]] std::size_t measured_violation_count() const noexcept {
    return measured_violations_;
  }
  /// Samples whose every evaluation attempt failed (recorded and skipped
  /// by the resilience layer).
  [[nodiscard]] std::size_t failed_count() const noexcept { return failed_; }
  /// Samples whose power/memory came from the predictive fallback models
  /// after live sensor reads failed (measured == false with metrics).
  [[nodiscard]] std::size_t fallback_count() const noexcept {
    return fallbacks_;
  }
  /// Evaluation attempts beyond each sample's first (total retries).
  [[nodiscard]] std::size_t total_retries() const noexcept { return retries_; }

  /// The best feasible completed record, if any.
  [[nodiscard]] std::optional<EvaluationRecord> best() const;

  /// Best feasible error observed up to and including record @p index;
  /// 1.0 if none yet.
  [[nodiscard]] double best_error_up_to(std::size_t index) const;

  /// Series: best feasible error after each *function evaluation* (the
  /// x-axis of Figure 4 left). Entry i = best after i+1 evaluations.
  [[nodiscard]] std::vector<double> best_error_per_function_evaluation() const;

  /// Series: cumulative measured-violation count after each function
  /// evaluation (Figure 4 center).
  [[nodiscard]] std::vector<std::size_t> violations_per_function_evaluation()
      const;

  /// Clock time at which the n-th queried sample (1-based, any status)
  /// finished; nullopt if fewer samples were queried.
  [[nodiscard]] std::optional<double> time_to_sample_count(std::size_t n) const;

  /// Earliest clock time at which the best feasible error dropped to
  /// <= @p target; nullopt if never reached.
  [[nodiscard]] std::optional<double> time_to_error(double target) const;

  /// Total clock span of the run (timestamp of the last record).
  [[nodiscard]] double total_time_s() const noexcept;

  /// Writes one CSV row per record (with header).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<EvaluationRecord> records_;
  std::size_t completed_ = 0;
  std::size_t model_filtered_ = 0;
  std::size_t early_terminated_ = 0;
  std::size_t infeasible_ = 0;
  std::size_t failed_ = 0;
  std::size_t measured_violations_ = 0;
  std::size_t fallbacks_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace hp::core
