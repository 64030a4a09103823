#include "core/run_trace.hpp"

#include <algorithm>
#include <utility>

namespace hp::core {

void RunTrace::add(EvaluationRecord record) {
  switch (record.status) {
    case EvaluationStatus::Completed:
      ++completed_;
      break;
    case EvaluationStatus::ModelFiltered:
      ++model_filtered_;
      break;
    case EvaluationStatus::EarlyTerminated:
      ++early_terminated_;
      break;
    case EvaluationStatus::InfeasibleArchitecture:
      ++infeasible_;
      break;
    case EvaluationStatus::Failed:
      ++failed_;
      break;
  }
  if (record.measured_violation()) ++measured_violations_;
  if (!record.measured &&
      (record.measured_power_w || record.measured_memory_mb)) {
    ++fallbacks_;
  }
  retries_ += record.attempts > 0 ? record.attempts - 1 : 0;
  records_.push_back(std::move(record));
}

std::optional<EvaluationRecord> RunTrace::best() const {
  std::optional<EvaluationRecord> best;
  for (const EvaluationRecord& r : records_) {
    if (r.counts_for_best() && (!best || r.test_error < best->test_error)) {
      best = r;
    }
  }
  return best;
}

double RunTrace::best_error_up_to(std::size_t index) const {
  double best = 1.0;
  for (std::size_t i = 0; i < records_.size() && i <= index; ++i) {
    if (records_[i].counts_for_best()) {
      best = std::min(best, records_[i].test_error);
    }
  }
  return best;
}

std::vector<double> RunTrace::best_error_per_function_evaluation() const {
  std::vector<double> series;
  double best = 1.0;
  for (const EvaluationRecord& r : records_) {
    if (!r.function_evaluation()) continue;
    if (r.counts_for_best()) best = std::min(best, r.test_error);
    series.push_back(best);
  }
  return series;
}

std::vector<std::size_t> RunTrace::violations_per_function_evaluation() const {
  std::vector<std::size_t> series;
  std::size_t violations = 0;
  for (const EvaluationRecord& r : records_) {
    if (!r.function_evaluation()) continue;
    if (r.measured_violation()) ++violations;
    series.push_back(violations);
  }
  return series;
}

std::optional<double> RunTrace::time_to_sample_count(std::size_t n) const {
  if (n == 0 || n > records_.size()) return std::nullopt;
  return records_[n - 1].timestamp_s;
}

std::optional<double> RunTrace::time_to_error(double target) const {
  double best = 1.0;
  for (const EvaluationRecord& r : records_) {
    if (r.counts_for_best()) {
      best = std::min(best, r.test_error);
      if (best <= target) return r.timestamp_s;
    }
  }
  return std::nullopt;
}

double RunTrace::total_time_s() const noexcept {
  return records_.empty() ? 0.0 : records_.back().timestamp_s;
}

void RunTrace::write_csv(std::ostream& os) const {
  os << "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
        "violates,cost_s,measured,attempts,failure\n";
  for (const EvaluationRecord& r : records_) {
    os << r.index << ',' << r.timestamp_s << ',' << to_string(r.status) << ','
       << r.test_error << ',' << (r.diverged ? 1 : 0) << ',';
    if (r.measured_power_w) os << *r.measured_power_w;
    os << ',';
    if (r.measured_memory_mb) os << *r.measured_memory_mb;
    os << ',' << (r.violates_constraints ? 1 : 0) << ',' << r.cost_s << ','
       << (r.measured ? 1 : 0) << ',' << r.attempts << ',';
    if (r.failure_kind) os << to_string(*r.failure_kind);
    os << '\n';
  }
}

}  // namespace hp::core
