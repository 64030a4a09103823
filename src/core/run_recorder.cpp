#include "core/run_recorder.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "obs/obs.hpp"

namespace hp::core {

namespace {

/// Per-sample instruments; process-global, fetched once. Wall-time
/// histograms measure real phase durations — the virtual clock is charged
/// by the Study and is never read here except as an event field.
struct SampleMetrics {
  obs::Counter& samples;
  obs::Counter& function_evaluations;
  obs::Counter& completed;
  obs::Counter& model_filtered;
  obs::Counter& early_terminated;
  obs::Counter& infeasible;
  obs::Counter& failed;
  obs::Counter& measured_violations;
  obs::Counter& retries;
  obs::Counter& fallbacks;
  obs::Histogram& sample_cost_vs;  ///< virtual seconds per sample

  static SampleMetrics& get() {
    obs::MetricsRegistry& m = obs::metrics();
    static SampleMetrics instance{
        m.counter("optimizer.samples"),
        m.counter("optimizer.function_evaluations"),
        m.counter("optimizer.completed"),
        m.counter("optimizer.model_filtered"),
        m.counter("optimizer.early_terminated"),
        m.counter("optimizer.infeasible_architectures"),
        m.counter("optimizer.failed"),
        m.counter("optimizer.measured_violations"),
        m.counter("optimizer.eval_retries"),
        m.counter("optimizer.sensor_fallbacks"),
        m.histogram("optimizer.sample_cost_vs",
                    obs::exponential_buckets(1.0, 2.0, 14)),
    };
    return instance;
  }
};

}  // namespace

void RunRecorder::begin_run() {
  trace_ = RunTrace{};
  incumbent_.reset();
  tally_ = Tally{};
  function_evaluations_ = 0;
  consecutive_failures_ = 0;
}

void RunRecorder::observe_sample(EvaluationRecord& record, SampleMode mode) {
  if (record.status == EvaluationStatus::Completed ||
      record.status == EvaluationStatus::EarlyTerminated) {
    ++function_evaluations_;
  }
  record.index = trace_.size();
  if (record.counts_for_best() &&
      (!incumbent_ || record.test_error < incumbent_->test_error)) {
    incumbent_ = record;
  }
  tally_record(record);
  if (mode == SampleMode::kLive) emit_sample_events(record);
}

const EvaluationRecord& RunRecorder::commit(EvaluationRecord record,
                                            SampleMode mode) {
  const bool failed = record.status == EvaluationStatus::Failed;
  trace_.add(std::move(record));
  if (mode == SampleMode::kLive) {
    // Replay must not re-trigger the consecutive-failure abort: the
    // original run already survived those samples.
    if (failed) {
      ++consecutive_failures_;
    } else {
      consecutive_failures_ = 0;
    }
  }
  return trace_.records().back();
}

void RunRecorder::tally_record(const EvaluationRecord& record) {
  switch (record.status) {
    case EvaluationStatus::Completed:
      ++tally_.completed;
      break;
    case EvaluationStatus::ModelFiltered:
      ++tally_.model_filtered;
      break;
    case EvaluationStatus::EarlyTerminated:
      ++tally_.early_terminated;
      break;
    case EvaluationStatus::InfeasibleArchitecture:
      ++tally_.infeasible;
      break;
    case EvaluationStatus::Failed:
      ++tally_.failed;
      break;
  }
  if (record.status == EvaluationStatus::Completed &&
      record.violates_constraints) {
    ++tally_.measured_violations;
  }
  tally_.retries += record.attempts > 0 ? record.attempts - 1 : 0;
  if (!record.measured &&
      (record.measured_power_w || record.measured_memory_mb)) {
    ++tally_.fallbacks;
  }
}

void RunRecorder::emit_sample_events(const EvaluationRecord& record) const {
  const bool measured_violation =
      record.status == EvaluationStatus::Completed &&
      record.violates_constraints;

  if (obs::metrics().enabled()) {
    SampleMetrics& m = SampleMetrics::get();
    m.samples.add(1);
    m.sample_cost_vs.observe(record.cost_s);
    switch (record.status) {
      case EvaluationStatus::Completed:
        m.function_evaluations.add(1);
        m.completed.add(1);
        break;
      case EvaluationStatus::EarlyTerminated:
        m.function_evaluations.add(1);
        m.early_terminated.add(1);
        break;
      case EvaluationStatus::ModelFiltered:
        m.model_filtered.add(1);
        break;
      case EvaluationStatus::InfeasibleArchitecture:
        m.infeasible.add(1);
        break;
      case EvaluationStatus::Failed:
        m.failed.add(1);
        break;
    }
    if (measured_violation) m.measured_violations.add(1);
    if (record.attempts > 1) m.retries.add(record.attempts - 1);
    if (!record.measured &&
        (record.measured_power_w || record.measured_memory_mb)) {
      m.fallbacks.add(1);
    }
  }

  obs::Logger& log = obs::logger();
  if (log.enabled(obs::LogLevel::kDebug)) {
    log.debug("optimizer.sample",
              {{"index", obs::JsonValue(record.index)},
               {"status", obs::JsonValue(to_string(record.status))},
               {"error", obs::JsonValue(record.test_error)},
               {"cost_s", obs::JsonValue(record.cost_s)},
               {"clock_s", obs::JsonValue(record.timestamp_s)},
               {"attempts", obs::JsonValue(record.attempts)},
               {"violates", obs::JsonValue(record.violates_constraints)}});
  }
  if (log.enabled(obs::LogLevel::kInfo)) {
    std::vector<obs::LogField> fields{
        {"samples", obs::JsonValue(trace_.size() + 1)},
        {"evals", obs::JsonValue(function_evaluations_)},
        {"filtered", obs::JsonValue(tally_.model_filtered)},
        {"early_terminated", obs::JsonValue(tally_.early_terminated)},
        {"violations", obs::JsonValue(tally_.measured_violations)},
        {"clock_s", obs::JsonValue(record.timestamp_s)},
    };
    if (tally_.failed > 0) {
      fields.push_back({"failed", obs::JsonValue(tally_.failed)});
    }
    if (incumbent_) {
      fields.push_back({"best_error", obs::JsonValue(incumbent_->test_error)});
    }
    if (options_.max_function_evaluations !=
        std::numeric_limits<std::size_t>::max()) {
      fields.push_back(
          {"max_evals", obs::JsonValue(options_.max_function_evaluations)});
    }
    if (std::isfinite(options_.max_runtime_s)) {
      fields.push_back(
          {"max_runtime_s", obs::JsonValue(options_.max_runtime_s)});
    }
    log.info("optimizer.progress", std::move(fields));
  }
}

}  // namespace hp::core
