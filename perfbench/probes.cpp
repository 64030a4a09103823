#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/checksum.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Logs the call's interval on scope exit, so attempts that throw (and are
/// retried by the resilience layer) are counted like the ones that return.
class CallScope {
 public:
  explicit CallScope(std::mutex& mutex, std::vector<Interval>& log)
      : mutex_(mutex), log_(log), start_s_(now_s()) {}
  ~CallScope() {
    const double end_s = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back({start_s_, end_s});
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  std::mutex& mutex_;
  std::vector<Interval>& log_;
  double start_s_;
};

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

hp::core::EvaluationRecord TimedObjective::evaluate(
    const hp::core::Configuration& config,
    const hp::core::EarlyTerminationRule* early_termination) {
  const CallScope scope(mutex_, calls_);
  return inner_.evaluate(config, early_termination);
}

hp::core::EvaluationRecord TimedObjective::evaluate_detached(
    const hp::core::Configuration& config,
    const hp::core::EarlyTerminationRule* early_termination) {
  const CallScope scope(mutex_, calls_);
  return inner_.evaluate_detached(config, early_termination);
}

std::vector<Interval> TimedObjective::take_calls() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(calls_, {});
}

std::vector<hp::core::EvaluationRecord> TimedDispatcher::evaluate_round(
    std::vector<hp::core::RoundJob> jobs) {
  const double start_s = now_s();
  std::vector<hp::core::EvaluationRecord> records =
      inner_.evaluate_round(std::move(jobs));
  rounds_.push_back({start_s, now_s()});
  return records;
}

std::vector<Interval> TimedDispatcher::take_rounds() {
  return std::exchange(rounds_, {});
}

std::vector<Interval> executions_by_round(std::vector<Interval> calls,
                                          const hp::core::RunTrace& trace,
                                          std::size_t batch,
                                          bool& consistent) {
  std::sort(calls.begin(), calls.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_s < b.start_s;
            });
  const std::vector<hp::core::EvaluationRecord>& records = trace.records();
  std::vector<Interval> executions;
  std::size_t next = 0;
  // Groups the next @p n calls into one execution.
  const auto take = [&](std::size_t n) {
    Interval execution = calls[next];
    for (std::size_t i = next; i < next + n; ++i) {
      execution.start_s = std::min(execution.start_s, calls[i].start_s);
      execution.end_s = std::max(execution.end_s, calls[i].end_s);
    }
    next += n;
    return execution;
  };
  bool last_round_grouped = false;
  for (std::size_t base = 0; base < records.size(); base += batch) {
    std::size_t attempts = 0;
    for (std::size_t i = base; i < std::min(base + batch, records.size());
         ++i) {
      if (records[i].status != hp::core::EvaluationStatus::ModelFiltered) {
        attempts += records[i].attempts;
      }
    }
    last_round_grouped = attempts > 0;
    if (attempts == 0) continue;
    if (next + attempts > calls.size()) {
      consistent = false;
      return executions;
    }
    executions.push_back(take(attempts));
  }
  if (next < calls.size()) {
    // The dropped tail ran in the last booked round when that round is
    // partial, else in a round of its own.
    const bool partial = records.size() % batch != 0;
    const Interval tail = take(calls.size() - next);
    if (partial && last_round_grouped) {
      executions.back().end_s = std::max(executions.back().end_s, tail.end_s);
    } else {
      executions.push_back(tail);
    }
  }
  return executions;
}

std::vector<double> idle_gaps_s(const std::vector<Interval>& executions) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < executions.size(); ++i) {
    gaps.push_back(executions[i].start_s - executions[i - 1].end_s);
  }
  return gaps;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = rank - static_cast<double>(lower);
  return values[lower] + weight * (values[upper] - values[lower]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::string trace_digest(const hp::core::RunTrace& trace) {
  std::ostringstream csv;
  trace.write_csv(csv);
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x",
                static_cast<unsigned>(hp::core::crc32(csv.str())));
  return hex;
}

}  // namespace perfbench
