#pragma once
// The benchmark's own instruments. Nothing here adds a span or counter to
// the library: the probes wrap the two public seams a study executes
// through — core::Objective (in-process evaluations) and
// core::RoundDispatcher (fleet rounds) — and time every call with the
// steady clock.

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/objective.hpp"
#include "core/run_trace.hpp"

namespace perfbench {

/// Steady-clock seconds since the process started.
[[nodiscard]] double now_s();

/// When one timed call ran, on the now_s() time line.
struct Interval {
  double start_s = 0.0;
  double end_s = 0.0;
  [[nodiscard]] double length_s() const { return end_s - start_s; }
};

/// Forwards every call to the objective the CLI stack built and logs when
/// each evaluation ran. Pool threads evaluate concurrently, so the log is
/// guarded.
class TimedObjective final : public hp::core::Objective {
 public:
  explicit TimedObjective(hp::core::Objective& inner) : inner_(inner) {}

  [[nodiscard]] hp::core::EvaluationRecord evaluate(
      const hp::core::Configuration& config,
      const hp::core::EarlyTerminationRule* early_termination) override;
  [[nodiscard]] bool supports_concurrent_evaluation() const noexcept override {
    return inner_.supports_concurrent_evaluation();
  }
  [[nodiscard]] hp::core::EvaluationRecord evaluate_detached(
      const hp::core::Configuration& config,
      const hp::core::EarlyTerminationRule* early_termination) override;
  [[nodiscard]] hp::core::Clock& clock() override { return inner_.clock(); }

  /// Returns and clears the calls logged since the last take().
  [[nodiscard]] std::vector<Interval> take_calls();

 private:
  void log(double start_s);

  hp::core::Objective& inner_;
  std::mutex mutex_;
  std::vector<Interval> calls_;
};

/// Forwards whole rounds to the fleet and logs when each one ran. Called
/// from the engine thread only.
class TimedDispatcher final : public hp::core::RoundDispatcher {
 public:
  explicit TimedDispatcher(hp::core::RoundDispatcher& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<hp::core::EvaluationRecord> evaluate_round(
      std::vector<hp::core::RoundJob> jobs) override;

  [[nodiscard]] std::vector<Interval> take_rounds();

 private:
  hp::core::RoundDispatcher& inner_;
  std::vector<Interval> rounds_;
};

/// Groups an in-process study's evaluation calls into the executions its
/// rounds handed to the thread pool. Round r asks samples [r*batch,
/// (r+1)*batch), and the trace says how many evaluation attempts each of
/// them made (model-filtered samples make none). Rounds are separated by
/// the pool's barrier, so the calls sorted by start time fall into rounds
/// in order. Calls past the booked samples are the round tail a stopping
/// rule dropped. Sets @p consistent to false when the calls do not match
/// the trace.
[[nodiscard]] std::vector<Interval> executions_by_round(
    std::vector<Interval> calls, const hp::core::RunTrace& trace,
    std::size_t batch, bool& consistent);

/// Driver time between consecutive executions: from the end of one to the
/// start of the next, when no evaluator works.
[[nodiscard]] std::vector<double> idle_gaps_s(
    const std::vector<Interval>& executions);

/// Linear-interpolated percentile (q in [0, 1]) of @p values; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// CRC-32 of the trace's CSV: the byte-level identity of a study's result.
[[nodiscard]] std::string trace_digest(const hp::core::RunTrace& trace);

}  // namespace perfbench
