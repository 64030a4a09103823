#pragma once
// Recording layer of the evaluation pipeline (DESIGN.md §12): owns
// everything a finished sample updates — the trace, the incumbent, the
// per-status tallies, the consecutive-failure streak — and emits the
// per-sample observability events ("optimizer.sample" debug records,
// "optimizer.progress" info lines, the optimizer.* metrics). It performs
// no optimization logic and touches neither the clock nor the journal:
// Study::tell stamps records (timestamp, constraint classification) and
// journals them after commit; the recorder just keeps the books. Only
// the Study calls the mutating entry points (lint rule `study-ask-tell`,
// DESIGN.md §16) — drivers read run state through Study::snapshot.
//
// Replay (journal resume) uses the same entry points with
// SampleMode::kReplay, which keeps the counters and incumbent exactly
// right while skipping the per-sample events and the failure streak — a
// replayed Failed sample must not re-trigger the consecutive-failure
// abort the original run already survived.

#include <cstddef>
#include <optional>

#include "core/run_trace.hpp"

namespace hp::core {

struct OptimizerOptions;

/// Trace + incumbent + tally bookkeeping for one run at a time.
class RunRecorder {
 public:
  /// @param options the run options (progress-event budget fields and the
  ///        consecutive-failure limit); must outlive the recorder.
  explicit RunRecorder(const OptimizerOptions& options) : options_(options) {}

  RunRecorder(const RunRecorder&) = delete;
  RunRecorder& operator=(const RunRecorder&) = delete;

  /// Whether a sample is being evaluated live or replayed from a journal.
  enum class SampleMode { kLive, kReplay };

  /// Running per-status totals of the current run, kept so the per-sample
  /// observability events are O(1) (RunTrace recomputes its counters by
  /// scanning). Read-side only: never consulted by the optimization logic.
  struct Tally {
    std::size_t completed = 0;
    std::size_t model_filtered = 0;
    std::size_t early_terminated = 0;
    std::size_t infeasible = 0;
    std::size_t failed = 0;
    std::size_t measured_violations = 0;
    std::size_t retries = 0;
    std::size_t fallbacks = 0;
  };

  /// Resets all state for a fresh run/resume.
  void begin_run();

  /// Books a finalized sample: stamps record.index, counts the function
  /// evaluation (trained statuses), updates the incumbent, tallies, and —
  /// live only — emits the per-sample metrics and log events. The Study
  /// calls this before the proposer observes the record, matching the
  /// event order of the pre-pipeline optimizer.
  void observe_sample(EvaluationRecord& record, SampleMode mode);

  /// Appends the sample to the trace and — live only — advances the
  /// consecutive-failure streak. Returns the stored record (stable until
  /// the next commit) so the Study can journal exactly what the trace
  /// holds.
  const EvaluationRecord& commit(EvaluationRecord record, SampleMode mode);

  [[nodiscard]] const RunTrace& trace() const noexcept { return trace_; }
  /// The trace is surrendered to the run result when the loop ends.
  [[nodiscard]] RunTrace take_trace() noexcept { return std::move(trace_); }

  /// Best feasible record so far. The reference is stable across the
  /// recorder's lifetime (proposers hold it through ProposerRunContext).
  [[nodiscard]] const std::optional<EvaluationRecord>& incumbent()
      const noexcept {
    return incumbent_;
  }
  [[nodiscard]] std::size_t function_evaluations() const noexcept {
    return function_evaluations_;
  }
  [[nodiscard]] std::size_t consecutive_failures() const noexcept {
    return consecutive_failures_;
  }
  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

 private:
  void tally_record(const EvaluationRecord& record);
  /// Live-only observability tail: optimizer.* metrics plus the
  /// "optimizer.sample" / "optimizer.progress" events.
  void emit_sample_events(const EvaluationRecord& record) const;

  const OptimizerOptions& options_;
  RunTrace trace_;
  std::optional<EvaluationRecord> incumbent_;
  Tally tally_;
  std::size_t function_evaluations_ = 0;
  std::size_t consecutive_failures_ = 0;
};

}  // namespace hp::core
