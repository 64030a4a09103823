#pragma once
// Evaluation-engine layer of the pipeline (DESIGN.md §12, §16): the ONE
// driver loop every method runs through. Since the ask/tell refactor the
// engine owns no run bookkeeping of its own — proposal state, the books,
// the journal, replay, and the trial lifecycle all live in core::Study
// (core/study.hpp) — and the engine is purely the *execution* side:
//
//   while the study is not finished:
//     trials = study.ask(batch_size)
//     evaluate the trials that need it (engine thread, thread pool, or
//     the process fleet — all through the RoundDispatcher seam)
//     for each trial, in sample order:
//       study.begin_trial(...); study.tell(result)
//
// Sequential mode (batch_size == 1), batched-ThreadPool mode, fleet mode,
// and resume are all this one loop; only the dispatcher behind the
// execution step differs. That is what makes in-process and multi-process
// execution provably the same state machine: the fleet's FleetScheduler
// (src/dist/job_scheduler.hpp) and the engine's internal pool-backed
// dispatcher implement the same interface over the same Study-issued
// jobs. Traces remain a pure function of (seed, batch_size) — never of
// num_threads or worker count — and a run resumed from the journal is
// bit-identical to an uninterrupted one (the golden-trace suite pins both
// properties against pre-pipeline captures).
//
// Concurrency contract (DESIGN.md §14): the engine owns NO mutex of its
// own — deliberately. A round fans out over disjoint indexed jobs (one
// writer per job slot, by construction), the dispatcher's barrier
// publishes them, and the tell loop reads them single-threaded in
// canonical order afterwards. The run's one ThreadPool is also lent to
// the proposer (ProposerRunContext::pool), which fans acquisition scoring
// out over it the same way while the study asks and the pool is idle. Concurrency primitives live one layer down,
// in the annotated ThreadPool / ResilientEvaluator / obs types
// (core/thread_annotations.hpp), so there is no guarded state here for
// Clang TSA to check — keep it that way: new round-scoped engine state
// should be per-job or round-constant, not lock-guarded.

#include <vector>

#include "core/study.hpp"

namespace hp::core {

class Proposer;

/// The ask → execute → tell driver over a core::Study.
class EvaluationEngine {
 public:
  /// @param space the hyper-parameter space.
  /// @param objective the expensive evaluation (training + measurement).
  /// @param budgets the active power/memory budgets (may be empty).
  /// @param apriori_constraints predictive models + budgets; pass nullptr
  ///        to run without a-priori models (the models are also ignored
  ///        when options.use_hardware_models is false).
  /// @param proposer the candidate-selection strategy; must outlive the
  ///        engine. The study calls Proposer::begin_run at the start of
  ///        every run/resume.
  /// Throws std::invalid_argument on zero max_samples/batch_size/
  /// num_threads.
  EvaluationEngine(const HyperParameterSpace& space, Objective& objective,
                   ConstraintBudgets budgets,
                   const HardwareConstraints* apriori_constraints,
                   OptimizerOptions options, Proposer& proposer);

  EvaluationEngine(const EvaluationEngine&) = delete;
  EvaluationEngine& operator=(const EvaluationEngine&) = delete;

  /// Executes the full optimization loop.
  [[nodiscard]] RunResult run();

  /// Continues a crashed run: replays @p completed records (journal order)
  /// through Study::resume — restoring the clock, RNG streams, incumbent,
  /// and surrogate state — then re-enters the same driver loop, so the
  /// final trace is bit-identical to an uninterrupted run with the same
  /// options. In batched mode a trailing partial round is discarded and
  /// re-evaluated (evaluations are index-pure, so the records come out
  /// identical). Throws std::runtime_error when the records do not match
  /// this run's configuration (wrong seed/method/space).
  [[nodiscard]] RunResult resume(
      const std::vector<EvaluationRecord>& completed);

  [[nodiscard]] const OptimizerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    return study_.budgets();
  }
  /// The a-priori constraints if present AND enabled, else nullptr.
  [[nodiscard]] const HardwareConstraints* active_constraints()
      const noexcept {
    return study_.active_constraints();
  }
  /// The ask/tell state machine this engine drives (read-side, for
  /// progress inspection: Study::snapshot).
  [[nodiscard]] const Study& study() const noexcept { return study_; }

 private:
  /// Shared body of run()/resume(): start or resume the study, then drive
  /// ask → execute → tell until it finishes.
  [[nodiscard]] RunResult run_impl(
      const std::vector<EvaluationRecord>* replay);

  Objective& objective_;
  OptimizerOptions options_;
  Study study_;
};

}  // namespace hp::core
