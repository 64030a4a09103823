#pragma once
// The run class of the evaluation pipeline (DESIGN.md §12, §16): one
// proposal strategy (core/proposer.hpp) bound to the ask/tell Study core
// (core/study.hpp) and the ONE driver loop every method runs through. The
// four methods of the paper — Rand, Rand-Walk, HW-CWEI, HW-IECI (plus the
// Grid baseline) — differ only in the Proposer passed in (make_proposer in
// core/framework.hpp builds the paper's four). The Study owns the run's
// books, the journal, replay, the trial lifecycle, and the two HyperPower
// enhancements that can be switched off to obtain the paper's "default"
// (exhaustive, constraint-unaware) counterparts —
//   1. a-priori constraint filtering through the predictive models, and
//   2. early termination of diverging candidates.
// The Optimizer is purely the *execution* side:
//
//   while the study is not finished:
//     trials = study.ask(batch_size)
//     evaluate the trials that need it (calling thread, thread pool, or
//     the process fleet — all through the RoundDispatcher seam)
//     for each trial, in sample order:
//       study.begin_trial(...); study.tell(result)
//
// Sequential mode (batch_size == 1), batched-ThreadPool mode, fleet mode,
// and resume are all this one loop; only the dispatcher behind the
// execution step differs. That is what makes in-process and multi-process
// execution provably the same state machine: the fleet's FleetScheduler
// (src/dist/job_scheduler.hpp) and the optimizer's internal pool-backed
// dispatcher implement the same interface over the same Study-issued
// jobs. Traces remain a pure function of (seed, batch_size) — never of
// num_threads or worker count — and a run resumed from the journal is
// bit-identical to an uninterrupted one (the golden-trace suite pins both
// properties against pre-pipeline captures).
//
// Concurrency contract (DESIGN.md §14): the Optimizer owns NO mutex —
// deliberately. A round fans out over disjoint indexed jobs (one writer
// per job slot, by construction), the dispatcher's barrier publishes them,
// and the tell loop reads them single-threaded in canonical order
// afterwards. The run's one ThreadPool is also lent to the proposer
// (ProposerRunContext::pool), which fans acquisition scoring out over it
// the same way while the study asks and the pool is idle. Concurrency
// primitives live one layer down, in the annotated ThreadPool and obs
// types (core/thread_annotations.hpp); the ResilientEvaluator holds no
// mutable state at all. So there is no guarded state here for Clang TSA
// to check — keep it that way: new round-scoped driver state should be
// per-job or round-constant, not lock-guarded.

#include <memory>
#include <string>
#include <vector>

#include "core/proposer.hpp"
#include "core/study.hpp"

namespace hp::core {

/// A proposal strategy bound to the ask → execute → tell driver loop.
class Optimizer final {
 public:
  /// @param space the hyper-parameter space.
  /// @param objective the expensive evaluation (training + measurement).
  /// @param budgets the active power/memory budgets (may be empty).
  /// @param apriori_constraints predictive models + budgets; pass nullptr
  ///        to run without a-priori models (the models are also ignored
  ///        when options.use_hardware_models is false).
  /// @param proposer the candidate-selection strategy (owned). The study
  ///        calls Proposer::begin_run at the start of every run/resume.
  /// Throws std::invalid_argument on a null proposer, on zero
  /// max_samples/batch_size/num_threads, and on a dispatcher that the
  /// batch size or the objective cannot serve.
  Optimizer(const HyperParameterSpace& space, Objective& objective,
            ConstraintBudgets budgets,
            const HardwareConstraints* apriori_constraints,
            OptimizerOptions options, std::unique_ptr<Proposer> proposer);

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

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

  [[nodiscard]] std::string name() const { return proposer_->name(); }

 private:
  /// Shared body of run()/resume(): start or resume the study, then drive
  /// ask → execute → tell until it finishes.
  [[nodiscard]] RunResult run_impl(
      const std::vector<EvaluationRecord>* replay);

  // study_ holds references to *proposer_ and options_, so both are
  // declared (and initialized) before it.
  Objective& objective_;
  std::unique_ptr<Proposer> proposer_;
  OptimizerOptions options_;
  Study study_;
};

}  // namespace hp::core
