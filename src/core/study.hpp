#pragma once
// Ask/tell study core (DESIGN.md §16): the passive state machine at the
// center of the evaluation pipeline. A Study owns everything a run *is* —
// the Proposer's run context, the run's books (trace, incumbent,
// consecutive-failure streak), the crash-safe EvalJournal, the shared
// sequential RNG stream, and the virtual clock charges — behind a pure
// ask/tell interface:
//
//   ask(k)        -> up to k Trials (proposed, model-filtered, numbered)
//   begin_trial(i)-> admission gate: re-checks the stopping rules and
//                    charges the proposal overhead, in sample order
//   tell(result)  -> books one finished trial (classify, timestamp,
//                    record, observe, journal, failure streak)
//
// The Study never executes anything: *drivers* do. core::Optimizer
// (core/optimizer.hpp) is the in-process driver; the process fleet
// (src/dist) plugs into the same driver through the RoundDispatcher
// seam, so in-process and multi-process execution share this one state
// machine. Because every propose/observe flows through here (lint rule
// `study-ask-tell`) and the books are private, a trace remains a pure
// function of (seed, batch_size) no matter which driver runs the trials.
//
// Trial lifecycle:
//
//   ask(k) ──▶ proposed ──begin_trial──▶ begun ──tell──▶ booked
//                  │
//                  │ stopping rule hit (the round's tail drops)
//                  ▼
//               dropped
//
// Pending trials are invisible to model-based proposers between ask and
// tell by design: the constant-liar lies that represent an in-flight
// batch live only inside Proposer::propose_batch (core/batch_fill.hpp)
// and are popped before ask() returns, which is what keeps a batched
// trace bit-identical to the pre-ask/tell engine loop.

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/dispatch.hpp"
#include "core/objective.hpp"
#include "core/resilience.hpp"
#include "core/run_trace.hpp"
#include "core/search_space.hpp"
#include "core/trace_io.hpp"
#include "stats/rng.hpp"

namespace hp::parallel {
class ThreadPool;
}  // namespace hp::parallel

namespace hp::core {

class Proposer;

/// Shared optimizer options.
struct OptimizerOptions {
  /// Fixed-evaluations mode: stop after this many *function evaluations*
  /// (actual trainings; model-filtered samples do not count).
  std::size_t max_function_evaluations =
      std::numeric_limits<std::size_t>::max();
  /// Time-budget mode: stop querying new samples once the clock passes
  /// this; the in-flight sample is allowed to complete (as in the paper's
  /// wall-clock experiments).
  double max_runtime_s = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 1;

  /// HyperPower enhancement 1: discard candidates the power/memory models
  /// predict to violate the budgets, before training.
  bool use_hardware_models = true;
  /// When false, predicted-violating candidates are still trained (and
  /// counted as measured violations) while BO acquisitions keep using the
  /// a-priori models — the regime of the paper's fixed-evaluations
  /// comparison (Figure 4), where every method pays for its own samples.
  bool filter_before_training = true;
  /// HyperPower enhancement 2: abort diverging candidates after a few
  /// epochs (core::kEarlyTermination).
  bool use_early_termination = true;

  /// Safety cap on total queried samples per run.
  std::size_t max_samples = 200000;

  /// Batched evaluation: candidates generated + filtered + evaluated per
  /// round. 1 selects the classic strictly sequential loop; K > 1 runs
  /// rounds of K candidates whose records are merged into the trace in
  /// sample order. Each sample draws from its own RNG stream seeded by
  /// (seed, sample index), so a batched run is bit-identical at any
  /// num_threads (but intentionally differs from the batch_size = 1 run,
  /// which consumes a single sequential stream).
  std::size_t batch_size = 1;
  /// Threads doing a run's parallel work: the in-process evaluations of a
  /// batched round, and BO acquisition scoring in every mode (1 = all of
  /// it on the calling thread). Never changes a bit of the trace.
  std::size_t num_threads = 1;

  /// Fleet mode: when set, batched rounds are evaluated by this dispatcher
  /// (a process fleet — src/dist/job_scheduler.hpp) instead of the
  /// in-process thread pool. Non-owning; must outlive the run. Requires
  /// batch_size > 1 and an objective that supports concurrent evaluation
  /// (jobs must be index-pure for redispatch after a worker loss to be
  /// safe) — the Optimizer constructor throws otherwise. Proposal, filtering,
  /// and merge stay on the Study's thread, so the trace remains a pure
  /// function of (seed, batch_size) — never of worker count or scheduling.
  RoundDispatcher* dispatcher = nullptr;

  /// Resilience: retry/timeout/backoff applied to every evaluation
  /// (core/resilience.hpp). With the defaults, an objective exception is
  /// retried up to twice and then recorded as a Failed sample instead of
  /// aborting the run.
  RetryPolicy retry{};
  /// Path of the crash-safe evaluation journal; "" disables journaling.
  /// Written as each record completes and fsync'd as each round does, so
  /// a killed run can continue via resume() with a bit-identical trace.
  std::string journal_path;
};

/// Outcome of a run.
struct RunResult {
  RunTrace trace;
  std::optional<EvaluationRecord> best;
  /// True when the run stopped early because
  /// retry.max_consecutive_failed_samples candidates in a row failed —
  /// the environment is persistently broken, not one candidate.
  bool aborted = false;
  std::string abort_reason;
};

/// One proposed candidate, handed out by Study::ask. A trial the study
/// resolved itself (the a-priori models filtered it before training) comes
/// back with requires_evaluation == false and `resolved` holding the
/// terminal record; the driver tells it back unexecuted so its overhead is
/// charged in canonical sample order.
struct Trial {
  std::size_t sample_index = 0;
  Configuration config;
  bool requires_evaluation = true;
  EvaluationRecord resolved;
};

/// One finished trial on its way back into the study. `cost_on_clock` is
/// true when the evaluation already advanced the virtual clock itself
/// (a live, non-detached Objective::evaluate); false for detached, fleet,
/// and pre-resolved records, whose cost_s the study charges at tell time.
struct TrialResult {
  std::size_t sample_index = 0;
  EvaluationRecord record;
  bool cost_on_clock = false;
};

/// The ask/tell state machine: Proposer + run books + EvalJournal + clock
/// charges behind a pure interface. Not thread-safe: one driver
/// thread asks and tells (concurrency lives in the drivers, behind the
/// RoundDispatcher seam).
class Study {
 public:
  /// @param space the hyper-parameter space.
  /// @param budgets the active power/memory budgets (may be empty).
  /// @param apriori_constraints predictive models + budgets; nullptr runs
  ///        without a-priori models.
  /// @param options the run options; must outlive the study.
  /// @param proposer the candidate-selection strategy; must outlive the
  ///        study. begin()/resume() call Proposer::begin_run.
  /// @param clock the virtual clock charged with proposal overheads and
  ///        evaluation costs; must outlive the study.
  Study(const HyperParameterSpace& space, ConstraintBudgets budgets,
        const HardwareConstraints* apriori_constraints,
        const OptimizerOptions& options, Proposer& proposer, Clock& clock);

  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Starts a fresh run: resets the books, hands the proposer its run
  /// context, and creates the journal (if configured). @p pool, when set,
  /// is the driver's thread pool, lent to the proposer for the run
  /// (ProposerRunContext::pool); it must outlive the run and be idle
  /// whenever ask() or resume() proposes.
  void begin(parallel::ThreadPool* pool = nullptr);

  /// Starts a continued run: like begin(), then replays @p completed
  /// records (journal order) as if they had just been evaluated —
  /// restoring the clock, RNG streams, incumbent, and surrogate state. In
  /// batched mode a trailing partial round is discarded (the driver
  /// re-evaluates it; index-pure evaluations make the records identical),
  /// and only the final kept round is re-proposed: the proposer observes
  /// the rounds before it without proposing them (the Proposer rule).
  /// Sequential mode re-proposes every record, which advances the shared
  /// stream. A record's kernel fit (EvaluationRecord::kernel_fit) is
  /// installed by the proposer instead of searched for. Throws
  /// std::runtime_error when a re-proposed configuration differs from its
  /// record, when the a-priori models' verdict on a record differs from
  /// whether it was model-filtered, or when a record carries a kernel fit
  /// the proposer does not make there or does not reproduce (a journal of
  /// another seed, method, budget or mode).
  void resume(const std::vector<EvaluationRecord>& completed,
              parallel::ThreadPool* pool = nullptr);

  /// Proposes up to @p k new trials (fewer when budgets, max_samples, or a
  /// finite proposer cut the round short — never padded; an exhausted or
  /// stopped study returns an empty batch). Sequential mode
  /// (options.batch_size == 1) proposes one trial per ask, from the run's
  /// single shared RNG stream; batched mode draws from per-(seed,
  /// sample-index) streams. Trials the a-priori models filter out come
  /// back pre-resolved. Throws std::logic_error while a previous batch is
  /// still pending.
  [[nodiscard]] std::vector<Trial> ask(std::size_t k);

  /// Admission gate, called in sample order before executing/booking each
  /// asked trial: re-checks the stopping rules (a round crossing a budget
  /// drops its tail — this trial and every later pending one — and returns
  /// false) and charges the proposal overhead to the clock. Throws
  /// std::logic_error out of ask order or for a trial already begun.
  [[nodiscard]] bool begin_trial(std::size_t sample_index);

  /// Books one begun trial: re-stamps record.config from the study's own
  /// proposal copy (results, not configurations, survive execution),
  /// charges cost_s when the clock was not already advanced, classifies
  /// against the measured budgets, timestamps, records (record_sample),
  /// journals, and flags the abort when the consecutive-failure streak
  /// reaches its limit. Throws std::logic_error out of order or before
  /// begin_trial.
  void tell(TrialResult result);

  /// True when no further trials will be asked: a stopping rule fired
  /// (budgets, max_samples, proposer exhaustion) or the run aborted.
  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

  /// Ends the run: drops any still-pending trials, writes the journal's
  /// study_state epilogue (clean finalize marker), closes the journal, and
  /// surrenders the trace. The study can begin()/resume() again afterwards.
  [[nodiscard]] RunResult finish();

  /// The next sample index ask() will hand out (= records so far plus
  /// trials already asked). Drivers key their round spans by it.
  [[nodiscard]] std::size_t next_sample_index() const noexcept {
    return next_sample_;
  }

  [[nodiscard]] const OptimizerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    return budgets_;
  }
  /// The a-priori constraints if present AND enabled, else nullptr.
  [[nodiscard]] const HardwareConstraints* active_constraints() const noexcept;

 private:
  /// A trial between ask() and its terminal transition. The config copy is
  /// what tell() re-stamps onto the incoming record.
  struct PendingTrial {
    std::size_t sample_index = 0;
    Configuration config;
    bool begun = false;  ///< begin_trial() admitted it; a tell is owed
  };

  /// Shared body of begin()/resume().
  void start_run(const std::vector<EvaluationRecord>* replay,
                 parallel::ThreadPool* pool);
  /// Re-applies already-evaluated records, moving them out of @p kept:
  /// brings the proposal stream and strategy state to where the original
  /// run had them, restores the clock and incumbent, and appends to the
  /// trace — without any evaluation.
  void replay_records(std::vector<EvaluationRecord>& kept);
  /// Replay tail of one record: restores the clock, then record_sample.
  void replay_one(EvaluationRecord record);
  /// The per-record books, for live and replayed samples alike: stamps the
  /// index, appends the record to the trace, updates the incumbent, and —
  /// @p live only — advances the consecutive-failure streak and emits the
  /// per-sample metrics and events (a replayed Failed sample must not
  /// re-trigger the abort the original run survived). Then the proposer
  /// observes the stored record, and the kernel fit it reports is attached
  /// to it. The record is returned (stable until the next record) so
  /// tell() journals exactly what the trace holds.
  const EvaluationRecord& record_sample(EvaluationRecord record, bool live);
  /// Flags the abort when the consecutive-failure budget is exhausted.
  void check_abort();

  const HyperParameterSpace& space_;
  ConstraintBudgets budgets_;
  const HardwareConstraints* apriori_constraints_;
  const OptimizerOptions& options_;
  Proposer& proposer_;
  Clock& clock_;
  RunTrace trace_;
  /// Best feasible record so far; proposers read it through
  /// ProposerRunContext::incumbent.
  std::optional<EvaluationRecord> incumbent_;
  std::size_t consecutive_failures_ = 0;
  EvalJournal journal_;
  /// Sequential mode's single proposal stream (batch_size == 1).
  stats::Rng shared_rng_{1};
  std::deque<PendingTrial> pending_;
  std::size_t next_sample_ = 0;
  bool stopped_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
};

/// The execution-seam view of a round: every asked trial that still needs
/// an evaluation, as index-pure dispatcher jobs (core/dispatch.hpp). Both
/// the in-process driver and the fleet consume Study rounds through this.
[[nodiscard]] std::vector<RoundJob> jobs_from_trials(
    const std::vector<Trial>& trials);

}  // namespace hp::core
