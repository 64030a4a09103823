#include "core/optimizer.hpp"

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace hp::core {

namespace {

/// Batched rounds driven, counted when metrics are on; process-global,
/// fetched once.
obs::Counter& rounds_counter() {
  static obs::Counter& counter = obs::metrics().counter("optimizer.rounds");
  return counter;
}

/// The in-process dispatcher: evaluates a round's jobs on the shared
/// thread pool through the exact seam the process fleet implements
/// (core/dispatch.hpp), so batched-ThreadPool mode and fleet mode are the
/// same driver loop with a different executor behind it. Jobs are
/// index-pure detached evaluations written into disjoint slots; the
/// pool's parallel_for barrier publishes them.
class PoolDispatcher final : public RoundDispatcher {
 public:
  PoolDispatcher(parallel::ThreadPool& pool, ResilientEvaluator& evaluator,
                 const EarlyTerminationRule* rule) noexcept
      : pool_(pool), evaluator_(evaluator), rule_(rule) {}

  std::vector<EvaluationRecord> evaluate_round(
      std::vector<RoundJob> jobs) override {
    std::vector<EvaluationRecord> records(jobs.size());
    pool_.parallel_for(jobs.size(), [&](std::size_t k) {
      ResilientOutcome outcome =
          evaluator_.evaluate(jobs[k].config, rule_, jobs[k].sample_index,
                              /*detached=*/true);
      records[k] = std::move(outcome.record);
    });
    return records;
  }

 private:
  parallel::ThreadPool& pool_;
  ResilientEvaluator& evaluator_;
  const EarlyTerminationRule* rule_;
};

constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();

/// Dereferences the strategy during member initialization, so a null
/// proposer surfaces as a typed exception before the Study binds to it.
Proposer& checked(const std::unique_ptr<Proposer>& proposer) {
  if (proposer == nullptr) {
    throw std::invalid_argument("Optimizer: null proposer");
  }
  return *proposer;
}

}  // namespace

Optimizer::Optimizer(const HyperParameterSpace& space, Objective& objective,
                     ConstraintBudgets budgets,
                     const HardwareConstraints* apriori_constraints,
                     OptimizerOptions options,
                     std::unique_ptr<Proposer> proposer)
    : objective_(objective),
      proposer_(std::move(proposer)),
      options_(std::move(options)),
      study_(space, budgets, apriori_constraints, options_,
             checked(proposer_), objective.clock()) {
  if (options_.max_samples == 0) {
    throw std::invalid_argument("Optimizer: max_samples must be > 0");
  }
  if (options_.batch_size == 0) {
    throw std::invalid_argument("Optimizer: batch_size must be > 0");
  }
  if (options_.num_threads == 0) {
    throw std::invalid_argument("Optimizer: num_threads must be > 0");
  }
  if (options_.dispatcher != nullptr) {
    if (options_.batch_size == 1) {
      throw std::invalid_argument(
          "Optimizer: fleet dispatch requires batch_size > 1 "
          "(sequential mode consumes a single shared RNG stream that a "
          "remote worker cannot reproduce)");
    }
    if (!objective_.supports_concurrent_evaluation()) {
      throw std::invalid_argument(
          "Optimizer: fleet dispatch requires an objective with "
          "concurrent (index-pure detached) evaluation");
    }
  }
}

RunResult Optimizer::run() { return run_impl(nullptr); }

RunResult Optimizer::resume(
    const std::vector<EvaluationRecord>& completed) {
  return run_impl(&completed);
}

RunResult Optimizer::run_impl(
    const std::vector<EvaluationRecord>* replay) {
  obs::ScopedTimer run_span("optimizer.run", options_.seed);
  run_span.trace_arg({"seed", options_.seed});
  run_span.trace_arg({"batch_size", options_.batch_size});
  run_span.trace_arg({"num_threads", options_.num_threads});

  // The run's one thread pool. num_threads counts the threads doing work
  // and the calling thread joins every parallel_for, so K threads = K-1
  // workers (none: everything runs inline). The pool serves both halves of
  // a round: the proposer borrows it while the study asks (acquisition
  // scoring), and in-process evaluation runs on it afterwards. It exists
  // before the study starts, so the proposals a resume replays are scored
  // on it too.
  parallel::ThreadPool pool(options_.num_threads - 1);
  replay != nullptr ? study_.resume(*replay, &pool) : study_.begin(&pool);

  ResilientEvaluator evaluator(objective_, options_.retry, options_.seed);
  const bool batched = options_.batch_size > 1;
  const bool fleet = options_.dispatcher != nullptr;
  const EarlyTerminationRule* rule =
      options_.use_early_termination ? &kEarlyTermination : nullptr;

  // One dispatcher per concurrent execution mode: the fleet's, or the
  // internal pool-backed one. No concurrent path (sequential mode, or an
  // objective driving real hardware) leaves the dispatcher null and
  // evaluates during the tell loop, in sample order — still deterministic,
  // just not overlapped.
  std::optional<PoolDispatcher> pool_dispatcher;
  RoundDispatcher* dispatcher = options_.dispatcher;
  if (batched && objective_.supports_concurrent_evaluation() && !fleet) {
    dispatcher = &pool_dispatcher.emplace(pool, evaluator, rule);
  }

  while (!study_.finished()) {
    // Keyed by the round's base sample index (a pure function of the run,
    // not of scheduling) so the round's span id — and the ids of
    // everything beneath it — is identical at any thread count.
    const std::size_t round_base = study_.next_sample_index();
    obs::ScopedTimer round_span("optimizer.round", round_base);
    round_span.trace_arg({"round_base", round_base});
    if (batched && obs::metrics().enabled()) rounds_counter().add(1);

    // Ask: the study proposes, model-filters, and numbers the round.
    std::vector<Trial> trials = study_.ask(options_.batch_size);
    if (trials.empty()) break;

    // Execute: hand every trial that needs an evaluation to the
    // dispatcher. Records come back in job order; the study re-stamps
    // configurations at tell, so only results must survive execution.
    std::vector<EvaluationRecord> records;
    std::vector<std::size_t> job_of(trials.size(), kNoJob);
    if (dispatcher != nullptr) {
      std::vector<RoundJob> jobs = jobs_from_trials(trials);
      std::size_t next_job = 0;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        if (trials[i].requires_evaluation) job_of[i] = next_job++;
      }
      if (!jobs.empty()) {
        obs::ScopedTimer evaluate_timer("optimize.round_evaluate", round_base);
        const std::size_t expected = jobs.size();
        records = dispatcher->evaluate_round(std::move(jobs));
        if (records.size() != expected) {
          throw std::runtime_error(
              "Optimizer: dispatcher returned " +
              std::to_string(records.size()) + " records for " +
              std::to_string(expected) + " jobs");
        }
      }
    }

    // Tell: book the round in canonical sample order. The study re-checks
    // the stopping rules before admitting every trial (a round crossing a
    // budget discards its tail) and charges proposal overheads and
    // detached costs to the clock, sample by sample.
    std::optional<obs::ScopedTimer> merge_timer;
    if (batched) {
      merge_timer.emplace("optimize.merge", round_base);
    }
    for (std::size_t i = 0; i < trials.size(); ++i) {
      Trial& trial = trials[i];
      if (!study_.begin_trial(trial.sample_index)) break;
      if (!trial.requires_evaluation) {
        study_.tell({trial.sample_index, std::move(trial.resolved),
                     /*cost_on_clock=*/false});
      } else if (job_of[i] != kNoJob) {
        study_.tell({trial.sample_index, std::move(records[job_of[i]]),
                     /*cost_on_clock=*/false});
      } else {
        ResilientOutcome outcome =
            evaluator.evaluate(trial.config, rule, trial.sample_index,
                               /*detached=*/false);
        study_.tell({trial.sample_index, std::move(outcome.record),
                     /*cost_on_clock=*/true});
      }
      if (study_.aborted()) break;
    }
  }
  return study_.finish();
}

}  // namespace hp::core
