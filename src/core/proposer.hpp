#pragma once
// Proposal-strategy layer of the evaluation pipeline (DESIGN.md §12).
//
// A Proposer is a pure candidate-selection strategy: given the space (and,
// for model-based methods, the records observed so far) it produces the
// next configuration(s) to try. It owns no loop — batching, journaling,
// replay, stopping rules, and the trace/incumbent bookkeeping live in the
// ask/tell Study (core/study.hpp, DESIGN.md §16), retries and execution
// in the Optimizer's driver loop (core/optimizer.hpp).
// Only the Study mutates a Proposer (lint rule `study-ask-tell`); drivers
// see proposals as Trials from Study::ask. The four methods of the paper
// (Rand, Rand-Walk, HW-IECI/HW-CWEI BayesOpt, Grid) are implementations of
// this interface; plugging in a new search method means writing a Proposer,
// never touching the loop.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/objective.hpp"
#include "core/search_space.hpp"
#include "stats/rng.hpp"

namespace hp::parallel {
class ThreadPool;
}  // namespace hp::parallel

namespace hp::core {

/// Run-scoped state the Study hands its proposer at the start of every
/// run/resume. All pointers outlive the run: budgets/constraints belong to
/// the Study, the incumbent points at the Study's (stable) member so
/// incumbent-relative strategies (Rand-Walk) always see the latest best.
struct ProposerRunContext {
  const ConstraintBudgets* budgets = nullptr;
  /// A-priori constraints if present AND enabled for this run, else null.
  const HardwareConstraints* active_constraints = nullptr;
  /// Best feasible record observed so far (Study-owned; may be empty).
  const std::optional<EvaluationRecord>* incumbent = nullptr;
  std::uint64_t seed = 1;
  /// The run's thread pool, lent by the driver (zero workers on a
  /// one-thread run; null when the driver has none). The pool is idle
  /// whenever the study proposes or observes: the driver tells only after
  /// a round's evaluations return, and replay runs before the first round.
  /// So a strategy may fan work out over it inside propose(),
  /// propose_batch() and observe(), provided the result does not depend
  /// on the worker count.
  parallel::ThreadPool* pool = nullptr;
};

/// Candidate-selection strategy interface.
class Proposer {
 public:
  explicit Proposer(const HyperParameterSpace& space) : space_(space) {}
  virtual ~Proposer() = default;

  Proposer(const Proposer&) = delete;
  Proposer& operator=(const Proposer&) = delete;

  /// Method name as reported in traces/journals ("Rand", "HW-IECI", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once by the Study before any proposal of a run/resume.
  /// Overrides must call the base.
  virtual void begin_run(const ProposerRunContext& context) {
    context_ = context;
  }

  /// Proposes the next candidate configuration drawing from @p rng (the
  /// study's shared stream in sequential mode, a per-sample stream in
  /// batched mode).
  [[nodiscard]] virtual Configuration propose(stats::Rng& rng) = 0;

  /// Proposes up to @p count candidates for samples [first_sample_index,
  /// first_sample_index + count) on the calling thread. Study::ask makes
  /// every batched round through it, and a batched resume re-proposes its
  /// final replayed round through it, so it must propose what the asked
  /// round would. May return fewer than @p count when the strategy runs
  /// out of candidates mid-batch (a finite grid); the study truncates the
  /// round instead of padding it. The default loops propose() with each
  /// sample's own RNG stream; constant-liar BO and the grid's
  /// index-derived points override it.
  ///
  /// Every strategy keeps one rule: between rounds, its state is a
  /// function of the run context and the records it has observed.
  /// Proposing may change state only until propose_batch returns (BO pops
  /// its constant liars before returning). That is what lets a batched
  /// resume observe every replayed round but the last without proposing
  /// it (Study::resume).
  [[nodiscard]] virtual std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count);

  /// Called after every recorded sample (of any status), in sample order.
  /// Model-based strategies update their surrogates here. Returns the
  /// kernel ML fit the observation ran, if it ran one; the Study attaches
  /// it to the record, so the journal keeps it. A replayed record that
  /// carries one is a fit to install instead of searching again.
  virtual RecordedKernelFit observe(const EvaluationRecord& record) {
    (void)record;
    return {};
  }

  /// Per-proposal bookkeeping cost charged to the virtual clock, in
  /// seconds. Model-based strategies override this with their (growing)
  /// fit cost.
  [[nodiscard]] virtual double proposal_overhead_s() const { return 0.5; }

  /// True when the strategy can produce no further candidates; the study
  /// stops the run before the next proposal. Infinite strategies (every
  /// randomized method) keep the default false; finite ones (GridSearch)
  /// flip it once they have observed their last point.
  [[nodiscard]] virtual bool exhausted() const { return false; }

 protected:
  [[nodiscard]] const HyperParameterSpace& space() const noexcept {
    return space_;
  }
  /// Budgets of the current run (empty budgets before begin_run).
  [[nodiscard]] const ConstraintBudgets& budgets() const noexcept {
    static const ConstraintBudgets kNone{};
    return context_.budgets != nullptr ? *context_.budgets : kNone;
  }
  /// A-priori constraints if present AND enabled this run, else nullptr.
  [[nodiscard]] const HardwareConstraints* active_constraints()
      const noexcept {
    return context_.active_constraints;
  }
  /// Best feasible record observed so far this run (empty until one
  /// lands; always empty before begin_run).
  [[nodiscard]] const std::optional<EvaluationRecord>& incumbent()
      const noexcept {
    static const std::optional<EvaluationRecord> kNone;
    return context_.incumbent != nullptr ? *context_.incumbent : kNone;
  }
  [[nodiscard]] std::uint64_t run_seed() const noexcept {
    return context_.seed;
  }
  /// The run's idle thread pool (ProposerRunContext::pool), or null.
  [[nodiscard]] parallel::ThreadPool* thread_pool() const noexcept {
    return context_.pool;
  }
  /// The per-sample RNG stream of global sample @p sample_index (batched
  /// mode; stateless split of the run seed).
  [[nodiscard]] stats::Rng sample_rng(std::size_t sample_index) const {
    return stats::Rng(stats::stream_seed(context_.seed, sample_index));
  }

 private:
  const HyperParameterSpace& space_;
  ProposerRunContext context_;
};

}  // namespace hp::core
