#pragma once
// Proposal-strategy layer of the evaluation pipeline (DESIGN.md §12).
//
// A Proposer is a pure candidate-selection strategy: given the space (and,
// for model-based methods, the records observed so far) it produces the
// next configuration(s) to try. It owns no loop — batching, journaling,
// replay, and stopping rules live in the ask/tell Study
// (core/study.hpp, DESIGN.md §16), retries and execution in the
// EvaluationEngine driver (core/evaluation_engine.hpp), and
// trace/incumbent bookkeeping in RunRecorder (core/run_recorder.hpp).
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

/// Run-scoped state the engine hands its proposer at the start of every
/// run/resume. All pointers outlive the run: budgets/constraints belong to
/// the engine, the incumbent points at RunRecorder's (stable) member so
/// incumbent-relative strategies (Rand-Walk) always see the latest best.
struct ProposerRunContext {
  const ConstraintBudgets* budgets = nullptr;
  /// A-priori constraints if present AND enabled for this run, else null.
  const HardwareConstraints* active_constraints = nullptr;
  /// Best feasible record observed so far (recorder-owned; may be empty).
  const std::optional<EvaluationRecord>* incumbent = nullptr;
  std::uint64_t seed = 1;
  /// The run's thread pool, lent by the driver (zero workers on a
  /// one-thread run; null when the driver has none). Proposals run while
  /// the pool is idle, so a strategy may fan work out over it inside
  /// propose()/propose_batch(), provided the result does not depend on the
  /// worker count.
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

  /// Called once by the engine before any proposal of a run/resume.
  /// Overrides must call the base.
  virtual void begin_run(const ProposerRunContext& context) {
    context_ = context;
  }

  /// Proposes the next candidate configuration drawing from @p rng (the
  /// engine's shared stream in sequential mode, a per-sample stream in
  /// batched mode).
  [[nodiscard]] virtual Configuration propose(stats::Rng& rng) = 0;

  /// True when propose() may run concurrently from worker threads (it only
  /// reads shared state: the space and the incumbent snapshot). Strategies
  /// whose proposals mutate sequential state (constant-liar BO, the grid
  /// cursor) return false and produce whole rounds through propose_batch.
  [[nodiscard]] virtual bool supports_parallel_proposals() const {
    return true;
  }

  /// Proposes up to @p count candidates for samples [first_sample_index,
  /// first_sample_index + count) on the calling thread. Only used when
  /// supports_parallel_proposals() is false. May return fewer than
  /// @p count when the strategy runs out of candidates mid-batch (a finite
  /// grid); the engine truncates the round instead of padding it. The
  /// default loops propose() with each sample's own RNG stream.
  [[nodiscard]] virtual std::vector<Configuration> propose_batch(
      std::size_t first_sample_index, std::size_t count);

  /// Called after every recorded sample (of any status), in sample order.
  /// Model-based strategies update their surrogates here.
  virtual void observe(const EvaluationRecord& record) { (void)record; }

  /// Per-proposal bookkeeping cost charged to the virtual clock, in
  /// seconds. Model-based strategies override this with their (growing)
  /// fit cost.
  [[nodiscard]] virtual double proposal_overhead_s() const { return 0.5; }

  /// True when the strategy can produce no further candidates; the engine
  /// stops the run before the next proposal. Infinite strategies (every
  /// randomized method) keep the default false; finite ones (GridSearch
  /// without wrap-around) flip it after their last point.
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
