#pragma once
// Round-dispatch seam between the Optimizer and the process fleet
// (DESIGN.md §15). The Optimizer's driver loop normally executes a
// Study-asked round (DESIGN.md §16) on its thread pool; when
// OptimizerOptions.dispatcher is set, the prepared (asked + admitted)
// candidates are handed to a RoundDispatcher instead and the Optimizer
// blocks until the round's records come back, then tells them to the
// Study in sample order. core cannot depend on dist, so the interface
// lives here and the fleet scheduler (src/dist/job_scheduler.hpp)
// implements it.
//
// Determinism contract: jobs are index-pure — a record must be a function
// of (run seed, sample index, configuration) only, exactly as the
// in-process detached path guarantees. The dispatcher may evaluate jobs in
// any order, on any worker, any number of times (lost jobs are requeued);
// it must return one record per job, in job order, with record contents
// bit-identical to what ResilientEvaluator::evaluate(config, rule, index,
// detached=true) would produce in-process. Study::tell re-stamps
// record.config from its own proposal copy, so configurations need not
// round-trip the wire exactly — but sample results must.

#include <cstddef>
#include <vector>

#include "core/objective.hpp"

namespace hp::core {

/// One candidate of a round, bound to its global sample index (the RNG
/// stream key — this is what makes redispatch after a worker loss safe).
struct RoundJob {
  std::size_t sample_index = 0;
  Configuration config;
};

/// Evaluates whole rounds on behalf of the Optimizer. Implementations own
/// their workers' lifecycle; evaluate_round is called from the driver
/// thread and must not return until every job has a record (possibly a
/// Failed record after retries are exhausted). Throwing aborts the run —
/// reserved for "the fleet itself is dead", not for evaluation failures,
/// which the EvalFailure taxonomy already represents as records.
class RoundDispatcher {
 public:
  virtual ~RoundDispatcher() = default;

  /// @returns one EvaluationRecord per job, in job order.
  [[nodiscard]] virtual std::vector<EvaluationRecord> evaluate_round(
      std::vector<RoundJob> jobs) = 0;
};

}  // namespace hp::core
