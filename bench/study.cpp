// bench_study: bookkeeping overhead of the ask/tell Study layer versus
// the same run bookkeeping performed inline. Both sides run identical
// rounds — same per-sample proposal streams, same classify → timestamp →
// trace → incumbent → observe sequence on the same synthetic records — so
// the time ratio isolates the pure cost of the ask/tell indirection: the
// pending-trial deque, the Trial handoff copies, the config re-stamp at
// tell, and the per-sample events' enabled checks.
// bench/baselines/tracked.json caps that ratio (max_ratio): the Study
// abstraction must stay a thin veneer over the books, never a tax on the
// evaluation loop.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/micro_report.hpp"
#include "core/clock.hpp"
#include "core/framework.hpp"
#include "core/random_search.hpp"
#include "core/run_trace.hpp"
#include "core/study.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hp;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kBatch = 8;
constexpr std::size_t kRounds = 16;

core::OptimizerOptions bench_options() {
  core::OptimizerOptions options;
  options.seed = 7;
  options.batch_size = kBatch;
  options.max_samples = kBatch * kRounds;
  options.use_hardware_models = false;
  options.use_early_termination = false;
  return options;
}

/// A finished evaluation for @p config, cheap and deterministic: the
/// benches time bookkeeping, not evaluation.
core::EvaluationRecord synthetic_record(
    const core::HyperParameterSpace& space, const core::Configuration& config,
    std::size_t sample_index) {
  core::EvaluationRecord r;
  r.config = config;
  r.index = sample_index;
  r.status = core::EvaluationStatus::Completed;
  const std::vector<double> u = space.encode(config);
  r.test_error = 0.1 + 0.8 * u[0];
  r.measured_power_w = 100.0 * u[0];
  r.measured_memory_mb = 1000.0 * (1.0 - u[0]);
  r.cost_s = 10.0;
  return r;
}

// A batched round's books, inlined: per-sample proposal streams, then
// the classify → timestamp → index → trace → incumbent → proposer.observe
// sequence the Study performs for every finished sample. (Direct Proposer
// mutation is confined to core::Study in library code by the
// study-ask-tell lint rule; this bench IS the measurement of that
// confinement's cost, so it replicates the raw sequence on purpose.)
void BM_DirectBookkeepingRound(benchmark::State& state) {
  const core::BenchmarkProblem problem = core::mnist_problem();
  const core::HyperParameterSpace& space = problem.space();
  const core::OptimizerOptions options = bench_options();
  core::RandomSearchProposer proposer(space);
  core::Clock clock;
  const core::ConstraintBudgets budgets;
  const core::HardwareConstraints plain(budgets, std::nullopt, std::nullopt);

  for (auto _ : state) {
    core::RunTrace trace;
    std::optional<core::EvaluationRecord> incumbent;
    core::ProposerRunContext context;
    context.budgets = &budgets;
    context.incumbent = &incumbent;
    context.seed = options.seed;
    proposer.begin_run(context);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t base = round * kBatch;
      for (std::size_t j = 0; j < kBatch; ++j) {
        stats::Rng rng(stats::stream_seed(options.seed, base + j));
        core::Configuration config = proposer.propose(rng);
        clock.advance(proposer.proposal_overhead_s());
        core::EvaluationRecord record =
            synthetic_record(space, config, base + j);
        record.violates_constraints = !plain.measured_feasible(
            record.measured_power_w, record.measured_memory_mb);
        clock.advance(record.cost_s);
        record.timestamp_s = clock.now_s();
        record.index = trace.size();
        trace.add(std::move(record));
        const core::EvaluationRecord& stored = trace.records().back();
        if (stored.counts_for_best() &&
            (!incumbent || stored.test_error < incumbent->test_error)) {
          incumbent = stored;
        }
        proposer.observe(stored);
        benchmark::DoNotOptimize(&stored);
      }
    }
    benchmark::DoNotOptimize(trace.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch * kRounds));
}
BENCHMARK(BM_DirectBookkeepingRound)->Unit(benchmark::kMillisecond);

// The same rounds through the ask/tell interface: ask(k), then
// begin_trial + tell per sample. Everything the direct variant does
// happens inside the Study; what this adds is the layer itself.
void BM_StudyAskTellRound(benchmark::State& state) {
  const core::BenchmarkProblem problem = core::mnist_problem();
  const core::HyperParameterSpace& space = problem.space();
  const core::OptimizerOptions options = bench_options();
  core::RandomSearchProposer proposer(space);
  core::Clock clock;
  core::Study study(space, core::ConstraintBudgets{}, nullptr, options,
                    proposer, clock);

  for (auto _ : state) {
    study.begin();
    while (!study.finished()) {
      const std::vector<core::Trial> trials = study.ask(kBatch);
      if (trials.empty()) break;
      for (const core::Trial& trial : trials) {
        if (!study.begin_trial(trial.sample_index)) break;
        study.tell({trial.sample_index,
                    synthetic_record(space, trial.config, trial.sample_index),
                    /*cost_on_clock=*/false});
      }
    }
    benchmark::DoNotOptimize(study.finish().trace.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch * kRounds));
}
BENCHMARK(BM_StudyAskTellRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("study", argc, argv);
}
