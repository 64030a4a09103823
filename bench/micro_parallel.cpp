// Google-benchmark timings of the parallel-evaluation engine: raw
// ThreadPool parallel_for dispatch/speedup over a CPU-bound body, and the
// EvaluationEngine's batched rounds end to end at varying thread counts. On a
// multi-core host the *_Threads counters show near-linear scaling of the
// evaluation phase; on a single-core CI box they degenerate to overhead
// measurements (the determinism tests, not these timings, are the
// correctness gate).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/micro_report.hpp"
#include "common/spin.hpp"
#include "core/random_search.hpp"
#include "parallel/thread_pool.hpp"
#include "testbed/testbed_objective.hpp"

namespace {

using namespace hp;
using bench::spin;

void BM_ParallelForSpin(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kItersPerTask = 200000;
  parallel::ThreadPool pool(threads - 1);  // caller participates
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      benchmark::DoNotOptimize(sink += spin(i, kItersPerTask));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelForSpin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForDispatchOverhead(benchmark::State& state) {
  // Empty bodies: isolates the per-batch wakeup/merge cost.
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads - 1);
  for (auto _ : state) {
    pool.parallel_for(64, [](std::size_t) {});
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelForDispatchOverhead)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_BatchedOptimizerRun(benchmark::State& state) {
  // End-to-end batched random search on the mnist testbed (the objective
  // walks full learning curves and simulates measurement, so the per-task
  // work is real). Virtual clock costs are identical across thread counts;
  // only wall time changes.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const core::BenchmarkProblem problem = core::mnist_problem();
  core::ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  budgets.memory_mb = 680.0;
  for (auto _ : state) {
    testbed::TestbedObjective objective(
        problem, testbed::mnist_landscape(), hw::gtx1070(),
        testbed::calibrated_options("mnist", hw::gtx1070()));
    core::OptimizerOptions opt;
    opt.seed = 1;
    opt.max_function_evaluations = 32;
    opt.batch_size = 8;
    opt.num_threads = threads;
    opt.use_hardware_models = false;
    core::RandomSearchOptimizer optimizer(problem.space(), objective, budgets,
                                          nullptr, opt);
    const auto result = optimizer.run();
    benchmark::DoNotOptimize(result.trace.size());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_BatchedOptimizerRun)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("micro_parallel", argc, argv);
}
