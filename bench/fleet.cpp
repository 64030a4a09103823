// bench_fleet: per-job dispatch + merge overhead of the process fleet
// (src/dist) versus the in-process detached evaluation path. Both sides
// evaluate the same 8 jobs through identical evaluation stacks (shared
// cli::build_evaluation_stack), so the fleet/in-process time ratio
// isolates pure fleet overhead — wire framing + CRC, pipe round-trips,
// and scheduler bookkeeping. bench/baselines/tracked.json caps that ratio
// (max_ratio) for the single-worker fleet, where no parallel speedup can
// mask a regression in the dispatch path.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cli/objective_setup.hpp"
#include "common/micro_report.hpp"
#include "core/resilience.hpp"
#include "dist/job_scheduler.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hp;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kJobsPerRound = 8;

std::vector<std::string> stack_tokens() {
  return {"--problem",       "tiny_mnist", "--device",        "GTX 1070",
          "--power-budget",  "90",         "--memory-budget", "720",
          "--seed",          "7"};
}

std::unique_ptr<cli::EvaluationStack> build_stack() {
  const std::vector<std::string> tokens = stack_tokens();
  std::vector<const char*> argv{"bench_fleet"};
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  return cli::build_evaluation_stack(
      cli::Args(static_cast<int>(argv.size()), argv.data()));
}

std::vector<core::RoundJob> make_jobs(const core::HyperParameterSpace& space) {
  std::vector<core::RoundJob> jobs;
  for (std::size_t j = 0; j < kJobsPerRound; ++j) {
    stats::Rng rng(stats::stream_seed(7, j));
    jobs.push_back(core::RoundJob{j, space.sample(rng)});
  }
  return jobs;
}

void BM_InProcessRound(benchmark::State& state) {
  const auto stack = build_stack();
  core::ResilientEvaluator evaluator(stack->search_objective(),
                                     core::RetryPolicy{}, /*run_seed=*/7);
  const std::vector<core::RoundJob> jobs = make_jobs(stack->problem.space());
  for (auto _ : state) {
    for (const core::RoundJob& job : jobs) {
      const core::ResilientOutcome outcome =
          evaluator.evaluate(job.config, &core::kEarlyTermination,
                             job.sample_index,
                             /*detached=*/true);
      benchmark::DoNotOptimize(outcome.record.cost_s);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobsPerRound));
}
// Real time: a fleet round's cost is wall time spent waiting on worker
// processes, which the main thread's CPU clock does not see.
BENCHMARK(BM_InProcessRound)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FleetRound(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto stack = build_stack();  // engine side: only the space is used
  dist::FleetOptions options;
  options.supervisor.worker_binary = HYPERPOWER_WORKER_BIN;
  options.supervisor.workers = workers;
  options.supervisor.worker_args = stack_tokens();
  options.run_seed = 7;
  dist::FleetScheduler scheduler(std::move(options));
  const std::vector<core::RoundJob> jobs = make_jobs(stack->problem.space());
  // Warm-up round outside the timed loop: spawns the workers and has each
  // build its evaluation stack (hardware-model training included).
  benchmark::DoNotOptimize(scheduler.evaluate_round(jobs).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.evaluate_round(jobs).size());
  }
  scheduler.shutdown();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobsPerRound));
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_FleetRound)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return hp::bench::run_micro_bench("fleet", argc, argv);
}
