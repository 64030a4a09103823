// Power- and memory-constrained CIFAR-10 architecture search on two
// platforms: the full four-method comparison (Rand, Rand-Walk, HW-CWEI,
// HW-IECI) under a one-hour virtual budget, on the server GPU and on the
// embedded board — the paper's core use case end to end.

#include <cstdio>
#include <vector>

#include "core/framework.hpp"
#include "hw/profiler.hpp"
#include "testbed/testbed_objective.hpp"

namespace {

void run_on_device(const hp::hw::DeviceSpec& device, double power_budget_w,
                   std::optional<double> memory_budget_mb) {
  using namespace hp;
  const core::BenchmarkProblem problem = core::cifar10_problem();
  std::printf("==== CIFAR-10 on %s (budget %.0f W%s) ====\n", device.name.c_str(),
              power_budget_w, memory_budget_mb ? ", +memory" : "");

  core::ConstraintBudgets budgets;
  budgets.power_w = power_budget_w;
  budgets.memory_mb = memory_budget_mb;

  testbed::TestbedObjective objective(
      problem, testbed::cifar10_landscape(), device,
      testbed::calibrated_options(problem.name(), device));
  core::HyperPowerFramework framework(problem, objective, budgets);

  hw::GpuSimulator profiling_gpu(device, 21);
  hw::InferenceProfiler profiler(profiling_gpu);
  (void)framework.train_hardware_models(profiler, 100, 2018);
  std::printf("power model RMSPE %.2f%%", framework.power_model()->cv.rmspe);
  if (framework.memory_model()) {
    std::printf(", memory model RMSPE %.2f%%",
                framework.memory_model()->cv.rmspe);
  } else {
    std::printf(" (no memory counter on this platform)");
  }
  std::printf("\n\n");

  for (const core::Method method :
       {core::Method::Rand, core::Method::RandWalk, core::Method::HwCwei,
        core::Method::HwIeci}) {
    objective.clock().reset();
    core::FrameworkOptions fo;
    fo.method = method;
    fo.hyperpower_mode = true;
    fo.optimizer.max_runtime_s = 3600.0;  // one virtual hour
    fo.optimizer.seed = 4;
    const auto result = framework.optimize(fo);
    const auto& trace = result.run.trace;
    std::printf("%-9s  samples %5zu  trained %3zu  filtered %5zu  ",
                result.method_name.c_str(), trace.size(),
                trace.completed_count(), trace.model_filtered_count());
    if (result.run.best) {
      std::printf("best %.2f%% @ %.1f W\n",
                  result.run.best->test_error * 100.0,
                  *result.run.best->measured_power_w);
    } else {
      std::printf("no feasible design found\n");
    }
  }

  // Show the winner's architecture in detail (from a fresh HW-IECI run).
  objective.clock().reset();
  core::FrameworkOptions fo;
  fo.method = core::Method::HwIeci;
  fo.optimizer.max_runtime_s = 3600.0;
  fo.optimizer.seed = 4;
  const auto result = framework.optimize(fo);
  if (result.run.best) {
    const nn::CnnSpec spec = problem.to_cnn_spec(result.run.best->config);
    const nn::WorkloadSummary workload = nn::compute_workload(spec);
    std::printf("\nHW-IECI winner: %s\n", spec.to_string().c_str());
    std::printf("  %.2fM weights, %.1fM MACs per inference\n\n",
                workload.total_weights / 1e6, workload.total_macs / 1e6);
  }
}

}  // namespace

int main() {
  std::printf("=== Power-constrained CIFAR-10 architecture search ===\n\n");
  run_on_device(hp::hw::gtx1070(), 90.0, 720.0);
  run_on_device(hp::hw::tegra_tx1(), 12.0, std::nullopt);
  return 0;
}
