// Fault-tolerance scenarios (DESIGN.md section 11): how the optimizer stack
// behaves when evaluations fail, sensors go dark, and runs are killed:
//   A. injected evaluation-fault sweep (Rand and HW-IECI): retries, failed
//      samples, virtual-time overhead, and best-error degradation;
//   B. sensor-fault sweep with predictive fallback models: how many
//      records degrade to measured=false and whether the search survives;
//   C. crash/resume: kill a journaled run mid-way, resume, and verify the
//      final trace is bit-identical to the uninterrupted run.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "common/experiment.hpp"
#include "common/report.hpp"
#include "common/table.hpp"
#include "core/fault_injection.hpp"
#include "core/trace_io.hpp"

namespace {

using namespace hp;

std::unique_ptr<core::Optimizer> make_method(
    const std::string& method, const bench::PairSetup& pair,
    core::Objective& objective, const core::HardwareConstraints* constraints,
    const core::OptimizerOptions& options) {
  return std::make_unique<core::Optimizer>(
      pair.problem.space(), objective, pair.budgets, constraints, options,
      core::make_proposer(
          method == "Rand" ? core::Method::Rand : core::Method::HwIeci,
          pair.problem.space()));
}

core::HardwareConstraints make_constraints(const bench::PairSetup& pair,
                                           const bench::TrainedModels& models) {
  return core::HardwareConstraints(
      pair.budgets,
      models.power ? std::optional<core::HardwareModel>(models.power->model)
                   : std::nullopt,
      models.memory ? std::optional<core::HardwareModel>(models.memory->model)
                    : std::nullopt);
}

void scenario_eval_faults(bench::BenchReport& report,
                          const bench::PairSetup& pair,
                          const bench::TrainedModels& models) {
  std::printf("--- A. Injected evaluation faults (%s, 30 evals) ---\n",
              pair.label.c_str());
  bench::TextTable t({"method", "fault rate", "samples", "failed", "retries",
                      "overhead time", "best error"});
  const core::HardwareConstraints constraints = make_constraints(pair, models);
  for (const std::string method : {"Rand", "HW-IECI"}) {
    double clean_time = 0.0;
    for (double rate : {0.0, 0.1, 0.2, 0.4}) {
      testbed::TestbedOptions opt =
          testbed::calibrated_options(pair.problem.name(), pair.device);
      opt.run_seed = 7;
      testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                          pair.device, opt);
      core::FaultSpec faults;
      faults.failure_rate = rate;
      faults.seed = 4242;
      core::FaultInjectingObjective faulty(objective, faults);
      core::OptimizerOptions oo;
      oo.max_function_evaluations = 30;
      oo.seed = 7;
      const auto result =
          make_method(method, pair, faulty, &constraints, oo)->run();
      const double total = result.trace.total_time_s();
      if (rate == 0.0) clean_time = total;
      std::ostringstream overhead;
      overhead.precision(1);
      overhead << std::fixed
               << (clean_time > 0.0 ? 100.0 * (total - clean_time) / clean_time
                                    : 0.0)
               << "%";
      t.add_row({method, bench::fmt_fixed(rate, 2),
                 std::to_string(result.trace.size()),
                 std::to_string(result.trace.failed_count()),
                 std::to_string(result.trace.total_retries()),
                 overhead.str(),
                 result.best ? bench::fmt_percent(result.best->test_error)
                             : std::string("-")});
    }
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("eval_faults", t);
}

void scenario_sensor_faults(bench::BenchReport& report,
                            const bench::PairSetup& pair,
                            const bench::TrainedModels& models) {
  std::printf("--- B. Sensor faults with predictive fallback (%s) ---\n",
              pair.label.c_str());
  bench::TextTable t({"sensor fault rate", "samples", "fallback records",
                      "retries", "best completed error"});
  for (double rate : {0.0, 0.2, 0.5}) {
    testbed::TestbedOptions opt =
        testbed::calibrated_options(pair.problem.name(), pair.device);
    opt.run_seed = 8;
    opt.sensor_faults.failure_rate = rate;
    opt.sensor_faults.fail_memory = true;
    opt.sensor_faults.seed = 515;
    testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                        pair.device, opt);
    if (models.power) {
      objective.set_fallback_models(
          &models.power->model,
          models.memory ? &models.memory->model : nullptr);
    }
    core::OptimizerOptions oo;
    oo.max_function_evaluations = 30;
    oo.seed = 8;
    core::Optimizer optimizer(
        pair.problem.space(), objective, pair.budgets, nullptr, oo,
        core::make_proposer(core::Method::Rand, pair.problem.space()));
    const auto result = optimizer.run();
    // Unfiltered random search rarely hits the budgets, so report the best
    // completed error instead of the best *feasible* one: the claim under
    // test is that degraded measurements leave the search unharmed.
    double best_error = 1.0;
    bool any_completed = false;
    for (const auto& r : result.trace.records()) {
      if (r.status != core::EvaluationStatus::Completed) continue;
      any_completed = true;
      if (r.test_error < best_error) best_error = r.test_error;
    }
    t.add_row({bench::fmt_fixed(rate, 2), std::to_string(result.trace.size()),
               std::to_string(result.trace.fallback_count()),
               std::to_string(result.trace.total_retries()),
               any_completed ? bench::fmt_percent(best_error)
                             : std::string("-")});
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("sensor_faults", t);
}

void scenario_crash_resume(bench::BenchReport& report,
                           const bench::PairSetup& pair) {
  std::printf("--- C. Crash/resume bit-identity (%s, Rand, 20 evals) ---\n",
              pair.label.c_str());
  bench::TextTable t({"kill after", "resumed samples", "trace identical"});
  const std::string journal_path = "BENCH_fault_journal.hpj";
  core::OptimizerOptions oo;
  oo.max_function_evaluations = 20;
  oo.seed = 9;
  oo.journal_path = journal_path;

  const auto run_full = [&] {
    testbed::TestbedOptions opt =
        testbed::calibrated_options(pair.problem.name(), pair.device);
    opt.run_seed = 9;
    testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                        pair.device, opt);
    core::Optimizer optimizer(
        pair.problem.space(), objective, pair.budgets, nullptr, oo,
        core::make_proposer(core::Method::Rand, pair.problem.space()));
    return optimizer.run();
  };
  const auto reference = run_full();
  std::ostringstream reference_csv;
  reference.trace.write_csv(reference_csv);
  const auto journal = core::EvalJournal::load(journal_path);

  for (std::size_t keep : {5u, 13u}) {
    auto records = journal.records;
    if (records.size() > keep) records.resize(keep);
    testbed::TestbedOptions opt =
        testbed::calibrated_options(pair.problem.name(), pair.device);
    opt.run_seed = 9;
    testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                        pair.device, opt);
    core::OptimizerOptions resumed_options = oo;
    resumed_options.journal_path = journal_path + ".resumed";
    core::Optimizer optimizer(
        pair.problem.space(), objective, pair.budgets, nullptr,
        resumed_options,
        core::make_proposer(core::Method::Rand, pair.problem.space()));
    const auto resumed = optimizer.resume(records);
    std::ostringstream resumed_csv;
    resumed.trace.write_csv(resumed_csv);
    t.add_row({std::to_string(records.size()) + " records",
               std::to_string(resumed.trace.size()),
               resumed_csv.str() == reference_csv.str() ? "yes" : "NO"});
    std::remove(resumed_options.journal_path.c_str());
  }
  std::remove(journal_path.c_str());
  std::printf("%s\n", t.render().c_str());
  report.add_table("crash_resume", t);
}

}  // namespace

int main() {
  bench::BenchReport report("fault");
  std::printf("=== Fault-tolerance scenarios ===\n\n");
  const bench::PairSetup mnist =
      bench::make_pair(bench::Dataset::Mnist, bench::Platform::Gtx1070);
  const bench::TrainedModels models = bench::train_models(mnist, 100, 2018);

  scenario_eval_faults(report, mnist, models);
  scenario_sensor_faults(report, mnist, models);
  scenario_crash_resume(report, mnist);
  return 0;
}
