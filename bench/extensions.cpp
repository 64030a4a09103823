// Extension experiments beyond the paper's evaluation:
//   E1. NeuralPower-style layer-wise runtime model + energy predictor
//       (paper reference [10]: "can be incorporated into HyperPower"):
//       held-out latency/energy RMSPE per device.
//   E2. Acquisition-function comparison (future work of Section 3.4):
//       HW-IECI vs HW-CWEI vs HW-PI vs HW-LCB under identical budgets.
//   E3. Grid search baseline (the Introduction's strawman), same budget.
//   E4. Error/power Pareto fronts per method (toward the constrained
//       multi-objective formulations of reference [14]).

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "common/experiment.hpp"
#include "common/report.hpp"
#include "common/table.hpp"
#include "core/acquisition.hpp"
#include "core/grid_search.hpp"
#include "core/layerwise_models.hpp"
#include "core/pareto.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace hp;

std::vector<hw::ProfileSample> profile_with_timings(
    const bench::PairSetup& pair, std::size_t count, std::uint64_t seed) {
  hw::GpuSimulator simulator(pair.device, seed);
  hw::ProfilerOptions options;
  options.collect_layer_timings = true;
  hw::InferenceProfiler profiler(simulator, options);
  stats::Rng rng(seed);
  std::vector<nn::CnnSpec> specs;
  std::size_t attempts = 0;
  while (specs.size() < count && attempts < 20 * count) {
    ++attempts;
    const auto config = pair.problem.space().sample(rng);
    const auto spec = pair.problem.to_cnn_spec(config);
    if (nn::is_feasible(spec)) specs.push_back(spec);
  }
  return profiler.profile_all(specs);
}

void extension_layerwise(bench::BenchReport& report) {
  std::printf("--- E1. Layer-wise runtime + energy models (NeuralPower "
              "direction, ref [10]) ---\n");
  bench::TextTable t({"pair", "latency RMSPE (train)", "latency RMSPE (held-out)",
                      "energy RMSPE (held-out)"});
  for (const bench::PairSetup& pair : bench::paper_pairs()) {
    const auto train = profile_with_timings(pair, 80, 2018);
    const auto held_out = profile_with_timings(pair, 30, 4242);
    auto [latency, report] = core::LayerwiseLatencyModel::train(train);
    const auto power = core::train_power_model(train);
    const core::EnergyPredictor energy(power.model, latency);

    std::vector<double> lat_a, lat_p, en_a, en_p;
    for (const auto& s : held_out) {
      lat_a.push_back(s.latency_ms);
      lat_p.push_back(latency.predict_network_ms(s.spec));
      en_a.push_back(s.energy_j());
      en_p.push_back(energy.predict_energy_j(s.spec));
    }
    t.add_row({pair.label,
               bench::fmt_fixed(report.total_latency_rmspe, 2) + "%",
               bench::fmt_fixed(stats::rmspe(lat_a, lat_p), 2) + "%",
               bench::fmt_fixed(stats::rmspe(en_a, en_p), 2) + "%"});
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("layerwise_models", t);
}

void extension_acquisitions(bench::BenchReport& report) {
  std::printf("--- E2. Acquisition comparison, CIFAR-10 on GTX 1070 @ 90 W "
              "(3 runs, 2 h virtual) ---\n");
  const bench::PairSetup pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const bench::TrainedModels models = bench::train_models(pair, 100, 2018);

  struct Entry {
    const char* name;
    std::function<std::unique_ptr<core::AcquisitionFunction>()> make;
  };
  const std::vector<Entry> entries{
      {"HW-IECI", [] { return std::make_unique<core::HwIeciAcquisition>(); }},
      {"HW-CWEI", [] { return std::make_unique<core::HwCweiAcquisition>(); }},
      {"HW-PI", [] { return std::make_unique<core::HwPiAcquisition>(); }},
      {"HW-LCB", [] { return std::make_unique<core::HwLcbAcquisition>(); }},
  };

  bench::TextTable t({"acquisition", "mean best error", "mean violations",
                      "mean samples"});
  for (const Entry& entry : entries) {
    std::vector<double> errors, violations, samples;
    for (std::uint64_t seed : {1, 2, 3}) {
      testbed::TestbedOptions opt =
          testbed::calibrated_options(pair.problem.name(), pair.device);
      opt.run_seed = seed;
      testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                          pair.device, opt);
      core::HardwareConstraints constraints(
          pair.budgets,
          std::optional<core::HardwareModel>(models.power->model),
          models.memory
              ? std::optional<core::HardwareModel>(models.memory->model)
              : std::nullopt);
      core::OptimizerOptions oo;
      oo.max_runtime_s = 2 * 3600.0;
      oo.seed = seed;
      core::Optimizer optimizer(pair.problem.space(), objective,
                                pair.budgets, &constraints, oo,
                                std::make_unique<core::BayesOptProposer>(
                                    pair.problem.space(), entry.make()));
      const auto result = optimizer.run();
      errors.push_back(result.best ? result.best->test_error : 1.0);
      violations.push_back(
          static_cast<double>(result.trace.measured_violation_count()));
      samples.push_back(static_cast<double>(result.trace.size()));
    }
    t.add_row({entry.name, bench::fmt_percent(stats::mean(errors)),
               bench::fmt_fixed(stats::mean(violations), 1),
               bench::fmt_fixed(stats::mean(samples), 1)});
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("acquisitions", t);
}

void extension_grid(bench::BenchReport& report) {
  std::printf("--- E3. Grid-search baseline, MNIST on GTX 1070 @ 85 W "
              "(2 h virtual, HyperPower filtering for all) ---\n");
  const bench::PairSetup pair =
      bench::make_pair(bench::Dataset::Mnist, bench::Platform::Gtx1070);
  const bench::TrainedModels models = bench::train_models(pair, 100, 2018);
  core::HardwareConstraints constraints(
      pair.budgets, std::optional<core::HardwareModel>(models.power->model),
      models.memory
          ? std::optional<core::HardwareModel>(models.memory->model)
          : std::nullopt);

  bench::TextTable t({"method", "samples", "trained", "best error"});
  const auto run_and_row = [&](core::Optimizer& optimizer) {
    const auto result = optimizer.run();
    t.add_row({optimizer.name(), std::to_string(result.trace.size()),
               std::to_string(result.trace.completed_count()),
               result.best ? bench::fmt_percent(result.best->test_error)
                           : std::string("-")});
  };

  {
    testbed::TestbedObjective objective(
        pair.problem, pair.landscape, pair.device,
        testbed::calibrated_options(pair.problem.name(), pair.device));
    core::OptimizerOptions oo;
    oo.max_runtime_s = pair.time_budget_s;
    oo.seed = 3;
    core::Optimizer grid(
        pair.problem.space(), objective, pair.budgets, &constraints, oo,
        std::make_unique<core::GridSearchProposer>(pair.problem.space()));
    run_and_row(grid);
  }
  {
    testbed::TestbedObjective objective(
        pair.problem, pair.landscape, pair.device,
        testbed::calibrated_options(pair.problem.name(), pair.device));
    core::OptimizerOptions oo;
    oo.max_runtime_s = pair.time_budget_s;
    oo.seed = 3;
    core::Optimizer rand(
        pair.problem.space(), objective, pair.budgets, &constraints, oo,
        core::make_proposer(core::Method::Rand, pair.problem.space()));
    run_and_row(rand);
  }
  {
    testbed::TestbedObjective objective(
        pair.problem, pair.landscape, pair.device,
        testbed::calibrated_options(pair.problem.name(), pair.device));
    core::OptimizerOptions oo;
    oo.max_runtime_s = pair.time_budget_s;
    oo.seed = 3;
    core::Optimizer ieci(
        pair.problem.space(), objective, pair.budgets, &constraints, oo,
        core::make_proposer(core::Method::HwIeci, pair.problem.space()));
    run_and_row(ieci);
  }
  report.add_table("grid_baseline", t);
  std::printf("%s=> grid levels quantize away the continuous training "
              "parameters, as the paper's\n   introduction argues.\n\n",
              t.render().c_str());
}

void extension_pareto(bench::BenchReport& report) {
  std::printf("--- E4. Error/power Pareto fronts, CIFAR-10 on GTX 1070 "
              "(HyperPower runs @ 90 W, 5 h virtual) ---\n");
  const bench::PairSetup pair =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const bench::TrainedModels models = bench::train_models(pair, 100, 2018);

  bench::TextTable t({"method", "front size", "hypervolume",
                      "lowest-power point", "lowest-error point"});
  for (core::Method method : {core::Method::Rand, core::Method::HwIeci}) {
    bench::RunSpec spec;
    spec.method = method;
    spec.hyperpower = true;
    spec.max_runtime_s = pair.time_budget_s;
    spec.seed = 6;
    const auto result = bench::run_one(pair, models, spec);
    const auto front = core::pareto_front(result.run.trace);
    const double hv = core::pareto_hypervolume_2d(front, 0.5, 120.0);
    std::string low_power = "-", low_error = "-";
    if (!front.empty()) {
      low_power = bench::fmt_percent(front.front().test_error) + " @ " +
                  bench::fmt_fixed(front.front().power_w, 1) + "W";
      low_error = bench::fmt_percent(front.back().test_error) + " @ " +
                  bench::fmt_fixed(front.back().power_w, 1) + "W";
    }
    t.add_row({core::to_string(method), std::to_string(front.size()),
               bench::fmt_fixed(hv, 2), low_power, low_error});
  }
  report.add_table("pareto_fronts", t);
  std::printf("%s=> the trade-off curve Figure 1 motivates, extracted from "
              "real run traces.\n",
              t.render().c_str());
}

}  // namespace

int main() {
  bench::BenchReport report("extensions");
  std::printf("=== Extension experiments (beyond the paper) ===\n\n");
  extension_layerwise(report);
  extension_acquisitions(report);
  extension_grid(report);
  extension_pareto(report);
  return 0;
}
