// Ablation benches for the design choices DESIGN.md calls out:
//   A. the two HyperPower enhancements in isolation (model filter on/off x
//      early termination on/off) under a fixed time budget;
//   B. linear vs quadratic hardware-model form (the paper argues linear
//      suffices), with and without the intercept/non-negativity options;
//   C. HW-IECI's hard indicator vs HW-CWEI's probabilistic weighting as the
//      predictive model degrades (growing residual uncertainty);
//   D. Rand-Walk sigma_0 sensitivity (the paper blames sigma_0 for the
//      failed exhaustive Rand-Walk runs).

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common/experiment.hpp"
#include "common/report.hpp"
#include "common/table.hpp"
#include "core/random_search.hpp"
#include "core/random_walk.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace hp;

/// The pair's budgets with the trained power/memory models, for studies
/// that build their core::Optimizer directly to set the enhancement
/// switches themselves.
core::HardwareConstraints constraints_of(const bench::PairSetup& pair,
                                         const bench::TrainedModels& models) {
  return core::HardwareConstraints(
      pair.budgets,
      models.power ? std::optional<core::HardwareModel>(models.power->model)
                   : std::nullopt,
      models.memory ? std::optional<core::HardwareModel>(models.memory->model)
                    : std::nullopt);
}

void ablation_enhancements(bench::BenchReport& report,
                           const bench::PairSetup& pair,
                           const bench::TrainedModels& models) {
  std::printf("--- A. Enhancement ablation (%s, 2 h budget, Rand) ---\n",
              pair.label.c_str());
  bench::TextTable t({"model filter", "early termination", "samples",
                      "function evals", "best error"});
  for (bool filter : {false, true}) {
    for (bool early : {false, true}) {
      testbed::TestbedOptions opt =
          testbed::calibrated_options(pair.problem.name(), pair.device);
      opt.run_seed = 5;
      testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                          pair.device, opt);
      const auto constraints = constraints_of(pair, models);
      core::OptimizerOptions oo;
      oo.use_hardware_models = filter;  // toggle the two independently
      oo.use_early_termination = early;
      oo.max_runtime_s = pair.time_budget_s;
      oo.seed = 5;
      core::Optimizer rand(
          pair.problem.space(), objective, pair.budgets, &constraints, oo,
          std::make_unique<core::RandomSearchProposer>(pair.problem.space()));
      const auto result = rand.run();
      t.add_row({filter ? "on" : "off", early ? "on" : "off",
                 std::to_string(result.trace.size()),
                 std::to_string(result.trace.function_evaluations()),
                 result.best ? bench::fmt_percent(result.best->test_error)
                             : std::string("-")});
    }
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("enhancements", t);
}

void ablation_model_form(bench::BenchReport& report,
                         const bench::PairSetup& pair) {
  std::printf("--- B. Hardware-model form ablation (%s, power model) ---\n",
              pair.label.c_str());
  bench::TextTable t({"form", "intercept", "nonnegative", "RMSPE", "R^2"});
  for (core::ModelForm form :
       {core::ModelForm::Linear, core::ModelForm::Quadratic}) {
    for (bool intercept : {false, true}) {
      core::HardwareModelOptions opt;
      opt.form = form;
      opt.fit_intercept = intercept;
      const auto models = bench::train_models(pair, 100, 2018, opt);
      t.add_row({form == core::ModelForm::Linear ? "linear" : "quadratic",
                 intercept ? "yes" : "no (strict Eq. 1-2)",
                 "no",
                 bench::fmt_fixed(models.power->cv.rmspe, 2) + "%",
                 bench::fmt_fixed(models.power->cv.r_squared, 3)});
    }
  }
  std::printf("%s", t.render().c_str());
  report.add_table("model_form", t);
  std::printf("=> linear + intercept already meets the paper's <7%% RMSPE; "
              "quadratic adds little\n   (the paper's conclusion that the "
              "linear form suffices).\n\n");
}

void ablation_indicator_vs_probability(bench::BenchReport& report,
                                       const bench::PairSetup& pair,
                                       const bench::TrainedModels& models) {
  std::printf("--- C. Indicator (IECI) vs probabilistic (CWEI) constraints "
              "as model quality degrades ---\n");
  bench::TextTable t({"residual sd inflation", "method", "violations",
                      "best error"});
  for (double inflation : {1.0, 3.0, 6.0}) {
    for (core::Method method : {core::Method::HwIeci, core::Method::HwCwei}) {
      // Inflate the power model's residual sd: CWEI becomes conservative,
      // IECI (which ignores uncertainty) does not.
      const auto& base = models.power->model;
      core::HardwareModel inflated(base.form(), base.weights(),
                                   base.intercept(),
                                   base.residual_sd() * inflation);
      bench::TrainedModels modified = models;
      modified.power->model = inflated;
      bench::RunSpec spec;
      spec.method = method;
      spec.hyperpower = true;
      spec.filter_before_training = false;  // count measured violations
      spec.max_function_evaluations = 30;
      spec.seed = 9;
      const auto result = bench::run_one(pair, modified, spec);
      t.add_row({bench::fmt_fixed(inflation, 1) + "x",
                 core::to_string(method),
                 std::to_string(result.run.trace.measured_violation_count()),
                 result.run.best
                     ? bench::fmt_percent(result.run.best->test_error)
                     : std::string("-")});
    }
  }
  std::printf("%s\n", t.render().c_str());
  report.add_table("indicator_vs_probability", t);
}

void ablation_randwalk_sigma(bench::BenchReport& report,
                             const bench::PairSetup& pair,
                             const bench::TrainedModels& models) {
  std::printf("--- D. Rand-Walk sigma_0 sensitivity (%s, default mode) ---\n",
              pair.label.c_str());
  bench::TextTable t({"sigma0", "runs finding a feasible design",
                      "mean best error (feasible runs)"});
  for (double sigma : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    int found = 0;
    std::vector<double> errors;
    for (int run = 0; run < 3; ++run) {
      testbed::TestbedOptions opt =
          testbed::calibrated_options(pair.problem.name(), pair.device);
      opt.run_seed = 60 + static_cast<std::uint64_t>(run);
      testbed::TestbedObjective objective(pair.problem, pair.landscape,
                                          pair.device, opt);
      const auto constraints = constraints_of(pair, models);
      core::OptimizerOptions oo;
      oo.use_hardware_models = false;  // exhaustive default mode
      oo.use_early_termination = false;
      oo.max_runtime_s = pair.time_budget_s;
      oo.seed = 60 + static_cast<std::uint64_t>(run);
      core::RandomWalkOptions walk;
      walk.sigma0 = sigma;
      core::Optimizer rw(
          pair.problem.space(), objective, pair.budgets, &constraints, oo,
          std::make_unique<core::RandomWalkProposer>(pair.problem.space(),
                                                     walk));
      const auto result = rw.run();
      if (result.best) {
        ++found;
        errors.push_back(result.best->test_error);
      }
    }
    t.add_row({bench::fmt_fixed(sigma, 2), std::to_string(found) + "/3",
               errors.empty() ? "-"
                              : bench::fmt_percent(stats::mean(errors))});
  }
  std::printf("%s", t.render().c_str());
  report.add_table("randwalk_sigma", t);
  std::printf("=> exhaustive Rand-Walk is fragile in sigma_0, 'defeating the "
              "purpose of automated\n   hyper-parameter optimization' "
              "(Section 5).\n");
}

}  // namespace

int main() {
  bench::BenchReport report("ablation");
  std::printf("=== Ablation studies ===\n\n");
  const bench::PairSetup mnist =
      bench::make_pair(bench::Dataset::Mnist, bench::Platform::Gtx1070);
  const bench::PairSetup cifar =
      bench::make_pair(bench::Dataset::Cifar10, bench::Platform::Gtx1070);
  const bench::TrainedModels mnist_models = bench::train_models(mnist, 100, 2018);
  const bench::TrainedModels cifar_models = bench::train_models(cifar, 100, 2018);

  ablation_enhancements(report, mnist, mnist_models);
  ablation_model_form(report, cifar);
  ablation_indicator_vs_probability(report, cifar, cifar_models);
  ablation_randwalk_sigma(report, cifar, cifar_models);
  return 0;
}
