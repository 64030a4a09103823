// Property-style sweeps over seeds and methods: invariants that must hold
// for every run the framework produces, regardless of configuration.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/framework.hpp"
#include "testbed/testbed_objective.hpp"

namespace hp::core {

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// registers that printout as part of the test's name. These overloads give
// every parameterized test below a readable name that is the same in
// every build ("HW_IECI", "Rand_Walk_def_2").
void PrintTo(Method method, std::ostream* os) {
  std::string name = to_string(method);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  *os << name;
}

namespace {

struct SweepCase {
  Method method;
  bool hyperpower;
  std::uint64_t seed;
};

void PrintTo(const SweepCase& sweep, std::ostream* os) {
  PrintTo(sweep.method, os);
  *os << (sweep.hyperpower ? "_hp_" : "_def_") << sweep.seed;
}

class RunInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunInvariants, HoldOnMnistRuns) {
  const SweepCase param = GetParam();
  const BenchmarkProblem problem = mnist_problem();
  testbed::TestbedOptions opt =
      testbed::calibrated_options("mnist", hw::gtx1070());
  opt.run_seed = param.seed;
  testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                      hw::gtx1070(), opt);
  ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  HyperPowerFramework framework(problem, objective, budgets);
  hw::GpuSimulator sim(hw::gtx1070(), param.seed);
  hw::InferenceProfiler profiler(sim);
  (void)framework.train_hardware_models(profiler, 60, 2018);

  FrameworkOptions fo;
  fo.method = param.method;
  fo.hyperpower_mode = param.hyperpower;
  fo.optimizer.max_runtime_s = 1200.0;  // 20 virtual minutes
  fo.optimizer.max_samples = 5000;
  fo.optimizer.seed = param.seed;
  const auto result = framework.optimize(fo);
  const auto& records = result.run.trace.records();

  // Invariant 1: timestamps strictly increase and costs are non-negative.
  double prev_ts = -1.0;
  for (const auto& r : records) {
    EXPECT_GT(r.timestamp_s, prev_ts);
    prev_ts = r.timestamp_s;
    EXPECT_GE(r.cost_s, 0.0);
    EXPECT_GE(r.test_error, 0.0);
    EXPECT_LE(r.test_error, 1.0);
  }

  // Invariant 2: indices are dense and ordered.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
  }

  // Invariant 3: the reported best is feasible, completed, and no worse
  // than any other feasible completed record.
  if (result.run.best) {
    EXPECT_TRUE(result.run.best->counts_for_best());
    for (const auto& r : records) {
      if (r.counts_for_best()) {
        EXPECT_LE(result.run.best->test_error, r.test_error);
      }
    }
  }

  // Invariant 4: in default mode nothing is ever model-filtered; in
  // HyperPower mode filtered records are violating-by-prediction.
  for (const auto& r : records) {
    if (!param.hyperpower) {
      EXPECT_NE(r.status, EvaluationStatus::ModelFiltered);
    } else if (r.status == EvaluationStatus::ModelFiltered) {
      EXPECT_TRUE(r.violates_constraints);
    }
  }

  // Invariant 5: the run respects the time budget up to one in-flight
  // sample (the paper lets the last sample complete).
  if (records.size() >= 2) {
    EXPECT_LT(records[records.size() - 2].timestamp_s,
              fo.optimizer.max_runtime_s + 1e-9);
  }

  // Invariant 6: statuses partition the trace.
  EXPECT_EQ(result.run.trace.function_evaluations() +
                result.run.trace.model_filtered_count() +
                [&] {
                  std::size_t infeasible = 0;
                  for (const auto& r : records) {
                    if (r.status == EvaluationStatus::InfeasibleArchitecture) {
                      ++infeasible;
                    }
                  }
                  return infeasible;
                }(),
            result.run.trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsModesSeeds, RunInvariants,
    ::testing::Values(
        SweepCase{Method::Rand, true, 1}, SweepCase{Method::Rand, true, 2},
        SweepCase{Method::Rand, false, 1},
        SweepCase{Method::RandWalk, true, 1},
        SweepCase{Method::RandWalk, false, 2},
        SweepCase{Method::HwCwei, true, 1},
        SweepCase{Method::HwCwei, false, 1},
        SweepCase{Method::HwIeci, true, 1},
        SweepCase{Method::HwIeci, true, 2},
        SweepCase{Method::HwIeci, false, 1}));

class SeedDeterminism : public ::testing::TestWithParam<Method> {};

TEST_P(SeedDeterminism, IdenticalRunsForIdenticalSeeds) {
  const BenchmarkProblem problem = mnist_problem();
  ConstraintBudgets budgets;
  budgets.power_w = 85.0;
  const auto run_once = [&](std::uint64_t seed) {
    testbed::TestbedOptions opt =
        testbed::calibrated_options("mnist", hw::gtx1070());
    opt.run_seed = seed;
    testbed::TestbedObjective objective(problem, testbed::mnist_landscape(),
                                        hw::gtx1070(), opt);
    HyperPowerFramework framework(problem, objective, budgets);
    hw::GpuSimulator sim(hw::gtx1070(), 5);
    hw::InferenceProfiler profiler(sim);
    (void)framework.train_hardware_models(profiler, 60, 2018);
    FrameworkOptions fo;
    fo.method = GetParam();
    fo.optimizer.max_function_evaluations = 5;
    fo.optimizer.max_samples = 3000;
    fo.optimizer.seed = seed;
    return framework.optimize(fo);
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  ASSERT_EQ(a.run.trace.size(), b.run.trace.size());
  for (std::size_t i = 0; i < a.run.trace.size(); ++i) {
    EXPECT_EQ(a.run.trace.records()[i].config, b.run.trace.records()[i].config);
    EXPECT_EQ(a.run.trace.records()[i].test_error,
              b.run.trace.records()[i].test_error);
    EXPECT_EQ(a.run.trace.records()[i].timestamp_s,
              b.run.trace.records()[i].timestamp_s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SeedDeterminism,
                         ::testing::Values(Method::Rand, Method::RandWalk,
                                           Method::HwCwei, Method::HwIeci));

}  // namespace
}  // namespace hp::core
