#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>

#include "core/optimizer.hpp"
#include "core/random_search.hpp"
#include "fake_objective.hpp"

namespace hp::core {
namespace {

RunTrace sample_trace() {
  RunTrace trace;
  EvaluationRecord a;
  a.index = 0;
  a.timestamp_s = 100.5;
  a.status = EvaluationStatus::Completed;
  a.test_error = 0.25;
  a.measured_power_w = 88.25;
  a.measured_memory_mb = 640.0;
  a.cost_s = 95.5;
  trace.add(a);
  EvaluationRecord b;
  b.index = 1;
  b.timestamp_s = 110.0;
  b.status = EvaluationStatus::ModelFiltered;
  b.test_error = 1.0;
  b.violates_constraints = true;
  b.cost_s = 3.0;
  trace.add(b);
  EvaluationRecord c;
  c.index = 2;
  c.timestamp_s = 150.0;
  c.status = EvaluationStatus::EarlyTerminated;
  c.test_error = 0.9;
  c.diverged = true;
  c.cost_s = 30.0;
  trace.add(c);
  EvaluationRecord d;
  d.index = 3;
  d.timestamp_s = 160.0;
  d.status = EvaluationStatus::InfeasibleArchitecture;
  d.test_error = 1.0;
  d.cost_s = 5.0;
  trace.add(d);
  return trace;
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  const RunTrace original = sample_trace();
  std::stringstream buffer;
  original.write_csv(buffer);
  const RunTrace loaded = load_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = loaded.records()[i];
    EXPECT_EQ(b.index, a.index);
    EXPECT_EQ(b.timestamp_s, a.timestamp_s);
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.test_error, a.test_error);
    EXPECT_EQ(b.diverged, a.diverged);
    EXPECT_EQ(b.measured_power_w.has_value(), a.measured_power_w.has_value());
    if (a.measured_power_w) {
      EXPECT_EQ(*b.measured_power_w, *a.measured_power_w);
    }
    EXPECT_EQ(b.measured_memory_mb.has_value(),
              a.measured_memory_mb.has_value());
    EXPECT_EQ(b.violates_constraints, a.violates_constraints);
    EXPECT_EQ(b.cost_s, a.cost_s);
  }
}

// A loaded trace is counted by RunTrace::add like a live one: every count
// query answers from the loaded rows.
TEST(TraceIo, LoadedTraceSupportsDerivedQueries) {
  RunTrace trace = sample_trace();
  EvaluationRecord failed;
  failed.index = 4;
  failed.timestamp_s = 170.0;
  failed.status = EvaluationStatus::Failed;
  failed.attempts = 3;  // two retries
  failed.failure_kind = FailureKind::Transient;
  failed.cost_s = 10.0;
  trace.add(failed);
  EvaluationRecord fallback;  // sensors dark: predicted metrics, over budget
  fallback.index = 5;
  fallback.timestamp_s = 200.0;
  fallback.status = EvaluationStatus::Completed;
  fallback.test_error = 0.125;
  fallback.measured_power_w = 120.0;
  fallback.measured = false;
  fallback.violates_constraints = true;
  fallback.attempts = 2;  // one retry
  fallback.cost_s = 30.0;
  trace.add(fallback);

  std::stringstream buffer;
  trace.write_csv(buffer);
  const RunTrace loaded = load_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), 6u);
  EXPECT_EQ(loaded.function_evaluations(), 3u);
  EXPECT_EQ(loaded.completed_count(), 2u);
  EXPECT_EQ(loaded.model_filtered_count(), 1u);
  EXPECT_EQ(loaded.early_terminated_count(), 1u);
  EXPECT_EQ(loaded.infeasible_count(), 1u);
  EXPECT_EQ(loaded.failed_count(), 1u);
  EXPECT_EQ(loaded.fallback_count(), 1u);
  EXPECT_EQ(loaded.total_retries(), 3u);
  // The model-filtered record violates only by prediction.
  EXPECT_EQ(loaded.measured_violation_count(), 1u);
  const auto best = loaded.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->test_error, 0.25);
  EXPECT_DOUBLE_EQ(loaded.total_time_s(), 200.0);
}

TEST(TraceIo, RoundTripsMemoryAbsentRecords) {
  // Tegra-class platforms report power but no memory counter (paper
  // footnote 1): power present, memory absent must survive the round trip
  // for every status that reaches measurement.
  RunTrace trace;
  EvaluationRecord a;
  a.index = 0;
  a.timestamp_s = 50.0;
  a.status = EvaluationStatus::Completed;
  a.test_error = 0.125;
  a.measured_power_w = 10.5;  // memory stays nullopt
  a.cost_s = 45.0;
  trace.add(a);
  EvaluationRecord b;
  b.index = 1;
  b.timestamp_s = 60.0;
  b.status = EvaluationStatus::EarlyTerminated;
  b.test_error = 0.9;
  b.diverged = true;
  b.cost_s = 4.5;
  trace.add(b);

  std::stringstream buffer;
  trace.write_csv(buffer);
  const RunTrace loaded = load_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.records()[0].measured_power_w.has_value());
  EXPECT_EQ(*loaded.records()[0].measured_power_w, 10.5);
  EXPECT_FALSE(loaded.records()[0].measured_memory_mb.has_value());
  EXPECT_FALSE(loaded.records()[1].measured_power_w.has_value());
  EXPECT_TRUE(loaded.records()[1].diverged);
  EXPECT_EQ(loaded.records()[1].status, EvaluationStatus::EarlyTerminated);
}

TEST(TraceIo, BatchedRunTraceRoundTrips) {
  // A trace produced by the real batched-parallel loop (mixed completed /
  // early-terminated records) survives save + load: discrete fields
  // exactly, doubles to the CSV's 6-significant-digit precision.
  const HyperParameterSpace space = testing::fake_space();
  testing::FakeObjective objective(space);
  objective.set_diverge_above(0.8);  // some candidates early-terminate
  ConstraintBudgets budgets;
  budgets.power_w = 70.0;
  OptimizerOptions opt;
  opt.seed = 3;
  opt.max_function_evaluations = 10;
  opt.batch_size = 4;
  opt.num_threads = 2;
  opt.use_hardware_models = false;
  Optimizer optimizer(space, objective, budgets, nullptr, opt,
                      std::make_unique<RandomSearchProposer>(space));
  const RunResult result = optimizer.run();
  const RunTrace& original = result.trace;

  std::stringstream buffer;
  original.write_csv(buffer);
  const RunTrace loaded = load_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = loaded.records()[i];
    EXPECT_EQ(b.index, a.index);
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.diverged, a.diverged);
    EXPECT_EQ(b.violates_constraints, a.violates_constraints);
    EXPECT_EQ(b.measured_power_w.has_value(), a.measured_power_w.has_value());
    EXPECT_NEAR(b.test_error, a.test_error, 1e-5 * (1.0 + a.test_error));
    EXPECT_NEAR(b.timestamp_s, a.timestamp_s, 1e-5 * (1.0 + a.timestamp_s));
    EXPECT_NEAR(b.cost_s, a.cost_s, 1e-5 * (1.0 + a.cost_s));
  }
  EXPECT_EQ(loaded.function_evaluations(), original.function_evaluations());
  EXPECT_EQ(loaded.early_terminated_count(), original.early_terminated_count());
  EXPECT_EQ(loaded.measured_violation_count(),
            original.measured_violation_count());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  RunTrace{}.write_csv(buffer);
  EXPECT_EQ(load_trace_csv(buffer).size(), 0u);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream buffer("foo,bar\n");
  EXPECT_THROW((void)load_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsEmptyStream) {
  std::stringstream buffer;
  EXPECT_THROW((void)load_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsWrongFieldCount) {
  std::stringstream buffer(
      "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
      "violates,cost_s\n1,2,completed\n");
  EXPECT_THROW((void)load_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownStatus) {
  std::stringstream buffer(
      "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
      "violates,cost_s\n0,1,weird,0.5,0,,,0,1\n");
  EXPECT_THROW((void)load_trace_csv(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedNumber) {
  std::stringstream buffer(
      "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
      "violates,cost_s\n0,abc,completed,0.5,0,,,0,1\n");
  EXPECT_THROW((void)load_trace_csv(buffer), std::runtime_error);

  // Integer fields take digits only, over the whole field, up to 2^64 - 1.
  // A parsed double cast to an integer would read every value below
  // (undefined behaviour for NaN, negative or huge values; 1.5 and " 1"
  // as 1).
  const std::string header =
      "index,timestamp_s,status,test_error,diverged,power_w,memory_mb,"
      "violates,cost_s,measured,attempts,failure\n";
  const auto row = [](const std::string& index, const std::string& attempts) {
    return index + ",1,completed,0.5,0,,,0,1,1," + attempts + ",\n";
  };
  const std::string good = row("0", "1");
  for (const std::string bad : {"nan", "-1", "1e300", "1.5",
                                "18446744073709551616", " 1"}) {
    for (const bool in_index : {true, false}) {
      SCOPED_TRACE((in_index ? "index " : "attempts ") + bad);
      const std::string bad_row = in_index ? row(bad, "1") : row("1", bad);
      // Mid-file: corruption.
      std::stringstream mid(header + good + bad_row + good);
      EXPECT_THROW((void)load_trace_csv(mid), std::runtime_error);
      // Final row: a torn tail, dropped.
      std::stringstream tail(header + good + bad_row);
      EXPECT_EQ(load_trace_csv(tail).size(), 1u);
    }
  }
  std::stringstream largest(header + row("18446744073709551615", "7") + good);
  const RunTrace loaded = load_trace_csv(largest);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0].index, 18446744073709551615u);
  EXPECT_EQ(loaded.records()[0].attempts, 7u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hp_trace_io_test.csv";
  save_trace_csv_file(sample_trace(), path);
  const RunTrace loaded = load_trace_csv_file(path);
  EXPECT_EQ(loaded.size(), 4u);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_trace_csv_file(path), std::runtime_error);
}

}  // namespace
}  // namespace hp::core
